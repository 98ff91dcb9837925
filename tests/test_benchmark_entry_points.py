"""The benchmark under perfbench/ calls and traces library functions by name;
these checks load its modules by file path and keep those names alive."""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    for module, function, _, _ in _load("tracing").SPANS:
        assert callable(getattr(importlib.import_module(f"radialke.{module}"),
                                function, None)), f"radialke.{module}.{function}"


def test_workloads_import_cleanly():
    assert set(_load("workloads").WORKLOADS) == {"iterate", "bergman",
                                                 "regularize", "family"}
