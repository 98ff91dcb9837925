"""Tests of the benchmark itself: metric contract, tracing, failure counting.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import radialke
from radialke import bergman, family, kernels, masolver
from radialke.errors import ConvergenceError
from radialke.geometry import make_grid

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_and_passes(name, trace):
    result, notes = run.measure(name, 3, 0.0, trace, workloads.TINY)
    declared = _declared("per_layer" if trace else "end_to_end")
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    assert emitted == declared
    assert result["failed"] == 0, notes
    assert result["correct"] is True
    if not trace:
        assert result["metrics"]["pass_ratio"]["value"] == 1.0
        wl = workloads.WORKLOADS[name]
        assert result["attempted"] % wl.planned(wl.draw(3, workloads.TINY)) == 0


def test_workload_names_match_contract():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 0.5

    def inner():
        clock.now += 1.5
        leaf()

    def outer():
        clock.now += 1.0
        inner()
        clock.now += 3.0
        inner()

    leaf = tracer.wrap("leaf", leaf)
    inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    s = tracer.stats
    assert s["outer"] == {"calls": 1, "self": 4.0, "total": 8.0}
    assert s["inner"] == {"calls": 2, "self": 3.0, "total": 4.0}
    assert s["leaf"] == {"calls": 2, "self": 1.0, "total": 1.0}
    assert sum(v["self"] for v in s.values()) == s["outer"]["total"]


def test_self_time_survives_an_exception():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def boom():
        clock.now += 2.0
        raise ValueError

    boom = tracer.wrap("boom", boom)

    def outer():
        clock.now += 1.0
        with pytest.raises(ValueError):
            boom()

    tracer.wrap("outer", outer)()
    assert tracer.stats["outer"]["self"] == 1.0
    assert tracer.stats["boom"]["total"] == 2.0


def test_install_patches_imported_copies_and_uninstall_restores():
    originals = {(m, a): getattr(m, a) for m, a in (
        (masolver, "tridiag_solve"), (bergman, "affine_lse_profile"),
        (family, "solve_ke_ode"), (kernels, "tridiag_solve"))}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (m, a), fn in originals.items():
            assert getattr(m, a) is not fn and getattr(m, a).__wrapped__ is fn
        rep = masolver.solve_ke_ode(masolver.ke_problem(4.0, grid=make_grid(30.0, 257)))
    finally:
        tracer.uninstall()
    for (m, a), fn in originals.items():
        assert getattr(m, a) is fn
    wrapped = [f"{name}.{attr}" for name, mod in sys.modules.items()
               if name.startswith("radialke") for attr, v in vars(mod).items()
               if hasattr(v, "__wrapped__") and callable(v)]
    assert wrapped == []
    got = tracer.metrics()
    assert got["masolver.solve.calls"] == 1
    assert got["masolver.newton_iters"] == rep.iterations
    assert got["kernels.tridiag.calls"] == rep.iterations + 1
    assert got["kernels.tridiag.rows"] == 257 * (rep.iterations + 1)


def test_wrong_expectation_counts_as_failure(monkeypatch):
    monkeypatch.setattr(workloads, "CONTROL_SHOULD_PASS", True)
    result, notes = run.measure("family", 3, 0.0, False, workloads.TINY)
    assert result["failed"] > 0 and result["correct"] is False
    assert result["metrics"]["pass_ratio"]["value"] < 1.0
    assert any("control" in line for line in notes)


def test_exception_fails_every_check_it_prevented(monkeypatch):
    def diverge(*args, **kwargs):
        raise ConvergenceError("injected")

    monkeypatch.setattr(workloads, "regularized_diagonal", diverge)
    result, _ = run.measure("regularize", 3, 0.0, False, workloads.TINY)
    # in every pass the oracle check ran and the exception prevented six
    passes = result["attempted"] // 7
    assert passes >= 1 and result["attempted"] == 7 * passes
    assert result["failed"] == 6 * passes


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "iterate", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_stamp_names_the_environment():
    stamp = run.environment_stamp(7)
    assert stamp["seed"] == 7 and stamp["blas_threads"] == run.BLAS_THREADS
    assert stamp["conventions_hash"] == radialke.CONVENTIONS_HASH
    assert set(stamp) >= {"nproc", "python", "numpy", "scipy",
                          "numba_importable", "blas", "git"}
