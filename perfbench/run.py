#!/usr/bin/env python3
"""radialke benchmark: one workload per process, certified results.

    python3 perfbench/run.py --workload iterate --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  With
``--trace 0`` the run times whole workload passes with no instrumentation
and prints the end-to-end metrics.  With ``--trace 1`` it alternates
untraced and traced passes, then times the isolated kernels, and prints the
per-layer metrics.  Human-readable lines come first, then one JSON line
with the environment stamp, then the result as the last line.  The exit
code is 0 only if every check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned before numpy is imported: BLAS reads these once, at load time.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7
MIN_PASSES = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("iterate", "bergman", "regularize", "family"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, build inputs, warm up, exit (setup_s sample)")
    return ap.parse_args(argv)


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    git = ["git", "-C", str(ROOT)]
    try:
        commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
        dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(dirty.strip())}


def environment_stamp(seed: int) -> dict:
    import numpy as np
    from radialke import CONVENTIONS_HASH

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "conventions_hash": CONVENTIONS_HASH,
        "git": _git_state(),
        "seed": seed,
    }


def _time_passes(run_pass, budget: float, min_passes: int) -> list[float]:
    """Run passes back to back while the next one still fits the budget."""
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_pass()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if (len(durations) >= min_passes
                and elapsed + statistics.median(durations) > budget):
            break
    return durations


def _setup_sample(workload: str, seed: int) -> float:
    """Wall seconds of a fresh process: interpreter, import, inputs, warm-up."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(seed), "--setup-only"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes=None) -> tuple[dict, list[str]]:
    """Run one benchmark; returns the result object and the failure list."""
    import workloads as wl_mod

    wl = wl_mod.WORKLOADS[workload]
    sizes = sizes or wl_mod.FULL
    inp = wl.draw(seed, sizes)
    wl.warmup(inp)
    planned = wl.planned(inp)
    checks = wl_mod.Checks()

    def run_pass() -> None:
        before = checks.attempted
        try:
            wl.run(inp, checks)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            checks.prevented(planned - (checks.attempted - before),
                             f"{workload}: {type(exc).__name__}: {exc}")

    if not trace:
        setup = [_setup_sample(workload, seed) for _ in range(SETUP_SAMPLES)]
        durations = _time_passes(run_pass, seconds, MIN_PASSES)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (statistics.median(durations), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "pass_ratio": ((checks.attempted - checks.failed) / checks.attempted,
                           "ratio"),
            "ref_margin_digits": (min(checks.margins, default=0.0), "digits"),
        }
        notes = [f"run_s samples: {len(durations)}  "
                 f"passes: {' '.join(f'{d:.3f}' for d in durations)}"]
    else:
        import isolated
        import tracing

        untraced: list[float] = []
        traced: list[float] = []
        per_pass: list[dict] = []

        def alternate() -> None:
            """Untraced and traced passes take turns, so drift hits both."""
            if len(untraced) <= len(traced):
                t0 = time.perf_counter()
                run_pass()
                untraced.append(time.perf_counter() - t0)
                return
            tracer = tracing.Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter()
                run_pass()
                traced.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            per_pass.append(tracer.metrics())

        _time_passes(alternate, seconds, 2)
        traced_s = statistics.median(traced)
        layer = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        layer.update(isolated.run(seed, checks))
        layer["trace.run_s"] = traced_s
        layer["trace.overhead_s"] = traced_s - statistics.median(untraced)
        metrics = {k: (v, tracing.unit(k)) for k, v in layer.items()}
        notes = [f"untraced passes: {' '.join(f'{d:.3f}' for d in untraced)}  "
                 f"traced passes: {' '.join(f'{d:.3f}' for d in traced)}"]
        notes += [f"  {k:<34} {v:8.1%} of traced pass" for k, v in
                  sorted(((k, v / traced_s) for k, v in layer.items()
                          if k.endswith("self_s")), key=lambda kv: -kv[1])]

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, notes + [f"FAILED: {f}" for f in checks.failures]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "radialke" / "__init__.py").is_file():
        print(f"radialke sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_only:
        import workloads
        wl = workloads.WORKLOADS[args.workload]
        wl.warmup(wl.draw(args.seed, workloads.FULL))
        return 0

    result, notes = measure(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in result["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"  checks: {result['attempted']} attempted, {result['failed']} failed")
    for line in notes:
        print(line)
    print(json.dumps({"stamp": environment_stamp(args.seed)}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
