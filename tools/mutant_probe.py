"""Mutation probe of the library's verdict thresholds.

Each mutant loosens one constant in a fresh temporary copy of the tree,
then runs the tier-1 suite there with ``-x``.  A mutant the suite passes
is a threshold with no negative control: a check that still passes at a
looser threshold certifies less than it claims.  ``ROUTE_TOL`` is the one
expected survivor while the route check compares a solve with itself.

The ``x10`` mutants loosen a threshold tenfold; they check that a negative
control sits between the threshold and ten times it.

    python tools/mutant_probe.py             # every mutant
    python tools/mutant_probe.py CAP x10     # names containing CAP or x10

Prints one line per mutant, ``caught`` or ``survives``, and exits 1 if any
mutant other than ``ROUTE_TOL`` survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: name -> (module, source text, loosened text); each text occurs once
MUTANTS = {
    "DECAY_GUARD_LOG": ("bergman", "DECAY_GUARD_LOG = math.log(1e-30)",
                        "DECAY_GUARD_LOG = math.log(1e-12)"),
    "guard core width": ("bergman", "core = 12.0 +", "core = 2.0 +"),
    "FLOOR": ("kernels", "FLOOR = -145.0 - 2.0 * CAP", "FLOOR = -60.0 - 2.0 * CAP"),
    "CAP": ("kernels", "CAP = 180.0", "CAP = 170.0"),
    "monotone step": ("bergman", "np.all(steps <= 1e-12)", "np.all(steps <= 1e-3)"),
    "liminf slack": ("bergman", "slack.size - 1)] + 1e-12", "slack.size - 1)] + 1.0"),
    "c_ell end slope": ("bergman", "(d[1] - d[0]) / h > 1e-6", "(d[1] - d[0]) / h > 1e6"),
    "decay margin": ("bergman", "if beta <= 0.05:", "if beta <= 0.0:"),
    "ROUTE_TOL": ("bergman", "ROUTE_TOL = 1e-5", "ROUTE_TOL = 1e-1"),
    "CLOSED_FORM_TOL": ("masolver", "CLOSED_FORM_TOL = 1e-6", "CLOSED_FORM_TOL = 1e-2"),
    "DEFAULT_TOL": ("masolver", "DEFAULT_TOL = 1e-10", "DEFAULT_TOL = 1e-6"),
    "POSITIVITY_TOL": ("family", "POSITIVITY_TOL = 1e-6", "POSITIVITY_TOL = 1e-2"),
    "NS_CONVEXITY_TOL": ("family", "NS_CONVEXITY_TOL = 1e-8", "NS_CONVEXITY_TOL = 1e-2"),
    "RATIO_SLACK": ("ricci", "RATIO_SLACK = 1e-3", "RATIO_SLACK = 1e-1"),
    "TOL_CURV": ("geometry", "TOL_CURV = 1e-9", "TOL_CURV = 1e-3"),
    "STRIDE_TOL": ("bergman", "STRIDE_TOL = 1e-12", "STRIDE_TOL = 1e-8"),
    "CLOSED_FORM_TOL x10": ("masolver", "CLOSED_FORM_TOL = 1e-6", "CLOSED_FORM_TOL = 1e-5"),
    "DEFAULT_TOL x10": ("masolver", "DEFAULT_TOL = 1e-10", "DEFAULT_TOL = 1e-9"),
    "POSITIVITY_TOL x10": ("family", "POSITIVITY_TOL = 1e-6", "POSITIVITY_TOL = 1e-5"),
    "NS_CONVEXITY_TOL x10": ("family", "NS_CONVEXITY_TOL = 1e-8",
                             "NS_CONVEXITY_TOL = 1e-7"),
    "RATIO_SLACK x10": ("ricci", "RATIO_SLACK = 1e-3", "RATIO_SLACK = 1e-2"),
    "TOL_CURV x10": ("geometry", "TOL_CURV = 1e-9", "TOL_CURV = 1e-8"),
    "STRIDE_TOL x10": ("bergman", "STRIDE_TOL = 1e-12", "STRIDE_TOL = 1e-11"),
}
EXPECTED_SURVIVORS = {"ROUTE_TOL"}
#: what the copy of the tree leaves out
SKIP = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", "runs",
        "plots")


def tier1_fails(mutant: tuple[str, str, str] | None = None) -> bool:
    """Whether tier-1 fails on a temporary copy of the tree, in whose
    ``module`` the ``old`` text of ``mutant = (module, old, new)`` is made
    ``new``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tmp, ignore=shutil.ignore_patterns(*SKIP))
        if mutant:
            module, old, new = mutant
            path = os.path.join(tmp, "src", "radialke", module + ".py")
            with open(path) as f:
                text = f.read()
            if text.count(old) != 1:
                raise SystemExit(f"{module}.py: {old!r} does not occur exactly once")
            with open(path, "w") as f:
                f.write(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"))
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                              "-p", "no:cacheprovider"], cwd=tmp, env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return run.returncode != 0


def main(argv: list[str]) -> int:
    if tier1_fails():
        raise SystemExit("tier-1 fails on an unmutated copy of the tree")
    names = [n for n in MUTANTS if not argv or any(a in n for a in argv)]
    survivors = []
    for name in names:
        caught = tier1_fails(MUTANTS[name])
        print(f"{name:22s} {'caught' if caught else 'survives'}", flush=True)
        if not caught:
            survivors.append(name)
    return int(bool(set(survivors) - EXPECTED_SURVIVORS))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
