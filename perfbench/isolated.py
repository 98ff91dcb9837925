"""Isolated timings of the public kernels at production sizes.

Each kernel is checked against a scipy oracle at 1e-12 relative error and
timed as the median of repeated calls.  Only the public names of
``radialke.kernels`` are used, whichever implementation backs them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import logsumexp

from radialke import kernels

ROWS = 4096            # solver grid of the regularize workload
NODES, SECTIONS = 11888, 401   # quadrature grid x sections at level 100
REPEAT = 7


def _median_ms(fn, args) -> float:
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Normwise relative error in the sup norm."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def run(seed: int, checks) -> dict[str, float]:
    """Check and time the three kernels; returns ``*.iso_ms`` metrics."""
    rng = np.random.default_rng(seed)
    # a Newton linearization: Neumann rows, negative definite interior.  The
    # density is kept >= 10 so that the system's conditioning, not the
    # difference between Thomas and pivoted LU, sets the agreement (~1e-14).
    h2 = (60.0 / (ROWS - 1)) ** 2
    dl = np.full(ROWS, 1.0 / h2)
    du = np.full(ROWS, 1.0 / h2)
    d = -2.0 / h2 - rng.uniform(10.0, 100.0, ROWS)
    dl[0] = du[-1] = 0.0
    dl[-1] = du[0] = -1.0
    d[0] = d[-1] = 1.0
    b = rng.normal(size=ROWS)
    banded = np.vstack([np.r_[0.0, du[:-1]], d, np.r_[dl[1:], 0.0]])
    checks.expect("kernels.tridiag_solve vs solve_banded",
                  _rel_err(kernels.tridiag_solve(dl, d, du, b),
                           solve_banded((1, 1), banded, b)) <= 1e-12)

    t = np.linspace(-87.0, 87.0, NODES)
    logw = np.full(NODES, np.log(t[1] - t[0]))
    slopes = np.arange(SECTIONS, dtype=np.float64)
    offsets = -np.cumsum(rng.uniform(0.5, 2.0, SECTIONS))
    base = -(SECTIONS + 1.0) * np.logaddexp(0.0, t)
    m = np.outer(t, slopes) + offsets
    checks.expect("kernels.affine_lse_profile vs logsumexp",
                  _rel_err(kernels.affine_lse_profile(t, slopes, offsets),
                           logsumexp(m, axis=1)) <= 1e-12)
    m = m.T + (base + logw)
    checks.expect("kernels.affine_lse_quadrature vs logsumexp",
                  _rel_err(kernels.affine_lse_quadrature(t, logw, slopes,
                                                         offsets, base),
                           logsumexp(m, axis=1)) <= 1e-12)
    del m
    return {
        "kernels.tridiag.iso_ms": _median_ms(kernels.tridiag_solve, (dl, d, du, b)),
        "kernels.lse_profile.iso_ms": _median_ms(
            kernels.affine_lse_profile, (t, slopes, offsets)),
        "kernels.lse_quadrature.iso_ms": _median_ms(
            kernels.affine_lse_quadrature, (t, logw, slopes, offsets, base)),
    }
