"""Hot numeric kernels, in plain numpy.

Everything downstream funnels its inner loops through three operations:

``tridiag_solve``
    Thomas elimination for the Newton linearizations of the radial
    Monge-Ampere equation.  No pivoting; the systems are weakly diagonally
    dominant by construction (negative definite interior plus Neumann rows).
    The sweep is sequential, so it runs on Python floats, not numpy scalars:
    about four times faster, and bitwise the same elimination.

``affine_lse_profile``
    ``out[i] = log sum_j exp(slopes[j] * t[i] + offsets[j])``, the log-kernel
    profile of a rotation-invariant Bergman kernel in its monomial basis.

``affine_lse_quadrature``
    ``out[j] = log sum_i exp(slopes[j] * t[i] + offsets[j] + base[i] + logw[i])``,
    a whole batch of exponentially weighted trapezoid integrals in log scale.
    Gram norms span hundreds of orders of magnitude at high level, so linear
    scale is never used.

The test suite checks each kernel against a dense or direct oracle at 1e-12
relative tolerance.
"""

from __future__ import annotations

import numpy as np


def tridiag_solve(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system by the Thomas algorithm.

    ``dl[i]`` multiplies ``x[i-1]`` (``dl[0]`` unused), ``du[i]`` multiplies
    ``x[i+1]`` (``du[-1]`` unused); ``b`` is read as float64, no input is
    modified.  Python floats are IEEE doubles and each step is the float64
    elimination's operation in its order, so the result is bitwise the same.
    A zero pivot raises ``ZeroDivisionError``.
    """
    c, dd = du.tolist(), d.tolist()
    x = np.asarray(b, dtype=np.float64).tolist()
    piv, y = dd[0], x[0]
    for i, (a, cl) in enumerate(zip(dl.tolist()[1:], c), 1):
        m = a / piv
        dd[i] = piv = dd[i] - m * cl
        x[i] = y = x[i] - m * y
    x[-1] = y = y / piv
    for i in range(len(x) - 2, -1, -1):
        x[i] = y = (x[i] - c[i] * y) / dd[i]
    return np.array(x)


def affine_lse_profile(t: np.ndarray, slopes: np.ndarray,
                       offsets: np.ndarray) -> np.ndarray:
    m = np.outer(t, slopes) + offsets[None, :]
    mx = m.max(axis=1)
    return mx + np.log(np.exp(m - mx[:, None]).sum(axis=1))


def affine_lse_quadrature(t: np.ndarray, logw: np.ndarray,
                          slopes: np.ndarray, offsets: np.ndarray,
                          base: np.ndarray) -> np.ndarray:
    m = np.outer(slopes, t) + offsets[:, None] + (base + logw)[None, :]
    mx = m.max(axis=1)
    return mx + np.log(np.exp(m - mx[:, None]).sum(axis=1))


def logsumexp(values: np.ndarray) -> float:
    """Stable log(sum(exp(values))) of a 1-d array."""
    mx = float(np.max(values))
    if not np.isfinite(mx):
        return mx
    return mx + float(np.log(np.sum(np.exp(values - mx))))
