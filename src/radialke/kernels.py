"""Hot numeric kernels, in plain numpy.

Everything downstream funnels its inner loops through three operations:

``tridiag_solve``
    Thomas elimination for the Newton linearizations of the radial
    Monge-Ampere equation.  No pivoting; the systems are weakly diagonally
    dominant by construction (negative definite interior plus Neumann rows).

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
    ``x[i+1]`` (``du[-1]`` unused).
    """
    n = d.shape[0]
    c = du.copy()
    dd = d.copy()
    x = b.astype(np.float64, copy=True)
    for i in range(1, n):
        m = dl[i] / dd[i - 1]
        dd[i] -= m * c[i - 1]
        x[i] -= m * x[i - 1]
    x[n - 1] /= dd[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (x[i] - c[i] * x[i + 1]) / dd[i]
    return x


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
