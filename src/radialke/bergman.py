"""Bergman kernel iteration in the rotation-invariant monomial basis.

At level ``l`` the section space of the iterated adjoint bundle, of degree
``l p (k - 2)``, is spanned by monomials ``z^j`` whose exponents run over an
integer window cut by the divisor vanishing orders.  A chain checks once
that its step degree ``p (k - 2)`` is a positive integer, and every level's
window follows from it.  Rotation invariance makes every Gram matrix
diagonal, so one level is a vector of log Gram norms plus the convex
log-kernel profile

    kappa_l(t) = log sum_j exp(j t - log G_j).

The recursion feeds ``kappa_l`` back into the next level's inner product
together with the fixed chain weight ``tau``; renormalized profiles
``(kappa_l - log l!) / l`` converge to the step weight plus the rescaled
canonical divisor weight.  Chains run on the singular weights only, the
divisor entering through its point masses; regularization belongs to the
direct and p-step solves.  Everything is kept in log scale; Gram norms span
hundreds of orders of magnitude by level 200.

Quadrature runs on a widened copy of the working grid so that every Gram
integrand has decayed below 1e-30 of its peak at the boundary; the driver
verifies this guard on every level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .geometry import (DivisorData, RadialGrid, RadialWeight,
                       divisor_frame_log, divisor_log_weight, readonly_array)
from .kernels import (BlockLayout, affine_lse_profile, affine_lse_quadrature,
                      block_layout, logsumexp)
from .masolver import ke_problem, solve_ke_ode
from . import ricci as ricci_mod

DECAY_GUARD_LOG = math.log(1e-30)
#: largest ``route_agreement`` (p = 1 target vs direct solve) that passes
ROUTE_TOL = 1e-5
#: t-window on which the renormalized profile is compared with the target
WINDOW = (-10.0, 10.0)


# ---------------------------------------------------------------------------
# section bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectionBasis:
    """Monomial exponent window of one level and the degree of its bundle."""

    level: int
    j_min: int
    j_max: int
    degree: int

    @property
    def n_sections(self) -> int:
        return self.j_max - self.j_min + 1

    @property
    def exponents(self) -> np.ndarray:
        return np.arange(self.j_min, self.j_max + 1, dtype=np.float64)


def _step_degree(p: int, k: float) -> int:
    """``p (k - 2)``, the degree each level adds: a positive integer."""
    d1 = Fraction(p) * (Fraction(k).limit_denominator(10**9) - 2)
    if d1.denominator != 1 or d1 <= 0:
        raise ConfigurationError(
            f"level bundle degree p*(k-2) = {d1} must be a positive integer")
    return int(d1)


def _window(level: int, p: int, step_degree: int, D: DivisorData) -> SectionBasis:
    """The window rule of :func:`section_range`, from a known step degree."""
    lp = Fraction(level * p)
    j_min = int(math.ceil(lp * D.coefficient("zero")))
    j_max = level * step_degree - int(math.ceil(lp * D.coefficient("infinity")))
    if j_max < j_min:
        raise ConfigurationError(
            f"empty section space at level {level}: window [{j_min}, {j_max}]")
    return SectionBasis(level, j_min, j_max, level * step_degree)


def section_range(level: int, p: int, k: float,
                  D: DivisorData | None = None) -> SectionBasis:
    """Exponent window at a level: sections vanish on the scaled divisor.

    Lower end is the ceiling of the vanishing order at zero, upper end the
    level degree minus the ceiling at infinity.
    """
    if level < 1:
        raise ConfigurationError(f"level must be >= 1, got {level}")
    return _window(level, p, _step_degree(p, k), D or DivisorData())


def frac_frame_log(level: int, chain: "WeightChain") -> np.ndarray:
    """Fractional-part frame profile of a level, on the chain's grid.

    For each divisor point the exponent is ``ceil(l p a) - l p a``, applied
    to the Fubini-Study frame norm.
    """
    lp = Fraction(level * chain.p)
    frac = lambda a: math.ceil(lp * a) - lp * a
    D = chain.divisor
    return divisor_frame_log(DivisorData(zero=frac(D.zero), infinity=frac(D.infinity)),
                             chain.tau.grid)


# ---------------------------------------------------------------------------
# weight chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightChain:
    """Fixed data of one kernel recursion: the inner-product weight ``tau``
    built from the previous singular iteration step and the convergence
    target, both on the chain's grid, the degree ``p (k - 2)`` each level
    adds, and at ``p = 1`` the target's sup distance to a direct solve
    (NaN otherwise)."""

    p: int
    divisor: DivisorData
    tau: RadialWeight
    target: RadialWeight
    step_degree: int
    route_agreement: float


def build_chain(k: float, D: DivisorData | None = None, p: int = 1,
                m: int = 1, grid: RadialGrid | None = None, *,
                twist: RadialWeight | None = None) -> WeightChain:
    """Assemble the level-recursion weights for outer step ``m``.

    Runs the p-step iteration to ``m - 1`` for the chain weight and one step
    further for the target.  With ``p = 1`` every step solves the direct
    equation, and the target is cross-checked against an independent direct
    solve; the sup distance is stored as ``route_agreement``.
    """
    if m < 1:
        raise ConfigurationError(f"outer index m must be >= 1, got {m}")
    step_degree = _step_degree(p, k)
    state = ricci_mod.initial_state(k, D, p, grid, twist=twist)
    for _ in range(m - 1):
        state = ricci_mod.ricci_step(state)
    w_prev = state.weight
    state = ricci_mod.ricci_step(state)
    w_m = state.weight

    D, grid = state.problem.divisor, state.problem.grid
    div_weight = divisor_log_weight(D, grid)
    tau = (w_prev.scaled((p - 1) / p) + div_weight.scaled(float(p - 1))
           + state.problem.recipe.twist).shifted(-math.log(p))
    target = w_m + div_weight.scaled(float(p))

    route = float("nan")
    if p == 1:
        ke = solve_ke_ode(ke_problem(k, D, grid, twist=twist))
        route = float(np.max(np.abs(target.values - ke.solution.values)))
    return WeightChain(int(p), D, tau, target, step_degree, route)


# ---------------------------------------------------------------------------
# levels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BergmanLevel:
    basis: SectionBasis
    log_gram: np.ndarray
    kappa: RadialWeight

    def __post_init__(self):
        object.__setattr__(self, "log_gram", readonly_array(self.log_gram))

    @property
    def level(self) -> int:
        return self.basis.level


def gram_diagonal(basis: SectionBasis, chain: WeightChain,
                  prev: Optional[BergmanLevel] = None, *,
                  layout: Optional[BlockLayout] = None) -> np.ndarray:
    """Log Gram norms of the monomial sections at one level.

    The inner product weight is the previous kernel times ``e^{-tau}``; the
    measure picks up the canonical ``2 pi e^t dt`` pairing.  Off-diagonal
    entries vanish identically by rotation symmetry and are not computed.
    ``layout``, if given, is the kernels' block layout of the chain's nodes
    for the basis exponents.
    """
    grid = chain.tau.grid
    t = grid.nodes
    kappa_prev = np.zeros(t.size) if prev is None else prev.kappa.values
    s_min_prev = 0.0 if prev is None else prev.kappa.slope_minus
    s_max_prev = 0.0 if prev is None else prev.kappa.slope_plus

    lo = basis.j_min + 1.0 - s_min_prev - chain.tau.slope_minus
    hi = basis.j_max + 1.0 - s_max_prev - chain.tau.slope_plus
    if lo <= 0:
        raise ConfigurationError(
            f"gram integrand grows at t -> -inf (slope {lo}) at level {basis.level}")
    if hi >= 0:
        raise ConfigurationError(
            f"gram integrand grows at t -> +inf (slope {hi}) at level {basis.level}")

    base = -kappa_prev - chain.tau.values + t + math.log(2.0 * math.pi)
    return affine_lse_quadrature(t, grid.log_trapezoid_weights, basis.exponents,
                                 np.zeros(basis.n_sections), base, layout=layout)


def bergman_step(prev: Optional[BergmanLevel], chain: WeightChain) -> BergmanLevel:
    """Advance the kernel recursion by one level (``prev=None`` starts at 1).

    The Gram quadrature and the kernel profile run on the same nodes and
    exponents, so they share one block layout.
    """
    level = 1 if prev is None else prev.level + 1
    basis = _window(level, chain.p, chain.step_degree, chain.divisor)
    grid = chain.tau.grid
    layout = block_layout(grid.nodes, basis.exponents)
    log_gram = gram_diagonal(basis, chain, prev, layout=layout)
    kappa_vals = affine_lse_profile(grid.nodes, basis.exponents, -log_gram,
                                    layout=layout)
    kappa = RadialWeight(grid, kappa_vals, float(basis.j_min),
                         float(basis.j_max), float(basis.degree))
    return BergmanLevel(basis, log_gram, kappa)


def renormalized_profile(level: BergmanLevel) -> np.ndarray:
    """``(kappa_l - log l!) / l``, the profile that converges to the target."""
    ell = level.level
    return (level.kappa.values - math.lgamma(ell + 1)) / ell


def c_ell_diagnostic(level: BergmanLevel, reference: np.ndarray) -> float:
    """Log gap between the kernel and a scaled reference profile.

    ``reference`` must be the level-scaled target plus the fractional frame,
    with matching end slopes; if the infimum escapes to the grid boundary the
    reference is rejected as slope-inconsistent.
    """
    reference = np.asarray(reference, dtype=np.float64)
    d = level.kappa.values - reference
    h = level.kappa.grid.spacing
    imin = int(np.argmin(d))
    if imin == 0 and (d[1] - d[0]) / h > 1e-6:
        raise ConfigurationError("reference slope mismatch at t -> -inf; "
                                 "infimum escapes the grid")
    if imin == d.size - 1 and (d[-1] - d[-2]) / h < -1e-6:
        raise ConfigurationError("reference slope mismatch at t -> +inf; "
                                 "infimum escapes the grid")
    return float(d[imin])


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

@dataclass
class BergmanRun:
    """Per-level numbers of a kernel recursion on the widened chain, not its
    levels: stepping :func:`bergman_step` on ``chain`` reproduces any level.
    ``log_gram_ranges`` holds each level's (min, max) log Gram norm."""

    chain: WeightChain
    n_sections: list[int] = field(default_factory=list)
    log_gram_ranges: list[tuple[float, float]] = field(default_factory=list)
    distances: list[float] = field(default_factory=list)
    liminf_slacks: list[float] = field(default_factory=list)
    chain_log_integrals: list[float] = field(default_factory=list)
    c_ells: list[float] = field(default_factory=list)
    guard_margin: float = float("inf")

    @property
    def grid(self) -> RadialGrid:
        """The widened quadrature grid the chain was resampled on."""
        return self.chain.tau.grid

    def chain_slacks(self) -> np.ndarray:
        """Relative overshoot of the integral chain bound, one per level; the
        log bound at level l is the mean of ``log n_sections`` up to l."""
        log_sums = itertools.accumulate(map(math.log, self.n_sections))
        log_bounds = [s / ell for ell, s in enumerate(log_sums, start=1)]
        return np.expm1(np.array(self.chain_log_integrals) - np.array(log_bounds))


def quadrature_halfwidth(chain: WeightChain, ell_max: int) -> float:
    """Half width needed for the 1e-30 decay guard on every Gram integrand.

    The slowest column decays at the minimal end-slope margin of the
    recursion; the peak location is bounded by a fixed core width.
    """
    beta_lo, beta_hi = math.inf, math.inf
    prev_lo, prev_hi = 0.0, 0.0
    for ell in range(1, ell_max + 1):
        b = _window(ell, chain.p, chain.step_degree, chain.divisor)
        beta_lo = min(beta_lo, b.j_min + 1.0 - prev_lo - chain.tau.slope_minus)
        beta_hi = min(beta_hi, -(b.j_max + 1.0 - prev_hi - chain.tau.slope_plus))
        prev_lo, prev_hi = float(b.j_min), float(b.j_max)
    beta = min(beta_lo, beta_hi)
    if beta <= 0.05:
        raise ConfigurationError(f"decay margin {beta} too small for quadrature")
    core = 12.0 + math.log1p(ell_max * chain.step_degree)
    return core + (-DECAY_GUARD_LOG) / beta


def run_levels(chain: WeightChain, ell_max: int) -> BergmanRun:
    """Run the kernel recursion to ``ell_max``, holding only the last level.

    Kept per level: section count, log Gram range, sup distance of the
    renormalized profile to the target on ``WINDOW``, one-sided slack below
    it, integral-chain log integral (the bound follows from the section
    counts) and reference gap.  The decay guard is checked on every level.
    """
    if ell_max < 1:
        raise ConfigurationError(f"ell_max must be >= 1, got {ell_max}")
    wide = chain.tau.grid.widened(quadrature_halfwidth(chain, ell_max))
    chain_w = replace(chain, tau=chain.tau.resampled(wide),
                      target=chain.target.resampled(wide))
    run = BergmanRun(chain_w)
    t = wide.nodes
    logw = wide.log_trapezoid_weights
    win = wide.window(*WINDOW)
    target = chain_w.target.values
    prev = None
    for ell in range(1, ell_max + 1):
        lv = bergman_step(prev, chain_w)
        run.n_sections.append(lv.basis.n_sections)
        run.log_gram_ranges.append((float(np.min(lv.log_gram)),
                                    float(np.max(lv.log_gram))))
        # decay guard: slowest columns sit at the window ends
        prev_kappa = np.zeros(t.size) if prev is None else prev.kappa.values
        for j in (lv.basis.j_min, lv.basis.j_max):
            col = j * t - prev_kappa - chain_w.tau.values + t
            peak = float(np.max(col))
            margin = peak - max(float(col[0]), float(col[-1])) + DECAY_GUARD_LOG
            run.guard_margin = min(run.guard_margin, margin)
        if run.guard_margin < 0:
            raise ConfigurationError(
                f"quadrature decay guard violated at level {ell}; widen the grid")
        r = renormalized_profile(lv)
        diff = r[win] - target[win]
        run.distances.append(float(np.max(np.abs(diff))))
        run.liminf_slacks.append(max(0.0, -float(np.min(r - target))))
        # integral chain, all three factors against the same nodal measure
        log_i = logsumexp(lv.kappa.values / ell - chain_w.tau.values + t
                          + math.log(2.0 * math.pi) + logw)
        run.chain_log_integrals.append(log_i)
        ref = ell * target + frac_frame_log(ell, chain_w)
        run.c_ells.append(c_ell_diagnostic(lv, ref))
        prev = lv
    return run


def convergence_check(run: BergmanRun, monotone_from: int = 20) -> dict:
    """Decay certificate for a finished run of the singular chain.

    Requires at least three levels; reports the final distance, whether the
    distance trace decreases monotonically from ``monotone_from`` on, the
    one-sided slack trend below the target, and ``decay_order``: the
    least-squares slope of ``-log(distance)`` against ``log(level)`` over the
    same tail (NaN with fewer than three points there).
    """
    if len(run.distances) < 3:
        raise ConfigurationError("convergence check needs at least three levels")
    d = np.array(run.distances)
    start = min(monotone_from, len(d)) - 1
    steps = np.diff(d[start:])
    monotone = bool(np.all(steps <= 1e-12)) if steps.size else True
    slack = np.array(run.liminf_slacks)
    order = float("nan")
    if d.size - start >= 3:
        ells = np.arange(start + 1, d.size + 1)
        order = float(np.polyfit(np.log(ells), -np.log(d[start:]), 1)[0])
    return {
        "final_distance": float(d[-1]),
        "monotone_from": monotone_from,
        "monotone": monotone,
        "max_distance_after": float(np.max(d[start:])),
        "final_liminf_slack": float(slack[-1]),
        "liminf_decreasing": bool(slack[-1] <= slack[min(start, slack.size - 1)] + 1e-12),
        "route_agreement": run.chain.route_agreement,
        "decay_order": order,
    }


def integral_chain_check(run: BergmanRun, rel_tol: float = 1e-8) -> dict:
    """Finite-level integral bound certificate.

    The chained quadrature inequality is exact for the discrete sums, so any
    overshoot beyond rounding is an implementation error; the certificate
    reports the worst relative slack and the exact section-count formula
    check for empty divisors.
    """
    slack = run.chain_slacks()
    counts = np.array(run.n_sections)
    d1 = run.chain.step_degree
    ells = np.arange(1, counts.size + 1)
    exact_counts = None
    if run.chain.divisor.is_empty:
        exact_counts = bool(np.all(counts == ells * d1 + 1))
    return {
        "max_relative_slack": float(np.max(slack)),
        "holds": bool(np.max(slack) <= rel_tol),
        "count_formula_exact": exact_counts,
        "asymptote": d1,
        "final_integral": float(math.exp(run.chain_log_integrals[-1] -
                                         math.lgamma(counts.size + 1) / counts.size)),
    }
