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

:func:`bergman_step` is the one entry to a level's Gram norms, and one rule
gives their integrands' decay rates: a step refuses a rate <= 0, and the run
driver widens the quadrature grid so that every Gram integrand has decayed
below 1e-30 of its peak at the boundary, verifying this guard on every level.

The run driver integrates on every q-th node of the solve grid.  A Gram
integrand ``exp(j t - kappa_{l-1} - tau + t)`` is smooth and decays fast,
with a peak of width about ``(l p (k - 2))^{-1/2}``, so the trapezoid rule
converges exponentially on it (Trefethen & Weideman, SIAM Review 56, 2014)
and a coarser step loses nothing once it resolves the narrowest peak, that
of the last level.  The stride is the largest divisor q of ``N - 1`` with
``(q h)^2 l_max p (k - 2) <= STRIDE_BUDGET`` and ``q h <= STRIDE_STEP_MAX``.
Measured at level 100, the log Gram norms agree with the full-grid run to
rounding up to a budget of about 2.2.  Below about 20 levels the budget
alone admits steps near 0.5, where the error no longer follows the peak
width (3.9e-12 at level 1 with a step of 0.5); the step cap keeps it at
rounding there.  A strided run certifies itself on the full widened grid at
its last level, against ``STRIDE_TOL``; a grid whose ``N - 1`` has no
fitting divisor runs at q = 1, the full grid, as before.
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
from .kernels import (BlockLayout, LayoutTable, affine_lse_profile,
                      affine_lse_quadrature, block_layout, logsumexp)
from .masolver import ke_problem, solve_ke_ode
from . import ricci as ricci_mod

DECAY_GUARD_LOG = math.log(1e-30)
#: largest ``route_agreement`` (p = 1 target vs direct solve) that passes
ROUTE_TOL = 1e-5
#: t-window on which the renormalized profile is compared with the target
WINDOW = (-10.0, 10.0)
#: bound on ``(q h)^2 l_max p (k - 2)`` for a run's stride q
STRIDE_BUDGET = 2.0
#: bound on a run's step ``q h``, which binds only below about 20 levels
STRIDE_STEP_MAX = 0.3
#: largest relative log-Gram difference between a strided run's last level
#: and the same level redone on the full widened grid that passes
STRIDE_TOL = 1e-12


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


def _ceil_times(n: int, a: Fraction) -> int:
    """``ceil(n a)``, exactly, in integers."""
    return -(-n * a.numerator // a.denominator)


def _window(level: int, p: int, step_degree: int, D: DivisorData) -> SectionBasis:
    """The window rule of :func:`section_range`, from a known step degree."""
    j_min = _ceil_times(level * p, D.zero)
    j_max = level * step_degree - _ceil_times(level * p, D.infinity)
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
    lp = level * chain.p
    frac = lambda a: _ceil_times(lp, a) - lp * a
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
    (None otherwise)."""

    p: int
    divisor: DivisorData
    tau: RadialWeight
    target: RadialWeight
    step_degree: int
    route_agreement: Optional[float]


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

    route = None
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


def _decay_rates(basis: SectionBasis, prev_slopes: tuple[float, float],
                 tau: RadialWeight) -> tuple[float, float]:
    """Decay rates at t -> -inf and t -> +inf of a level's slowest Gram
    integrands, the window's end columns, given the previous kernel's end
    slopes (zero at level 1) and the chain weight ``tau``."""
    return (basis.j_min + 1.0 - prev_slopes[0] - tau.slope_minus,
            -(basis.j_max + 1.0 - prev_slopes[1] - tau.slope_plus))


def _log_gram(basis: SectionBasis, tau: RadialWeight,
              kappa_prev: float | np.ndarray,
              layout: BlockLayout) -> np.ndarray:
    """Log Gram norms of a level: quadrature against the previous kernel
    ``kappa_prev`` (its values on ``tau``'s grid; 0.0 at level 1) times
    ``e^{-tau}`` and ``2 pi e^t dt``; the integrand lives only in this call."""
    t = tau.grid.nodes
    base = -kappa_prev - tau.values + t + math.log(2.0 * math.pi)
    return affine_lse_quadrature(t, tau.grid.log_trapezoid_weights,
                                 basis.exponents, np.zeros(basis.n_sections),
                                 base, layout=layout)


def bergman_step(prev: Optional[BergmanLevel], chain: WeightChain, *,
                 layout: Optional[BlockLayout] = None) -> BergmanLevel:
    """Advance the kernel recursion by one level (``prev=None`` starts at 1).

    The level's Gram matrix is diagonal by rotation symmetry; a level whose
    Gram integrands do not decay at both ends is refused.  ``layout``, if
    given, must be the kernels' layout of the chain's nodes for the level's
    exponents: the Gram quadrature and the kernel profile share it.
    """
    level = 1 if prev is None else prev.level + 1
    basis = _window(level, chain.p, chain.step_degree, chain.divisor)
    prev_slopes = ((0.0, 0.0) if prev is None
                   else (prev.kappa.slope_minus, prev.kappa.slope_plus))
    lo, hi = _decay_rates(basis, prev_slopes, chain.tau)
    if lo <= 0:
        raise ConfigurationError(
            f"gram integrand grows at t -> -inf (slope {lo}) at level {level}")
    if hi <= 0:
        raise ConfigurationError(
            f"gram integrand grows at t -> +inf (slope {-hi}) at level {level}")
    grid = chain.tau.grid
    layout = layout or block_layout(grid.nodes, basis.exponents)
    log_gram = _log_gram(basis, chain.tau,
                         0.0 if prev is None else prev.kappa.values, layout)
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
    """Per-level numbers of a kernel recursion, not its levels.

    ``chain`` is the strided, widened chain the levels ran on: stepping
    :func:`bergman_step` on it reproduces any level bit for bit.
    ``log_gram_ranges`` holds each level's (min, max) log Gram norm.
    ``stride`` is the q whose every q-th solve-grid node the run kept, and
    ``stride_difference`` the largest difference of the last level's log
    Gram norms from the same level redone on the full widened grid, relative
    to their largest magnitude; it is 0.0 at stride 1, where the run grid is
    the full grid."""

    chain: WeightChain
    n_sections: list[int] = field(default_factory=list)
    log_gram_ranges: list[tuple[float, float]] = field(default_factory=list)
    distances: list[float] = field(default_factory=list)
    liminf_slacks: list[float] = field(default_factory=list)
    chain_log_integrals: list[float] = field(default_factory=list)
    c_ells: list[float] = field(default_factory=list)
    guard_margin: float = float("inf")
    stride: int = 1
    stride_difference: float = 0.0

    @property
    def grid(self) -> RadialGrid:
        """The strided, widened quadrature grid the levels ran on."""
        return self.chain.tau.grid

    def chain_slacks(self) -> np.ndarray:
        """Relative overshoot of the integral chain bound, one per level; the
        log bound at level l is the mean of ``log n_sections`` up to l."""
        log_sums = itertools.accumulate(map(math.log, self.n_sections))
        log_bounds = [s / ell for ell, s in enumerate(log_sums, start=1)]
        return np.expm1(np.array(self.chain_log_integrals) - np.array(log_bounds))


def _windows(chain: WeightChain, ell_max: int) -> list[SectionBasis]:
    """The windows of levels 1 to ``ell_max``."""
    return [_window(ell, chain.p, chain.step_degree, chain.divisor)
            for ell in range(1, ell_max + 1)]


def quadrature_halfwidth(chain: WeightChain, ell_max: int) -> float:
    """Half width needed for the 1e-30 decay guard on every Gram integrand.

    The slowest column decays at the minimal end-slope margin of the
    recursion; the peak location is bounded by a fixed core width.
    """
    beta, prev_slopes = math.inf, (0.0, 0.0)
    for b in _windows(chain, ell_max):
        beta = min(beta, *_decay_rates(b, prev_slopes, chain.tau))
        prev_slopes = (float(b.j_min), float(b.j_max))
    if beta <= 0.05:
        raise ConfigurationError(f"decay margin {beta} too small for quadrature")
    core = 12.0 + math.log1p(ell_max * chain.step_degree)
    return core + (-DECAY_GUARD_LOG) / beta


def _stride(grid: RadialGrid, ell_max: int, step_degree: int) -> int:
    """The largest divisor q of ``N - 1`` with ``(q h)^2 l_max step_degree
    <= STRIDE_BUDGET`` and ``q h <= STRIDE_STEP_MAX``, or 1 if no divisor
    above 1 fits."""
    n, h = grid.node_count - 1, grid.spacing
    fits = lambda q: (q * h <= STRIDE_STEP_MAX
                      and (q * h) ** 2 * ell_max * step_degree <= STRIDE_BUDGET)
    top = min(n, int(STRIDE_STEP_MAX / h) + 1)
    return next((q for q in range(top, 1, -1) if n % q == 0 and fits(q)), 1)


def _strided(chain: WeightChain, q: int) -> WeightChain:
    """The chain on every ``q``-th node of its grid, a uniform grid of the
    same half width since ``q`` divides ``N - 1``."""
    if q == 1:
        return chain
    sub = RadialGrid(half_width=chain.tau.grid.half_width,
                     nodes=chain.tau.grid.nodes[::q])
    thin = lambda w: RadialWeight(sub, w.values[::q], w.slope_minus,
                                  w.slope_plus, w.degree)
    return replace(chain, tau=thin(chain.tau), target=thin(chain.target))


def _widened(chain: WeightChain, half_width: float) -> WeightChain:
    """The chain on its grid widened to ``half_width``."""
    return replace(chain, tau=chain.tau.widened(half_width),
                   target=chain.target.widened(half_width))


def _stride_difference(tau: RadialWeight, prev: Optional[BergmanLevel],
                       last: BergmanLevel) -> float:
    """Level ``last`` redone on ``tau``'s grid from ``prev``'s log Gram
    norms: the largest difference of its log Gram norms, relative to their
    largest magnitude.  One profile call (``kappa`` of ``prev`` on the new
    grid) and one quadrature call."""
    t = tau.grid.nodes
    kappa = (0.0 if prev is None
             else affine_lse_profile(t, prev.basis.exponents, -prev.log_gram))
    full = _log_gram(last.basis, tau, kappa, block_layout(t, last.basis.exponents))
    return float(np.max(np.abs(full - last.log_gram))
                 / np.max(np.abs(last.log_gram)))


def run_levels(chain: WeightChain, ell_max: int) -> BergmanRun:
    """Run the kernel recursion to ``ell_max``, holding only the last level.

    The levels run on every q-th node of the chain's grid, widened, with q
    from :func:`_stride` (1, the full grid, if no larger divisor of
    ``N - 1`` fits the budget); ``run.chain`` is that strided, widened chain.
    At q > 1 the run certifies its stride once, at its last level: it
    evaluates ``kappa_{l_max - 1}`` on the full widened grid from its log
    Gram norms and redoes level ``l_max``'s quadrature there
    (``run.stride_difference``, judged by :func:`stride_check`).

    Kept per level, all read on the run's grid: section count, log Gram
    range, sup distance of the renormalized profile to the target on
    ``WINDOW``, one-sided slack below it, integral-chain log integral (the
    bound follows from the section counts) and reference gap.  The decay
    guard is checked on every level.  Every window is known before level 1,
    so the levels read their block layouts from one
    :class:`~radialke.kernels.LayoutTable`, and what does not change with
    the level is computed once: the integrand and guard terms without the
    kernel, and the fractional frame of each residue class of ``l p``
    modulo the divisor's denominators.
    """
    if ell_max < 1:
        raise ConfigurationError(f"ell_max must be >= 1, got {ell_max}")
    half_width = quadrature_halfwidth(chain, ell_max)
    q = _stride(chain.tau.grid, ell_max, chain.step_degree)
    chain_w = _widened(_strided(chain, q), half_width)
    run = BergmanRun(chain_w, stride=q)
    wide = chain_w.tau.grid
    t = wide.nodes
    table = LayoutTable(t, [(b.j_min, b.j_max) for b in _windows(chain_w, ell_max)])
    inside = np.flatnonzero(wide.window(*WINDOW))
    win = slice(inside[0], inside[-1] + 1)
    target = chain_w.target.values
    t_tau = t - chain_w.tau.values
    chain_terms = t_tau + math.log(2.0 * math.pi) + wide.log_trapezoid_weights
    D = chain_w.divisor
    period = math.lcm(D.zero.denominator, D.infinity.denominator)
    frames: dict[int, np.ndarray] = {}
    prev = before = None
    for ell in range(1, ell_max + 1):
        lv = bergman_step(prev, chain_w, layout=table.layout(ell - 1))
        run.n_sections.append(lv.basis.n_sections)
        run.log_gram_ranges.append((float(np.min(lv.log_gram)),
                                    float(np.max(lv.log_gram))))
        # decay guard: slowest columns sit at the window ends
        rest = t_tau if prev is None else t_tau - prev.kappa.values
        for j in (lv.basis.j_min, lv.basis.j_max):
            col = j * t + rest
            peak = float(np.max(col))
            margin = peak - max(float(col[0]), float(col[-1])) + DECAY_GUARD_LOG
            run.guard_margin = min(run.guard_margin, margin)
        if run.guard_margin < 0:
            raise ConfigurationError(
                f"quadrature decay guard violated at level {ell}; widen the grid")
        diff = renormalized_profile(lv) - target
        run.distances.append(float(np.max(np.abs(diff[win]))))
        run.liminf_slacks.append(max(0.0, -float(np.min(diff))))
        # integral chain, all three factors against the same nodal measure
        run.chain_log_integrals.append(logsumexp(lv.kappa.values / ell + chain_terms))
        residue = ell * chain_w.p % period
        if residue not in frames:
            frames[residue] = frac_frame_log(ell, chain_w)
        run.c_ells.append(c_ell_diagnostic(lv, ell * target + frames[residue]))
        before, prev = prev, lv
    if q > 1:
        run.stride_difference = _stride_difference(chain.tau.widened(half_width),
                                                   before, prev)
    return run


def stride_check(run: BergmanRun) -> dict:
    """Verdict on a run's stride: its certificate within ``STRIDE_TOL``."""
    return {"stride": run.stride,
            "max_relative_log_gram_difference": run.stride_difference,
            "tolerance": STRIDE_TOL,
            "holds": run.stride_difference <= STRIDE_TOL}


def convergence_check(run: BergmanRun, monotone_from: int = 20) -> dict:
    """Decay certificate for a finished run of the singular chain.

    Requires at least three levels; reports the final distance, whether the
    distance trace decreases monotonically from ``monotone_from`` on, the
    one-sided slack trend below the target, and ``decay_order``: the
    least-squares slope of ``-log(distance)`` against ``log(level)`` over the
    same tail (None with fewer than three points there).
    """
    if len(run.distances) < 3:
        raise ConfigurationError("convergence check needs at least three levels")
    d = np.array(run.distances)
    start = min(monotone_from, len(d)) - 1
    steps = np.diff(d[start:])
    monotone = bool(np.all(steps <= 1e-12)) if steps.size else True
    slack = np.array(run.liminf_slacks)
    order = None
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
