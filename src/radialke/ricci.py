"""The p-step iteration toward the twisted Kahler-Einstein weight.

Starting from ``w_0 = p * phi_A`` on the rescaled semiample class, each step
solves the coupled Monge-Ampere equation with coupling ``(p-1)/p`` against
the previous total weight.  Successive sup-norm gaps contract at least by
``(p-1)/p``; the limit, rescaled by ``1/p``, solves the same limit equation
for every ``p`` and recovers the singular Kahler-Einstein weight once the
canonical divisor part is added back.

Only the previous iterate changes between steps, so a chain assembles its
step problem once and each step hands it on with the new iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .geometry import (DivisorData, RadialGrid, RadialWeight,
                       divisor_log_weight, lelong_numbers)
from .masolver import (DEFAULT_TOL, POLY_POINTS, MAProblem, SolveReport,
                       newton_residual, polynomial_start, ricci_problem,
                       solve_ke_ode)

RATIO_SLACK = 1e-3
DEFAULT_STOP = 1e-10


@dataclass(frozen=True)
class RicciState:
    """Iteration state at step m: ``problem``, the next step's, coupled against
    ``weight`` (its ``prev``), the total weight on the rescaled class at step
    m.  The problem holds the chain's inputs (``recipe.k``, ``recipe.p``, raw
    ``recipe.twist``, ``divisor``, ``grid``, ``eps``, ``delta``)."""

    m: int
    problem: MAProblem
    report: Optional[SolveReport] = None
    #: values of the (at most ``POLY_POINTS - 1``) weights before ``weight``,
    #: oldest first
    earlier: tuple[np.ndarray, ...] = ()

    @property
    def weight(self) -> RadialWeight:
        return self.problem.prev


@dataclass
class RicciTrace:
    """Per-step ``gaps`` between successive weights, ``SolveReport.integral``
    and residuals of a p-step run; ``bound`` is its largest admitted ratio."""

    bound: float
    gaps: list[float] = field(default_factory=list)
    norm_integrals: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)

    @property
    def ratios(self) -> list[float]:
        """Contraction ratio ``gap_m / gap_{m-1}`` of each step m >= 2."""
        return [b / a for a, b in zip(self.gaps, self.gaps[1:])]

    @property
    def violations(self) -> list[int]:
        """The steps m >= 2 whose contraction ratio exceeds ``bound``."""
        return [m for m, r in enumerate(self.ratios, start=2) if r > self.bound]

    def rows(self) -> list[tuple]:
        """``(m, gap, ratio, norm_integral, residual)`` per step; no ratio at m = 1."""
        ratios = [float("nan")] + self.ratios
        return list(zip(range(1, len(self.gaps) + 1), self.gaps, ratios,
                        self.norm_integrals, self.residuals))


def initial_state(k: float, divisor: DivisorData | None = None, p: int = 1,
                  grid: RadialGrid | None = None, *, eps: float = 0.0,
                  delta: float = 0.0,
                  twist: RadialWeight | None = None) -> RicciState:
    """m = 0 state: the chain's one :func:`ricci_problem`, coupled against
    its own background ``w_0 = p * phi_A``."""
    return RicciState(0, ricci_problem(k, divisor, p, grid=grid, eps=eps,
                                       delta=delta, twist=twist))


def ricci_step(state: RicciState, tol: float = DEFAULT_TOL) -> RicciState:
    """Advance the iteration by one solve against the current weight.

    The solve starts from the :func:`polynomial_start` through the weights
    so far, as corrections to the step's background, in ``c^m`` with ``c``
    the coupling ``(p-1)/p``: the constant mode of the iteration is affine
    in ``c^m``.  That is 0 at m = 0; at ``p = 1`` every ``c^m`` with
    m >= 1 is 0, so each later step starts from the previous solution.  The
    next state's problem is this step's, coupled against the new weight.
    """
    prob = state.problem
    chain = state.earlier + (state.weight.values,)
    c = prob.coupling
    first = state.m + 1 - len(chain)
    v0 = polynomial_start([w - prob.background.values for w in chain],
                          [c ** j for j in range(first, state.m + 1)],
                          c ** (state.m + 1))
    rep = solve_ke_ode(prob, tol=tol, v0=v0)
    return RicciState(state.m + 1, replace(prob, prev=rep.solution), rep,
                      chain[1 - POLY_POINTS:])


def fixed_point_residual(state: RicciState) -> float:
    """Sup-norm residual of the limit equation at the current weight.

    At the fixed point the coupled equation closes on itself (the previous
    iterate equals the current one), so the residual is evaluated for the
    problem coupled against ``state.weight`` itself.  Only interior rows
    count; the Neumann end rows belong to the discretization.
    """
    prob = state.problem
    res = newton_residual(state.weight.values - prob.background.values,
                          prob.grid.spacing,
                          prob.background.curvature_profile(),
                          np.exp(prob.log_density_at_background()))
    return float(np.max(np.abs(res[1:-1])))


def run_ricci(k: float, divisor: DivisorData | None = None, p: int = 1, *,
              m_max: int = 200, stop_tol: float = DEFAULT_STOP,
              grid: RadialGrid | None = None, eps: float = 0.0,
              delta: float = 0.0,
              solver_tol: float = DEFAULT_TOL) -> tuple[RicciState, RicciTrace]:
    """Iterate until the sup-norm gap reaches ``stop_tol`` or ``m_max``.

    Records gaps, per-step normalization integrals (the class mass by the
    solved equation) and solver residuals.  A ratio exceeding ``(p-1)/p`` by
    more than ``RATIO_SLACK`` is flagged in ``trace.violations`` rather than
    raised, so a contraction failure is a visible diagnostic.
    """
    if m_max < 2:
        raise ConfigurationError(f"m_max must be >= 2, got {m_max}")
    state = initial_state(k, divisor, p, grid, eps=eps, delta=delta)
    trace = RicciTrace((p - 1) / p + RATIO_SLACK)
    for _ in range(m_max):
        state = ricci_step(state, tol=solver_tol)
        gap = float(np.max(np.abs(state.weight.values - state.earlier[-1])))
        trace.gaps.append(gap)
        trace.norm_integrals.append(state.report.integral)
        trace.residuals.append(state.report.residual)
        if gap <= stop_tol:
            break
    return state, trace


def compare_to_ke(state: RicciState, ke: SolveReport) -> dict:
    """Match the rescaled iteration limit against the direct solve.

    The smooth parts must agree in sup norm once the canonical divisor
    weight is added back to the rescaled limit; the Lelong parts then differ
    exactly by the divisor coefficients.
    """
    recipe = ke.problem.recipe
    if recipe is None or recipe.p is not None:
        raise ConfigurationError("comparison target must come from ke_problem")
    prob = state.problem
    if not np.isclose(recipe.k, prob.recipe.k):
        raise ConfigurationError("twist degrees differ between the two routes")
    if ke.problem.divisor != prob.divisor:
        raise ConfigurationError("divisors differ between the two routes")
    if ke.problem.grid.node_count != prob.grid.node_count or \
            not np.array_equal(ke.problem.grid.nodes, prob.grid.nodes):
        raise ConfigurationError("grids differ between the two routes")
    if ke.problem.delta != prob.delta or ke.problem.eps != prob.eps:
        raise ConfigurationError("regularization parameters differ between the two routes")

    rescaled = state.weight.scaled(1.0 / prob.recipe.p)
    candidate = rescaled + divisor_log_weight(prob.divisor, prob.grid)
    sup = float(np.max(np.abs(candidate.values - ke.solution.values)))
    lel_ke = lelong_numbers(ke.solution)
    lel_smooth = lelong_numbers(rescaled)
    return {
        "sup_distance": sup,
        "lelong_zero_diff": lel_ke[0] - lel_smooth[0],
        "lelong_infinity_diff": lel_ke[1] - lel_smooth[1],
    }
