"""Fiber families over a one-dimensional rotation-invariant base.

A family is a grid of twists ``u_L(t; s)`` over base nodes ``s = log|y|^2``,
each fiber carrying the same divisor.  For bi-invariant weights, positivity
of a current on the total space reduces to positive semidefiniteness of the
2x2 Hessian in ``(t, s)``, checked here through its (t,t) entry and its
determinant so that degenerate fibers never divide by a vanishing entry.

The workflow: build a family from a recipe (the joint-positivity precheck on
the twist gates admission), solve every fiber, then certify positivity of
the solved relative weight, uniform boundedness over compact base ranges,
and convexity of the fiberwise section norms in the base coordinate.  Every
recipe has one form, a model twist plus a bump coupled to the base through
``exp(s)``; the product, perturbed and conic recipes are values of it.  A
section norm is taken for every fiber at once, one log-sum-exp row each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .geometry import (DEFAULT_T, DivisorData, RadialGrid, RadialWeight,
                       fs_weight, make_grid, readonly_array)
from .kernels import logsumexp
from .masolver import MAProblem, SolveReport, ke_problem, polynomial_start, solve_ke_ode

DEFAULT_BASE = (-2.0, 2.0, 41)
DEFAULT_FIBER_N = 1024
POSITIVITY_TOL = 1e-6
#: Newton tolerance of the fiber solves
FIBER_TOL = 1e-11
#: convexity tolerance on the second differences of :func:`ns_convexity_check`
NS_CONVEXITY_TOL = 1e-8
#: root orders ``m`` of the section norms :func:`section_norm_checks` sweeps
NS_ORDERS = (1, 2, 3)


# ---------------------------------------------------------------------------
# recipes and bump profiles
# ---------------------------------------------------------------------------

def _bump_fs(t: np.ndarray) -> np.ndarray:
    # normalized curvature profile of the model weight, exponential tails
    e = np.exp(-np.abs(t))
    return 4.0 * e / (1.0 + e) ** 2


def _bump_cauchy(t: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + t * t)


def _bump_log(t: np.ndarray) -> np.ndarray:
    v = np.logaddexp(0.0, t) * np.logaddexp(0.0, -t)
    return v / math.log(2.0) ** 2


BUMPS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "fs_bump": _bump_fs,
    "cauchy_bump": _bump_cauchy,
    "log_bump": _bump_log,
}


@dataclass(frozen=True)
class FamilyRecipe:
    """Construction data of a family: the fiber twist over base node ``s`` is
    the model weight of degree ``k`` plus ``exp(s) * amplitude`` times a
    bounded bump, on fibers carrying ``divisor``.

    The three built-in recipes are values of this one form: ``perturbed``
    has no divisor, ``product`` is ``perturbed`` at amplitude 0 (no base
    dependence), and ``conic`` fixes a divisor at zero.  A negative amplitude
    flips the coupling concave in the base and is only usable with the
    precheck bypass (the control experiment for the positivity certificate).
    """

    k: float = 4.0
    amplitude: float = 0.05
    bump: str = "fs_bump"
    divisor: DivisorData = field(default_factory=DivisorData)

    def __post_init__(self):
        if self.bump not in BUMPS:
            raise ConfigurationError(f"unknown bump profile {self.bump!r}")
        if not self.divisor.is_klt:
            raise ConfigurationError("fiber divisor must be klt")


def product_family_recipe(k: float = 4.0) -> FamilyRecipe:
    return FamilyRecipe(k, 0.0)


def perturbed_family_recipe(k: float = 4.0, amplitude: float = 0.05,
                            bump: str = "fs_bump") -> FamilyRecipe:
    return FamilyRecipe(k, amplitude, bump)


def conic_family_recipe(k: float = 4.0, a0: Fraction | float | str = Fraction(1, 2),
                        amplitude: float = 0.05,
                        bump: str = "fs_bump") -> FamilyRecipe:
    D = DivisorData(zero=a0)
    if D.is_empty:
        raise ConfigurationError("conic recipe needs a fiber divisor")
    return FamilyRecipe(k, amplitude, bump, D)


# ---------------------------------------------------------------------------
# joint positivity of (t, s) Hessians
# ---------------------------------------------------------------------------

def hessian_certificate(U: np.ndarray, ht: float, hs: float,
                        tol: float = POSITIVITY_TOL) -> dict:
    """Positive semidefiniteness certificate for a bi-invariant weight matrix.

    Second differences on interior nodes give the (t,t), (s,s) and mixed
    entries; the test is ``tt >= -tol * scale`` and ``det >= -tol * scale``
    with scales set by the largest observed entries, so discretization noise
    where the Hessian is tiny does not produce false failures.  The
    location of an entry's minimum is reported only when that entry fails
    its bound (``None`` otherwise): the minimum of a passing entry is
    rounding noise and its location says nothing about the weight.
    """
    if U.shape[0] < 3 or U.shape[1] < 3:
        raise ConfigurationError("hessian check needs at least 3 nodes per axis")
    tt = (U[:-2, 1:-1] - 2.0 * U[1:-1, 1:-1] + U[2:, 1:-1]) / ht**2
    ss = (U[1:-1, :-2] - 2.0 * U[1:-1, 1:-1] + U[1:-1, 2:]) / hs**2
    ts = (U[2:, 2:] - U[2:, :-2] - U[:-2, 2:] + U[:-2, :-2]) / (4.0 * ht * hs)
    det = tt * ss - ts * ts

    i_tt = np.unravel_index(int(np.argmin(tt)), tt.shape)
    i_det = np.unravel_index(int(np.argmin(det)), det.shape)
    min_tt = float(tt[i_tt])
    min_det = float(det[i_det])
    # max |x| is the larger of -min x and max x (a NaN leaves the scale 1)
    scale_tt = max(1.0, -min_tt, float(np.max(tt)))
    scale_det = max(1.0, -min_det, float(np.max(det)))
    tt_ok = min_tt >= -tol * scale_tt
    det_ok = min_det >= -tol * scale_det
    return {
        "passed": bool(tt_ok and det_ok),
        "min_tt": min_tt,
        "min_det": min_det,
        "max_abs_mixed": float(np.max(np.abs(ts))),
        "max_abs_ss": float(np.max(np.abs(ss))),
        "tt_location": None if tt_ok else (int(i_tt[0]) + 1, int(i_tt[1]) + 1),
        "det_location": None if det_ok else (int(i_det[0]) + 1, int(i_det[1]) + 1),
        "tol": tol,
        "scale_tt": scale_tt,
        "scale_det": scale_det,
    }


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberFamily:
    """Fiber twists over the base nodes, a uniform increasing grid of at
    least 3 nodes: row ``i`` of ``twists``, a read-only (fibers x fiber
    nodes) matrix, is the profile of the twist over ``base_nodes[i]``; every
    twist has slopes (0, k) and degree k.  ``problem``, the fiber equation,
    is fiber 0's :func:`ke_problem`, keeping the density head that every
    fiber shares; the fiber grid is its grid."""

    recipe: FamilyRecipe
    base_nodes: np.ndarray
    twists: np.ndarray
    precheck: dict
    problem: MAProblem

    def __post_init__(self):
        object.__setattr__(self, "base_nodes", readonly_array(self.base_nodes))
        object.__setattr__(self, "twists", readonly_array(self.twists))

    def twist(self, idx: int) -> RadialWeight:
        """The twist of fiber ``idx`` as a weight; its values are a view of
        the row."""
        k = self.recipe.k
        return RadialWeight(self.fiber_grid, self.twists[idx], 0.0, k, k)

    @property
    def fiber_grid(self) -> RadialGrid:
        return self.problem.grid

    @property
    def joint_positive(self) -> bool:
        return bool(self.precheck["passed"])

    @property
    def divisor(self) -> DivisorData:
        return self.recipe.divisor

    @property
    def base_count(self) -> int:
        return self.base_nodes.size

    @property
    def base_spacing(self) -> float:
        """The step of the base, uniform as :func:`build_family` checks."""
        return float(self.base_nodes[1] - self.base_nodes[0])


def build_family(recipe: FamilyRecipe, base_nodes: np.ndarray | None = None,
                 fiber_grid: RadialGrid | None = None, *,
                 bypass_precheck: bool = False) -> FiberFamily:
    """Assemble fiber twists and the fiber equation, then run the
    joint-positivity precheck.

    The base (default ``DEFAULT_BASE``) must be an increasing grid of at
    least 3 nodes, uniform to ``1e-12 max(1, max|s|)`` as the
    :func:`kernels.block_layout` nodes are: the (s, s) and (t, s) stencils
    of every certificate read its one step.  The equation's own checks
    (adjoint degree, background mass on the fiber grid) run before the
    precheck, which applies the 2x2 Hessian certificate to the twist matrix;
    rejection carries the offending node.  ``bypass_precheck`` admits a
    failing family anyway (control experiments only).
    """
    base = (np.linspace(*DEFAULT_BASE) if base_nodes is None
            else np.asarray(base_nodes, float))
    if base.ndim != 1 or base.size < 3:
        raise ConfigurationError("family base needs a 1-d grid of at least 3 nodes")
    step = (base[-1] - base[0]) / (base.size - 1)
    drift = np.max(np.abs(base - (base[0] + step * np.arange(base.size))))
    if not (step > 0 and drift <= 1e-12 * max(1.0, float(np.max(np.abs(base))))):
        raise ConfigurationError("family base nodes must be uniform and increasing")
    grid = fiber_grid or make_grid(DEFAULT_T, DEFAULT_FIBER_N)

    bump = BUMPS[recipe.bump](grid.nodes)
    base_fs = fs_weight(recipe.k, grid).values
    coupling = np.array([math.exp(s) * recipe.amplitude for s in base])
    twists = base_fs + coupling[:, None] * bump
    problem = ke_problem(recipe.k, recipe.divisor, grid,
                         twist=RadialWeight(grid, twists[0], 0.0, recipe.k, recipe.k)
                         ).with_density_head()

    cert = hessian_certificate(twists.T, grid.spacing, float(base[1] - base[0]))
    if not cert["passed"] and not bypass_precheck:
        failing = [f"min {entry} {cert['min_' + entry]:.3e} at interior node "
                   f"{cert[entry + '_location']}" for entry in ("det", "tt")
                   if cert[entry + "_location"] is not None]
        raise ConfigurationError("family twist fails joint positivity: "
                                 + ", ".join(failing))
    return FiberFamily(recipe, base, twists, cert, problem)

@dataclass(frozen=True)
class RelativePotential:
    """Solved family: fiberwise total weights column by column; the bounded
    relative potential of fiber ``i`` is ``reports[i].potential``."""

    family: FiberFamily
    weights: np.ndarray     # (fiber nodes) x (base nodes)
    reports: tuple[SolveReport, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", readonly_array(self.weights))


def solve_fiberwise(family: FiberFamily) -> RelativePotential:
    """Solve the fiber equation in every base column.

    Continuation along the base in the coupling ``mu = exp(s)``: every
    recipe's twist is affine in ``mu``, so the fiber potential is a smooth
    function of it, and each fiber starts from the :func:`polynomial_start`
    through its solved neighbours (the first one flat).  On the default base
    that start is within 1e-12 of the solution, so a fiber takes about 1.2
    tridiagonal sweeps instead of 3.7 from the neighbour alone, and the
    solution is the cold start's up to rounding.

    The fibers differ only in their twist: fiber ``i`` solves
    ``family.problem.with_twist(family.twist(i))``, which shares the
    family's background and assembles only the twist slot.
    """
    mus = np.exp(family.base_nodes)
    cols, pots, reports = [], [], []
    for idx in range(family.base_count):
        try:
            prob = family.problem.with_twist(family.twist(idx))
            rep = solve_ke_ode(prob, tol=FIBER_TOL,
                               v0=polynomial_start(pots, mus[:idx], mus[idx]))
        except (ConfigurationError, ConvergenceError) as exc:
            raise type(exc)(
                f"fiber {idx} (s = {family.base_nodes[idx]:+.4f}) failed: {exc}")
        cols.append(rep.solution.values)
        pots.append(rep.potential)
        reports.append(rep)
    return RelativePotential(family, np.column_stack(cols), tuple(reports))


def base_positivity_check(rel: RelativePotential,
                          tol: float = POSITIVITY_TOL) -> dict:
    """Main positivity certificate of the solved relative weight.

    Both the fiber-direction entry and the determinant of the (t, s) Hessian
    must be nonnegative up to scaled tolerance at every interior node; the
    certificate carries the global minima and the location of each failing
    one.
    """
    cert = hessian_certificate(rel.weights, rel.family.fiber_grid.spacing,
                               rel.family.base_spacing, tol)
    cert["joint_positive_input"] = rel.family.joint_positive
    cert["scope"] = ("interior joint positivity over the sampled base window; "
                     "no extension across degenerate fibers is certified")
    return cert


def uniform_sup_check(rel: RelativePotential,
                      base_range: tuple[float, float]) -> dict:
    """Upper bound of the relative potential over a compact base range."""
    lo, hi = base_range
    mask = (rel.family.base_nodes >= lo) & (rel.family.base_nodes <= hi)
    if not np.any(mask):
        raise ConfigurationError(f"no base nodes inside [{lo}, {hi}]")
    # numpy's max keeps a NaN wherever it falls; Python's max may drop it
    bound = float(np.max([rep.potential.max()
                          for rep, inside in zip(rel.reports, mask) if inside]))
    if not np.isfinite(bound):
        raise ConvergenceError("relative potential unbounded over the range")
    return {"bound": bound, "fibers": int(np.sum(mask)), "range": (lo, hi)}


# ---------------------------------------------------------------------------
# fiberwise section norms
# ---------------------------------------------------------------------------

def section_window(family: FiberFamily, m: int) -> range:
    """Exponents ``j`` of the sections ``z^j`` of the m-fold adjoint bundle.

    The top exponent is the bundle degree ``m (k + divisor total - 2)``,
    rounded down as usual for fractional divisor coefficients.
    """
    recipe = family.recipe
    top = math.floor(m * (recipe.k + float(recipe.divisor.total) - 2.0) + 1e-9)
    return range(0, top + 1)


def ns_log_norm(j: int, m: int, family: FiberFamily) -> np.ndarray:
    """Log of the fiberwise m-th root-integral section norm, one value per
    fiber.

    The section ``z^j`` of the m-fold adjoint twisted bundle is integrated
    with the 1/m-th power of its pointwise norm against the canonical
    divisor weight, and the result is raised back to the m-th power:

        log |z^j|_m^2 = m log( 2 pi int exp((j/m + 1) t - u_L - a_0 t) dt ).

    Every fiber's integral is one row of a (fibers x nodes) exponent matrix
    and one :func:`logsumexp` row.  A klt divisor makes every exponent
    integrable; the slope precheck rejects the rest.
    """
    if m < 1:
        raise ConfigurationError(f"root order m must be >= 1, got {m}")
    window = section_window(family, m)
    if not window:
        raise ConfigurationError(f"adjoint bundle has no sections at m = {m}")
    if j not in window:
        raise ConfigurationError(
            f"exponent {j} outside section window [0, {window[-1]}]")
    a0 = float(family.divisor.coefficient("zero"))
    # every twist has top slope k
    slope_lo = j / m + 1.0 - a0
    slope_hi = j / m + 1.0 - family.recipe.k - a0
    if slope_lo <= 0 or slope_hi >= 0:
        raise ConfigurationError(
            f"section z^{j} not integrable for this twist (end slopes "
            f"{slope_lo}, {slope_hi})")
    grid = family.fiber_grid
    t = grid.nodes
    expo = (j / m + 1.0) * t - family.twists - a0 * t
    expo += grid.log_trapezoid_weights
    return m * (math.log(2.0 * math.pi) + logsumexp(expo))


def ns_convexity_check(j: int, m: int, family: FiberFamily) -> dict:
    """Convexity of ``-log`` of the section norm along the base.

    Positivity of the induced base metric means the negative log norm is
    convex in ``s``; the certificate reports the smallest second difference
    of :func:`ns_log_norm`.
    """
    vals = -ns_log_norm(j, m, family)
    d2 = (vals[:-2] - 2.0 * vals[1:-1] + vals[2:]) / family.base_spacing**2
    min_d2 = float(np.min(d2))
    return {"passed": bool(min_d2 >= -NS_CONVEXITY_TOL),
            "min_second_diff": min_d2, "values": vals, "tol": NS_CONVEXITY_TOL}


def section_norm_checks(family: FiberFamily) -> list[tuple[int, int, dict]]:
    """The section-norm sweep: ``(m, j, ns_convexity_check(j, m, family))``
    for every order ``m`` in ``NS_ORDERS`` and every exponent ``j`` of its
    :func:`section_window`, in that order."""
    return [(m, j, ns_convexity_check(j, m, family))
            for m in NS_ORDERS for j in section_window(family, m)]
