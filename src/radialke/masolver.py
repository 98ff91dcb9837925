"""Radial twisted Kahler-Einstein Monge-Ampere solves.

The normal form solved here is

    u''(t) = 2 pi F(t) exp(u - u_twist - c * u_prev + t),

where ``F`` is the divisor frame factor ``prod_i (|s_i|^2 + eps^2)^{a_i}``
and ``u`` carries the slopes of its background weight.  Problem constructors
(:func:`ke_problem`, :func:`ricci_problem`) do the frame bookkeeping so that
at ``eps = delta = 0`` the normal form is exactly the geometric equation:

* ``ke_problem`` solves for the full singular Kahler-Einstein weight in the
  adjoint class; divisor coefficients become slopes of the solution, so its
  Lelong numbers are the divisor coefficients.
* ``ricci_problem`` solves one step of the p-step iteration for the smooth
  weight on the rescaled semiample class, with the divisor in the density.

Solutions are found by damped Newton iteration on the bounded correction
``v = u - u_ref`` with discrete Neumann conditions ``v'(+-T) = 0``.  Each
step solves the tridiagonal system ``(D^2 - diag(density)) dv = -residual``;
damping halves the step until the residual decreases, which for this
monotone semilinear problem converges from the flat start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .geometry import (DivisorData, RadialGrid, RadialWeight, default_grid,
                       divisor_frame_log, fs_weight, divisor_log_weight,
                       mollify_weight, readonly_array, weight_mass)
from .kernels import logsumexp, tridiag_solve

#: degree of the auxiliary ample-part divisor used by the delta family
#: (coefficient 1/2 at each fixed point)
AMPLE_SHIFT_DEGREE = 1.0

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class Recipe:
    """Constructor inputs a problem was built from, kept to rebuild it at
    other (delta, eps).  ``p`` is None for :func:`ke_problem` and the step
    count for :func:`ricci_problem`; the divisor, grid and previous iterate
    are read back from the problem itself."""

    k: float
    twist: RadialWeight
    p: Optional[int] = None


@dataclass(frozen=True)
class MAProblem:
    """One assembled Monge-Ampere instance.

    ``background`` doubles as the Newton reference: the solution carries its
    slopes and its mass (``mass = weight_mass(background)``).  ``twist`` is
    the assembled twist slot, including any frame logs the constructor moved
    into it.  ``coupling``/``prev`` add the optional ``- c * u_prev`` term.
    """

    background: RadialWeight
    twist: RadialWeight
    divisor: DivisorData
    eps: float = 0.0
    delta: float = 0.0
    coupling: float = 0.0
    prev: Optional[RadialWeight] = None
    recipe: Optional[Recipe] = None

    def __post_init__(self):
        if not (0.0 <= self.coupling < 1.0):
            raise ConfigurationError(f"coupling must lie in [0, 1), got {self.coupling}")
        if self.eps < 0 or self.delta < 0:
            raise ConfigurationError("regularization parameters must be >= 0")
        if self.coupling > 0 and self.prev is None:
            raise ConfigurationError("coupled problem needs a previous iterate")
        self._slope_check()

    @property
    def grid(self) -> RadialGrid:
        return self.background.grid

    @property
    def mass(self) -> float:
        return weight_mass(self.background)

    def _frame_end_slopes(self) -> tuple[float, float]:
        if self.eps > 0 or self.divisor.is_empty:
            return 0.0, 0.0
        return (float(self.divisor.coefficient("zero")),
                -float(self.divisor.coefficient("infinity")))

    def _slope_check(self) -> None:
        """The density must decay at both ends, else the problem has no
        integrable right side."""
        f_minus, f_plus = self._frame_end_slopes()
        c = self.coupling
        p_minus = c * self.prev.slope_minus if self.prev is not None else 0.0
        p_plus = c * self.prev.slope_plus if self.prev is not None else 0.0
        lo = f_minus + self.background.slope_minus - self.twist.slope_minus - p_minus + 1.0
        hi = f_plus + self.background.slope_plus - self.twist.slope_plus - p_plus + 1.0
        if lo <= 0:
            raise ConfigurationError(
                f"density exponent slope {lo} at t -> -inf is not integrable")
        if hi >= 0:
            raise ConfigurationError(
                f"density exponent slope {hi} at t -> +inf is not integrable")

    def log_density_at_background(self) -> np.ndarray:
        """Log of the fixed measure; the solved density is this plus the
        bounded potential."""
        t = self.grid.nodes
        out = (math.log(2.0 * math.pi)
               + divisor_frame_log(self.divisor, self.grid, self.eps)
               + self.background.values - self.twist.values + t)
        if self.prev is not None:
            out = out - self.coupling * self.prev.values
        return out

    def with_regularization(self, delta: float, eps: float) -> "MAProblem":
        """Rebuild this problem at other (delta, eps); requires a recipe."""
        r = self.recipe
        if r is None:
            raise ConfigurationError("problem was not built by a constructor; "
                                     "cannot re-regularize")
        if r.p is None:
            return ke_problem(r.k, self.divisor, self.grid, eps=eps,
                              delta=delta, twist=r.twist)
        return ricci_problem(r.k, self.divisor, r.p, self.prev, self.grid,
                             eps=eps, delta=delta, twist=r.twist)


def _adjoint_degree(k: float, D: DivisorData, delta: float) -> float:
    d_a = k - 2.0 - float(D.total)
    if d_a <= 0:
        raise ConfigurationError(
            f"adjoint class has nonpositive semiample degree {d_a}; need k > 2 + divisor total")
    d_bg = d_a - delta * AMPLE_SHIFT_DEGREE
    if d_bg <= 0:
        raise ConfigurationError(f"delta = {delta} exhausts the ample part")
    return d_bg


def ke_problem(k: float, D: DivisorData | None = None,
               grid: RadialGrid | None = None, *, eps: float = 0.0,
               delta: float = 0.0, twist: RadialWeight | None = None) -> MAProblem:
    """Assemble the singular Kahler-Einstein equation for twist degree ``k``.

    The background is a degree-correct smooth profile plus the canonical
    divisor weight, so the solution is the full adjoint-class weight with
    Lelong numbers equal to the divisor coefficients.  ``delta > 0`` shrinks
    the smooth part toward the auxiliary ample class; ``eps > 0`` floors the
    divisor frames and mollifies the twist at the same scale.
    """
    D = D or DivisorData()
    grid = grid or default_grid()
    twist_raw = twist if twist is not None else fs_weight(k, grid)
    d_bg = _adjoint_degree(k, D, delta)

    background = fs_weight(d_bg, grid) + divisor_log_weight(D, grid)
    twist_used = mollify_weight(twist_raw, eps) if eps > 0 else twist_raw
    frame0 = divisor_frame_log(D, grid, 0.0)
    a0 = float(D.coefficient("zero"))
    a_inf = float(D.coefficient("infinity"))
    # the delta correction keeps the density of the relative potential fixed
    # while the background class shrinks, so the delta family solves the
    # same equation against moving backgrounds
    shift = delta * np.logaddexp(0.0, grid.nodes)
    slot = RadialWeight(grid, twist_used.values + frame0 - shift,
                        twist_used.slope_minus + a0,
                        twist_used.slope_plus - a_inf - delta,
                        twist_used.degree)
    return MAProblem(background, slot, D, eps=eps, delta=delta,
                     recipe=Recipe(float(k), twist_raw))


def ricci_problem(k: float, D: DivisorData | None, p: int,
                  prev: RadialWeight, grid: RadialGrid | None = None, *,
                  eps: float = 0.0, delta: float = 0.0,
                  twist: RadialWeight | None = None) -> MAProblem:
    """Assemble one step of the p-step iteration against iterate ``prev``.

    The solution lives on the p-rescaled semiample class (smooth slopes);
    the divisor enters through the density.  The reference measure carries a
    factor ``p`` so that the rescaled limits of all step counts solve the
    same limit equation.
    """
    if p < 1:
        raise ConfigurationError(f"step count p must be >= 1, got {p}")
    D = D or DivisorData()
    grid = grid or default_grid()
    twist_raw = twist if twist is not None else fs_weight(k, grid)
    d_bg = _adjoint_degree(k, D, delta)

    background = fs_weight(p * d_bg, grid)
    twist_used = mollify_weight(twist_raw, eps) if eps > 0 else twist_raw
    total = float(D.total)
    slot = (twist_used - fs_weight(total, grid)).shifted(-math.log(p))
    return MAProblem(background, slot, D, eps=eps, delta=delta,
                     coupling=(p - 1) / p, prev=prev,
                     recipe=Recipe(float(k), twist_raw, int(p)))


# ---------------------------------------------------------------------------
# Newton solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveReport:
    problem: MAProblem
    solution: RadialWeight
    potential: np.ndarray
    density: np.ndarray
    iterations: int
    residual: float
    mass_defect: float

    def __post_init__(self):
        for name in ("potential", "density"):
            object.__setattr__(self, name, readonly_array(getattr(self, name)))

    @property
    def sup_potential(self) -> float:
        return float(np.max(np.abs(self.potential)))


def newton_residual(v: np.ndarray, h: float, curvature: np.ndarray,
                    density: np.ndarray) -> np.ndarray:
    """Residual of the normal form at the bounded correction ``v``.

    Interior rows are ``v'' + curvature - density * exp(v)``, with
    ``curvature`` the background's and ``density`` the fixed measure of
    :meth:`MAProblem.log_density_at_background`; the two end rows are the
    discrete Neumann conditions.
    """
    r = np.empty(v.size)
    r[1:-1] = ((v[:-2] - 2.0 * v[1:-1] + v[2:]) / h**2
               + curvature[1:-1] - density[1:-1] * np.exp(v[1:-1]))
    r[0] = v[0] - v[1]
    r[-1] = v[-1] - v[-2]
    return r


def solve_ke_ode(prob: MAProblem, tol: float = DEFAULT_TOL,
                 max_iter: int = 60, polish: bool = True) -> SolveReport:
    """Damped Newton solve of the assembled equation.

    Succeeds once the residual sup-norm is below ``tol``; with ``polish`` the
    iteration then continues while it keeps improving, so reported residuals
    usually sit at the rounding floor.  Raises :class:`ConvergenceError` if
    ``tol`` is not reached.
    """
    if not (tol > 0):
        raise ConfigurationError(f"tolerance must be positive, got {tol}")
    grid = prob.grid
    h = grid.spacing
    n = grid.node_count
    chi = prob.background.values
    chi_curv = prob.background.curvature_profile()
    g = np.exp(prob.log_density_at_background())

    v = np.zeros(n)
    res = newton_residual(v, h, chi_curv, g)
    rnorm = float(np.max(np.abs(res)))
    dl = np.full(n, 1.0 / h**2)
    du = np.full(n, 1.0 / h**2)
    dl[0] = 0.0
    dl[-1] = -1.0
    du[0] = -1.0
    du[-1] = 0.0
    iters = 0
    while iters < max_iter:
        if rnorm <= tol and not polish:
            break
        diag = np.empty(n)
        diag[1:-1] = -2.0 / h**2 - g[1:-1] * np.exp(v[1:-1])
        diag[0] = 1.0
        diag[-1] = 1.0
        step = tridiag_solve(dl, diag, du, -res)
        alpha, improved = 1.0, False
        while alpha > 1e-10:
            v_new = v + alpha * step
            res_new = newton_residual(v_new, h, chi_curv, g)
            rnorm_new = float(np.max(np.abs(res_new)))
            if rnorm_new < rnorm:
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break  # rounding floor reached
        iters += 1
        v, res, rnorm = v_new, res_new, rnorm_new
    if rnorm > tol:
        raise ConvergenceError(
            f"Newton stalled at residual {rnorm:.3e} after {iters} iterations "
            f"(tol {tol:.1e})", residual=rnorm)

    density = g * np.exp(v)
    mass = prob.mass
    mass_defect = abs(float(np.sum(grid.trapezoid_weights * density)) - mass)
    solution = RadialWeight(grid, chi + v, prob.background.slope_minus,
                            prob.background.slope_plus, prob.background.degree)
    return SolveReport(prob, solution, v, density, iters, rnorm, mass_defect)


def closed_form_error(solution: RadialWeight, k: float) -> float:
    """Sup distance of a solution to the closed-form anchor of the conventions.

    With twist ``k log(1 + e^t)`` and no divisor the solution is
    ``(k - 2) log(1 + e^t) + log((k - 2) / (2 pi))``; the distance is taken
    two units inside each truncation end, where the Neumann rows no longer
    bend the profile.
    """
    grid = solution.grid
    ref = ((k - 2.0) * np.logaddexp(0.0, grid.nodes)
           + math.log((k - 2.0) / (2.0 * math.pi)))
    win = grid.window(-grid.half_width + 2.0, grid.half_width - 2.0)
    return float(np.max(np.abs(solution.values - ref)[win]))


# ---------------------------------------------------------------------------
# regularization diagonal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalResult:
    reports: tuple[SolveReport, ...]
    pairs: tuple[tuple[float, float], ...]
    trace: tuple[float, ...]
    converged: bool


def check_schedule(name: str, sched: Sequence[float]) -> list[float]:
    vals = [float(x) for x in sched]
    if not vals:
        raise ConfigurationError(f"{name} schedule is empty")
    if not all(math.isfinite(x) and x > 0 for x in vals):
        raise ConfigurationError(f"{name} schedule {vals} must stay positive and finite")
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise ConfigurationError(f"{name} schedule {vals} must be strictly decreasing")
    return vals


def regularized_diagonal(base: MAProblem, delta_schedule: Sequence[float],
                         eps_schedule: Sequence[float],
                         tol: float = DEFAULT_TOL) -> DiagonalResult:
    """Walk the (delta, eps) regularization family down a joint diagonal.

    Schedules are paired index by index (the shorter one is held at its last
    value); successive bounded potentials are compared in sup norm.  The
    diagonal is declared convergent when the distance trace has collapsed by
    at least a factor four from its peak; otherwise the result is returned
    with ``converged=False`` and the trace attached.
    """
    deltas = check_schedule("delta", delta_schedule)
    epses = check_schedule("eps", eps_schedule)
    steps = max(len(deltas), len(epses))
    pad = lambda s: s + [s[-1]] * (steps - len(s))
    deltas, epses = pad(deltas), pad(epses)

    reports: list[SolveReport] = []
    trace: list[float] = []
    for d, e in zip(deltas, epses):
        rep = solve_ke_ode(base.with_regularization(d, e), tol=tol)
        if reports:
            trace.append(float(np.max(np.abs(rep.potential - reports[-1].potential))))
        reports.append(rep)
    converged = len(trace) >= 2 and trace[-1] <= 0.25 * max(trace)
    return DiagonalResult(tuple(reports), tuple(zip(deltas, epses)),
                          tuple(trace), converged)


# ---------------------------------------------------------------------------
# energy functionals
# ---------------------------------------------------------------------------

def energy(phi: np.ndarray, background: RadialWeight) -> float:
    """Monge-Ampere energy of a bounded potential against its background.

    First variation in direction ``v`` is the pairing of ``v`` with the
    perturbed curvature density.
    """
    # a copy, since the weight freezes its values; zero slopes extend the
    # bounded potential flat beyond the grid
    phi = np.array(phi, dtype=np.float64)
    grid = background.grid
    bg = background.curvature_profile()
    d2 = RadialWeight(grid, phi, 0.0, 0.0, 0.0).second_differences()
    return 0.5 * float(np.sum(grid.trapezoid_weights * phi * (2.0 * bg + d2)))


def energy_variation(phi: np.ndarray, v: np.ndarray,
                     background: RadialWeight) -> float:
    """Exact first variation of :func:`energy` at ``phi`` in direction ``v``."""
    grid = background.grid
    flat = RadialWeight(grid, np.array(phi, dtype=np.float64), 0.0, 0.0, 0.0)
    dens = background.curvature_profile() + flat.second_differences()
    return float(np.sum(grid.trapezoid_weights * np.asarray(v, float) * dens))


def g_functional(phi: np.ndarray, background: RadialWeight,
                 log_density: np.ndarray) -> float:
    """Free-energy functional: energy minus the log partition integral.

    For a unit-mass class this is exactly the functional maximized by the
    solved potential; on other classes it is gauge sensitive along constants.
    """
    phi = np.asarray(phi, dtype=np.float64)
    grid = background.grid
    log_mass = logsumexp(phi + log_density + np.log(grid.trapezoid_weights))
    return energy(phi, background) - log_mass


def uniform_bound_check(reports: Sequence[SolveReport]) -> dict:
    """Certificate that a regularization family is uniformly bounded.

    Returns the largest sup-norm of the bounded potentials over the family;
    finiteness is the assertion, the value itself is reported, not targeted.
    """
    if not reports:
        raise ConfigurationError("uniform bound check needs at least one report")
    sups = [rep.sup_potential for rep in reports]
    bound = max(sups)
    if not np.isfinite(bound):
        raise ConvergenceError("family sup-norm is not finite")
    return {"bound": bound, "count": len(sups), "per_report": sups}
