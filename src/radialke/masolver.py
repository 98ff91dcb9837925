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

A problem built with ``prev = None`` couples against its own background, so
the uncoupled ``ke_problem`` is the coupled equation at ``c = 0``.

A ``ke_problem`` is rebuilt at other (delta, eps) by
:meth:`MAProblem.with_regularization` and with another twist by
:meth:`MAProblem.with_twist`.  The latter assembles only the twist slot and
keeps the background, whose curvature mass is checked once per background
weight: the fibers of a family share one equation up to their twist.  A
p-step problem goes to the next step by :meth:`MAProblem.with_prev`, a copy
that checks only what the new iterate can change.  A problem that is handed
on many times, a p-step chain's and a family's fiber equation, keeps its
iterate-free density head ``log 2 pi + frame logs + background``, built once
by :meth:`MAProblem.with_density_head`; ``with_prev`` and ``with_twist``
pass it on.  Any other problem builds its head where its density is read, so
no head outlives a problem solved once.

Solutions are found by damped Newton iteration on the bounded correction
``v = u - u_ref`` with discrete Neumann conditions ``v'(+-T) = 0``.  Each
step solves the tridiagonal system ``(D^2 - diag(density)) dv = -residual``
in symmetric form, its Neumann rows scaled by ``-1/h^2``, with the solved
density computed once per iterate; damping halves the step until the
residual decreases, which for this monotone semilinear problem converges
from any bounded start.  Chained solves therefore start from a prediction
instead of the flat ``v = 0`` (the predictor of a predictor-corrector
continuation, with Newton as the corrector): :func:`polynomial_start`, the
Lagrange extrapolation of the solved neighbours in the chain's parameter,
one product of its weights with the stored potentials.  That parameter is ``c^m`` on
the p-step iteration, ``delta + eps`` on the regularization diagonal and the
coupling ``exp(s)`` along the base of a family.  Every solve stops as soon
as a full Newton step falls to the rounding floor (``STOP_FACTOR``).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .geometry import (DivisorData, RadialGrid, RadialWeight, default_grid,
                       divisor_frame_log, fs_weight, divisor_log_weight,
                       mollify_weight, readonly_array)
from .kernels import logsumexp, tridiag_solve

#: degree of the auxiliary ample-part divisor used by the delta family
#: (coefficient 1/2 at each fixed point)
AMPLE_SHIFT_DEGREE = 1.0

DEFAULT_TOL = 1e-10
#: Newton iteration cap of :func:`solve_ke_ode`
MAX_NEWTON_ITER = 60
#: a Newton step with ``max|step| <= STOP_FACTOR * (1 + max|v|)`` is at the
#: rounding floor of ``v``: :func:`solve_ke_ode` takes it only if it lowers
#: the residual, then stops
STOP_FACTOR = 1e-12
#: solved neighbours that :func:`polynomial_start` interpolates
POLY_POINTS = 6
#: largest :func:`closed_form_error` that passes the closed-form oracle
CLOSED_FORM_TOL = 1e-6


@dataclass(frozen=True)
class Recipe:
    """Constructor inputs a problem was built from, kept to rebuild a
    :func:`ke_problem` at other (delta, eps) or with another twist; ``p`` is
    the step count of a :func:`ricci_problem`, else None.  The divisor, grid
    and previous iterate are read back from the problem itself."""

    k: float
    twist: RadialWeight
    p: Optional[int] = None


@dataclass(frozen=True)
class MAProblem:
    """One assembled Monge-Ampere instance.

    ``background`` doubles as the Newton reference: the solution carries its
    slopes and its mass, ``mass = background.mass``, checked once per
    background weight when the first problem on it is built, so a grid too
    coarse for the background fails before any solve and a ``replace`` that
    keeps the background does not check it again.  ``twist`` is the
    assembled twist slot, including any frame logs the constructor moved
    into it.  ``coupling``/``prev`` add the ``- c * u_prev`` term; ``prev =
    None`` stands for the background itself, so an uncoupled problem is the
    coupled one at ``coupling = 0``, where that term adds a signed zero.
    The twist slot's divisor frame logs are built with it; the density's
    enter its iterate-free head ``log 2 pi + frame logs + background``,
    which :meth:`log_density_at_background` builds unless the problem keeps
    it (``density_head``, see :meth:`with_density_head`).
    """

    background: RadialWeight
    twist: RadialWeight
    divisor: DivisorData
    eps: float = 0.0
    delta: float = 0.0
    coupling: float = 0.0
    prev: Optional[RadialWeight] = None
    recipe: Optional[Recipe] = None
    mass: float = field(init=False)
    #: the density head, kept only by a problem that is handed on many times;
    #: constructors and ``replace`` leave it None, so it never outlives the
    #: inputs it was built from
    density_head: Optional[np.ndarray] = field(default=None, init=False,
                                               repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 <= self.coupling < 1.0):
            raise ConfigurationError(f"coupling must lie in [0, 1), got {self.coupling}")
        _regularization_check(self.eps, self.delta)
        if self.prev is None:
            object.__setattr__(self, "prev", self.background)
        self._slope_check()
        object.__setattr__(self, "mass", self.background.mass)

    @property
    def grid(self) -> RadialGrid:
        return self.background.grid

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
        lo = (f_minus + self.background.slope_minus - self.twist.slope_minus
              - c * self.prev.slope_minus + 1.0)
        hi = (f_plus + self.background.slope_plus - self.twist.slope_plus
              - c * self.prev.slope_plus + 1.0)
        if lo <= 0:
            raise ConfigurationError(
                f"density exponent slope {lo} at t -> -inf is not integrable")
        if hi >= 0:
            raise ConfigurationError(
                f"density exponent slope {hi} at t -> +inf is not integrable")

    def _head(self) -> np.ndarray:
        if self.density_head is not None:
            return self.density_head
        return (math.log(2.0 * math.pi)
                + divisor_frame_log(self.divisor, self.grid, self.eps)
                + self.background.values)

    def log_density_at_background(self) -> np.ndarray:
        """Log of the fixed measure, ``((head - twist) + t) - c * prev``;
        the solved density is this plus the bounded potential."""
        return (self._head() - self.twist.values + self.grid.nodes
                - self.coupling * self.prev.values)

    def with_density_head(self) -> "MAProblem":
        """This problem keeping its density head, built once here for a
        problem that is handed on many times: :meth:`with_prev` and
        :meth:`with_twist` keep every input of the head and pass it on."""
        new = copy.copy(self)
        object.__setattr__(new, "density_head", readonly_array(self._head()))
        return new

    def with_prev(self, prev: RadialWeight) -> "MAProblem":
        """This problem coupled against ``prev``, equal to ``replace(self,
        prev=prev)`` without checking again what ``prev`` cannot change:
        ``prev`` must lie on the problem's grid and carry the slopes of the
        current ``prev``, the only inputs of the slope check it replaces, so
        the copy keeps the checked mass and any density head."""
        if (prev.grid is not self.grid
                and not np.array_equal(prev.grid.nodes, self.grid.nodes)):
            raise ConfigurationError("previous iterate lives on another grid")
        old = self.prev
        if prev.slope_minus != old.slope_minus or prev.slope_plus != old.slope_plus:
            raise ConfigurationError(
                f"previous iterate has slopes ({prev.slope_minus}, "
                f"{prev.slope_plus}), not ({old.slope_minus}, {old.slope_plus})")
        new = copy.copy(self)
        object.__setattr__(new, "prev", prev)
        return new

    def _ke_recipe(self, action: str) -> Recipe:
        r = self.recipe
        if r is None or r.p is not None:
            raise ConfigurationError(
                "only a problem built by the ke_problem constructor can be "
                f"{action}, not a p-step or hand-built one")
        return r

    def with_regularization(self, delta: float, eps: float) -> "MAProblem":
        """Rebuild this problem at other (delta, eps); requires a
        :func:`ke_problem` recipe."""
        r = self._ke_recipe("re-regularized")
        return ke_problem(r.k, self.divisor, self.grid, eps=eps, delta=delta,
                          twist=r.twist)

    def with_twist(self, twist: RadialWeight) -> "MAProblem":
        """This problem with another raw twist, equal to the
        :func:`ke_problem` built with it; requires a :func:`ke_problem`
        recipe.  The background, its checked mass and any density head are
        shared, only the twist slot is assembled again."""
        r = self._ke_recipe("given another twist")
        slot = _twist_slot(twist, self.divisor, self.grid, self.eps, self.delta)
        prob = MAProblem(self.background, slot, self.divisor, eps=self.eps,
                         delta=self.delta, recipe=Recipe(r.k, twist))
        object.__setattr__(prob, "density_head", self.density_head)
        return prob


def _regularization_check(eps: float, delta: float) -> None:
    """Refuse ``eps`` or ``delta`` under its own name unless finite and >= 0;
    constructors run it before anything is mollified."""
    for name, value in (("eps", eps), ("delta", delta)):
        if not (math.isfinite(value) and value >= 0):
            raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")


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
    _regularization_check(eps, delta)
    D = D or DivisorData()
    grid = grid or default_grid()
    d_bg = _adjoint_degree(k, D, delta)
    twist_raw = twist if twist is not None else fs_weight(k, grid)

    background = fs_weight(d_bg, grid) + divisor_log_weight(D, grid)
    return MAProblem(background, _twist_slot(twist_raw, D, grid, eps, delta),
                     D, eps=eps, delta=delta, recipe=Recipe(float(k), twist_raw))


def _twist_slot(twist: RadialWeight, D: DivisorData, grid: RadialGrid,
                eps: float, delta: float) -> RadialWeight:
    """The twist slot of :func:`ke_problem`: the raw twist, mollified at
    ``eps > 0``, plus the unfloored divisor frame logs, less the delta shift,
    with its slopes moved to match."""
    used = mollify_weight(twist, eps) if eps > 0 else twist
    a0 = float(D.coefficient("zero"))
    a_inf = float(D.coefficient("infinity"))
    # the delta correction keeps the density of the relative potential fixed
    # while the background class shrinks, so the delta family solves the
    # same equation against moving backgrounds
    shift = delta * grid.fs_profile
    return RadialWeight(grid, used.values + divisor_frame_log(D, grid) - shift,
                        used.slope_minus + a0, used.slope_plus - a_inf - delta,
                        used.degree)


def ricci_problem(k: float, D: DivisorData | None, p: int,
                  prev: RadialWeight | None = None,
                  grid: RadialGrid | None = None, *,
                  eps: float = 0.0, delta: float = 0.0,
                  twist: RadialWeight | None = None) -> MAProblem:
    """Assemble one step of the p-step iteration against iterate ``prev``.

    The solution lives on the p-rescaled semiample class (smooth slopes);
    the divisor enters through the density.  The reference measure carries a
    factor ``p`` so that the rescaled limits of all step counts solve the
    same limit equation.  ``prev = None`` couples against the background
    ``p * phi_A``, the iteration's start ``w_0``.  The delta shift of the
    density is :func:`ke_problem`'s, so both routes solve one equation.
    """
    if p < 1:
        raise ConfigurationError(f"step count p must be >= 1, got {p}")
    _regularization_check(eps, delta)
    D = D or DivisorData()
    grid = grid or default_grid()
    d_bg = _adjoint_degree(k, D, delta)
    twist_raw = twist if twist is not None else fs_weight(k, grid)

    background = fs_weight(p * d_bg, grid)
    twist_used = mollify_weight(twist_raw, eps) if eps > 0 else twist_raw
    total = float(D.total)
    slot = (twist_used - fs_weight(total + delta, grid)).shifted(-math.log(p))
    return MAProblem(background, slot, D, eps=eps, delta=delta,
                     coupling=(p - 1) / p, prev=prev,
                     recipe=Recipe(float(k), twist_raw, int(p)))


# ---------------------------------------------------------------------------
# Newton solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveReport:
    """What one Newton solve computed; ``integral`` is the trapezoid sum of
    the solved density, ``problem.mass`` up to the discretization."""

    problem: MAProblem
    potential: np.ndarray
    iterations: int
    residual: float
    integral: float

    def __post_init__(self):
        object.__setattr__(self, "potential", readonly_array(self.potential))

    @property
    def solution(self) -> RadialWeight:
        """Background plus potential, with the background's slopes and degree."""
        bg = self.problem.background
        return RadialWeight(bg.grid, bg.values + self.potential,
                            bg.slope_minus, bg.slope_plus, bg.degree)

    @property
    def mass_defect(self) -> float:
        return abs(self.integral - self.problem.mass)

    @property
    def sup_potential(self) -> float:
        return float(np.max(np.abs(self.potential)))


def newton_residual(v: np.ndarray, h: float, curvature: np.ndarray,
                    rho: np.ndarray) -> np.ndarray:
    """Residual of the normal form at the bounded correction ``v``.

    Interior rows are ``v'' + curvature - rho``, with ``curvature`` the
    background's and ``rho = density * exp(v)`` the solved density, where
    ``density`` is the fixed measure of
    :meth:`MAProblem.log_density_at_background`; the two end rows are the
    discrete Neumann conditions ``v[0] - v[1]`` and ``v[-1] - v[-2]``.
    """
    r = np.empty(v.size)
    # ((v[:-2] - 2 v[1:-1] + v[2:]) / h^2 + curvature - rho) in place, in
    # that operation order
    mid = r[1:-1]
    np.multiply(v[1:-1], 2.0, out=mid)
    np.subtract(v[:-2], mid, out=mid)
    mid += v[2:]
    mid /= h**2
    mid += curvature[1:-1]
    mid -= rho[1:-1]
    r[0] = v[0] - v[1]
    r[-1] = v[-1] - v[-2]
    return r


def polynomial_start(solved: Sequence[np.ndarray], params: Sequence[float],
                     at: float) -> Optional[np.ndarray]:
    """Start for the next solve of a chain whose inputs are smooth in a
    parameter: the Lagrange interpolant through the last ``POLY_POINTS``
    potentials ``solved`` (oldest first, solved at ``params``) evaluated at
    ``at``; the flat start (``None``) for an empty chain.

    It is summed as ``solved[-1]`` plus one product of the Lagrange weights
    with the differences to it (the weights add up to 1), so one potential
    is returned as it is and identical potentials come back unchanged.  An
    ``at`` equal to a node returns the latest potential solved there, the
    interpolant's own value, which also holds when nodes repeat (the p-step
    chain at ``p = 1``).
    """
    if not solved:
        return None
    pts = solved[-POLY_POINTS:]
    x = [float(p) for p in params[-len(pts):]]
    at = float(at)
    if at in x:
        return pts[len(x) - 1 - x[::-1].index(at)]
    if len(pts) == 1:
        return np.array(pts[0], dtype=np.float64)
    w = []
    for i, xi in enumerate(x[:-1]):
        wi = 1.0
        for k, o in enumerate(x):
            if k != i:
                wi *= (at - o) / (xi - o)
        w.append(wi)
    diffs = np.array(pts[:-1], dtype=np.float64)
    diffs -= pts[-1]
    out = np.array(w) @ diffs
    out += pts[-1]
    return out


def solve_ke_ode(prob: MAProblem, tol: float = DEFAULT_TOL, *,
                 v0: Optional[np.ndarray] = None) -> SolveReport:
    """Damped Newton solve of the assembled equation.

    Starts from the bounded correction ``v0`` (``None``: the flat start
    ``v = 0``); a chained caller passes its :func:`polynomial_start`, a
    prediction from its neighbours, which the monotone damping turns into
    the same solution up to rounding.  Iterates while the residual sup-norm
    keeps improving, at most ``MAX_NEWTON_ITER`` times.  A Newton step no
    larger than ``STOP_FACTOR * (1 + max|v|)`` is at the rounding floor: it
    is taken only if it lowers the residual, and the solve stops there
    without a damping sweep.  Any other step is halved until the residual
    decreases, and the solve stops when no halving down to ``1e-10`` does.
    The residual alone cannot certify the floor, so the step is solved: at
    N 1024 and k 4, smooth and with 1/2 at zero, ``||J^-1||`` is 891 and
    949 in the sup norm and the converged residual 6.5e-14 and 1.1e-13, so
    ``||J^-1|| ||r||`` bounds the step only by 5.8e-11 and 1.0e-10, against
    a floor of 2.1e-12 and 2.2e-12.
    Raises :class:`ConvergenceError` unless the residual ends within ``tol``.

    The Newton matrix ``D^2 - diag(density * e^v)`` is solved in symmetric
    form: both Neumann rows are scaled by ``-1/h^2``, so row 0 reads
    ``(-v[0] + v[1]) / h^2`` and shares its off-diagonal with row 1.  The
    solved density ``density * e^v`` is computed once per iterate and
    serves the residual, the next Jacobian diagonal and the final trapezoid
    integral.
    """
    if not (tol > 0):
        raise ConfigurationError(f"tolerance must be positive, got {tol}")
    grid = prob.grid
    n = grid.node_count
    h = grid.spacing
    h2 = h**2
    chi_curv = prob.background.curvature_profile()
    g = np.exp(prob.log_density_at_background())

    # a copy: the report freezes its potential in place
    v = np.zeros(n) if v0 is None else np.array(v0, dtype=np.float64)
    rho = g * np.exp(v)
    res = newton_residual(v, h, chi_curv, rho)
    rnorm = float(np.abs(res).max())
    e = np.full(n - 1, 1.0 / h2)
    # the Newton system's diagonal and right side, refilled every iterate
    diag, rhs = np.empty(n), np.empty(n)
    iters = 0
    while iters < MAX_NEWTON_ITER:
        np.subtract(-2.0 / h2, rho, out=diag)
        diag[0] = diag[-1] = -1.0 / h2
        np.negative(res, out=rhs)
        rhs[0] = res[0] / h2
        rhs[-1] = res[-1] / h2
        step = tridiag_solve(e, diag, rhs)
        # a step at the rounding floor is taken whole or not at all
        at_floor = np.abs(step).max() <= STOP_FACTOR * (1.0 + np.abs(v).max())
        alpha, improved = 1.0, False
        while alpha > 1e-10:
            v_new = v + step if alpha == 1.0 else v + alpha * step
            rho_new = g * np.exp(v_new)
            res_new = newton_residual(v_new, h, chi_curv, rho_new)
            rnorm_new = float(np.abs(res_new).max())
            if rnorm_new < rnorm:
                improved = True
                break
            if at_floor:
                break
            alpha *= 0.5
        if improved:
            iters += 1
            v, rho, res, rnorm = v_new, rho_new, res_new, rnorm_new
        if at_floor or not improved:
            break  # rounding floor reached
    if not rnorm <= tol:  # a NaN residual fails too
        raise ConvergenceError(
            f"Newton stalled at residual {rnorm:.3e} after {iters} iterations "
            f"(tol {tol:.1e})", residual=rnorm)

    integral = float(np.sum(grid.trapezoid_weights * rho))
    return SolveReport(prob, v, iters, rnorm, integral)


def closed_form_error(solution: RadialWeight, k: float) -> float:
    """Sup distance of a solution to the closed-form anchor of the conventions.

    With twist ``k log(1 + e^t)`` and no divisor the solution is
    ``(k - 2) log(1 + e^t) + log((k - 2) / (2 pi))``; the distance is taken
    two units inside each truncation end, where the Neumann rows no longer
    bend the profile.
    """
    grid = solution.grid
    ref = ((k - 2.0) * grid.fs_profile
           + math.log((k - 2.0) / (2.0 * math.pi)))
    win = grid.window(-grid.half_width + 2.0, grid.half_width - 2.0)
    return float(np.max(np.abs(solution.values - ref)[win]))


# ---------------------------------------------------------------------------
# regularization diagonal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalResult:
    """One solve per (delta, eps) pair of a regularization diagonal."""

    reports: tuple[SolveReport, ...]
    pairs: tuple[tuple[float, float], ...]

    @property
    def trace(self) -> tuple[float, ...]:
        """Sup distances between the potentials of successive steps."""
        pots = [r.potential for r in self.reports]
        return tuple(float(np.max(np.abs(b - a))) for a, b in zip(pots, pots[1:]))

    @property
    def converged(self) -> bool:
        """The trace has collapsed by a factor four from its peak."""
        return self.trace[-1] <= 0.25 * max(self.trace)


def check_schedule(name: str, sched: Sequence[float]) -> list[float]:
    vals = [float(x) for x in sched]
    if not vals:
        raise ConfigurationError(f"{name} schedule is empty")
    if not all(math.isfinite(x) and x > 0 for x in vals):
        raise ConfigurationError(f"{name} schedule {vals} must stay positive and finite")
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise ConfigurationError(f"{name} schedule {vals} must be strictly decreasing")
    return vals


def diagonal_pairs(delta_schedule: Sequence[float],
                   eps_schedule: Sequence[float]) -> list[tuple[float, float]]:
    """The (delta, eps) steps of a regularization diagonal.

    Schedules are checked and paired index by index, the shorter one held at
    its last value.  Convergence is read from two or more distances between
    successive steps, so a diagonal of fewer than 3 steps could never pass
    and is refused.
    """
    deltas = check_schedule("delta", delta_schedule)
    epses = check_schedule("eps", eps_schedule)
    steps = max(len(deltas), len(epses))
    if steps < 3:
        raise ConfigurationError(
            f"a diagonal of {steps} steps cannot show convergence; need >= 3")
    pad = lambda s: s + [s[-1]] * (steps - len(s))
    return list(zip(pad(deltas), pad(epses)))


def regularized_diagonal(base: MAProblem, delta_schedule: Sequence[float],
                         eps_schedule: Sequence[float],
                         tol: float = DEFAULT_TOL) -> DiagonalResult:
    """Walk the (delta, eps) regularization family down a joint diagonal.

    The steps are :func:`diagonal_pairs` of the schedules; each solve starts
    from the :func:`polynomial_start` in ``delta + eps`` through the
    potentials before it on the diagonal (distinct, since both schedules
    decrease strictly and only the shorter one is held at its last value),
    and successive bounded potentials are compared in sup norm.  The
    diagonal is declared convergent when the distance trace has collapsed by
    at least a factor four from its peak (``DiagonalResult.converged``).
    """
    pairs = diagonal_pairs(delta_schedule, eps_schedule)
    sums = [d + e for d, e in pairs]
    reports: list[SolveReport] = []
    for idx, (d, e) in enumerate(pairs):
        v0 = polynomial_start([r.potential for r in reports], sums[:idx], sums[idx])
        reports.append(solve_ke_ode(base.with_regularization(d, e), tol=tol, v0=v0))
    return DiagonalResult(tuple(reports), tuple(pairs))


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
    log_mass = logsumexp(phi + log_density + grid.log_trapezoid_weights)
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
