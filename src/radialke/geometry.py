"""Radial reduction on the Riemann sphere: grids, weight profiles, divisors.

A rotation-invariant metric weight is carried as a profile ``u(t)`` on a
uniform grid in ``t = log|z|^2``, together with its asymptotic slopes and the
declared degree of the bundle it lives on.  Under the pinned conventions
(see :mod:`radialke.conventions`):

* positivity of the curvature current is convexity of ``u``;
* the absolutely continuous curvature mass is ``s_plus - s_minus``;
* Lelong numbers sit at the two fixed points: ``s_minus`` at zero and
  ``degree - s_plus`` at infinity.

Profiles with point masses away from the fixed points cannot be represented;
a kinked profile carries ring curvature with zero Lelong number everywhere,
which is the only kind of twist singularity this reduction can model off the
fixed points.

All values are immutable after construction; every operation is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Literal, Optional

import numpy as np

from .errors import ConfigurationError

Location = Literal["zero", "infinity"]

#: default curvature tolerance for the positively-curved flag
TOL_CURV = 1e-9


def readonly_array(a: np.ndarray) -> np.ndarray:
    """``a`` as float64 with writes refused; a float64 array is frozen in place."""
    out = np.asarray(a, dtype=np.float64)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialGrid:
    """Uniform symmetric grid t_0 < ... < t_{N-1} on [-T, T].

    The Fubini-Study profile ``log(1 + e^t)`` of the nodes and its sigmoid
    are computed once per grid, on first use, and are read-only: the model
    weights, the divisor frames and the delta shift all read them.
    """

    half_width: float
    nodes: np.ndarray
    #: trapezoid quadrature weights of the nodes and their logs, computed
    #: once per grid (every quadrature reads them) and read-only
    trapezoid_weights: np.ndarray = field(init=False, compare=False)
    log_trapezoid_weights: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", readonly_array(self.nodes))
        w = np.full(self.node_count, self.spacing)
        w[[0, -1]] *= 0.5
        object.__setattr__(self, "trapezoid_weights", readonly_array(w))
        object.__setattr__(self, "log_trapezoid_weights", readonly_array(np.log(w)))

    @property
    def node_count(self) -> int:
        return self.nodes.size

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.nodes.size - 1)

    @cached_property
    def fs_profile(self) -> np.ndarray:
        """``log(1 + e^t)`` at the nodes."""
        return readonly_array(np.logaddexp(0.0, self.nodes))

    @cached_property
    def fs_sigmoid(self) -> np.ndarray:
        """``e^t / (1 + e^t)`` at the nodes, the slope of :attr:`fs_profile`."""
        return readonly_array(0.5 * (1.0 + np.tanh(0.5 * self.nodes)))

    def window(self, lo: float, hi: float) -> np.ndarray:
        """Boolean mask of nodes inside [lo, hi]."""
        return (self.nodes >= lo) & (self.nodes <= hi)

    def widened(self, half_width: float) -> "RadialGrid":
        """Extend to at least ``half_width`` by whole steps at both ends, or
        ``self`` if no step is needed; the original nodes stay an exact subset."""
        h = self.spacing
        n_ext = int(np.ceil((half_width - self.half_width) / h - 1e-12))
        if n_ext <= 0:
            return self
        left = self.nodes[0] - h * np.arange(n_ext, 0, -1)
        right = self.nodes[-1] + h * np.arange(1, n_ext + 1)
        nodes = np.concatenate([left, self.nodes, right])
        return RadialGrid(half_width=self.half_width + n_ext * h, nodes=nodes)


def make_grid(T: float, N: int) -> RadialGrid:
    """Uniform symmetric grid with half width ``T`` and ``N >= 3`` nodes."""
    if not np.isfinite(T) or T <= 0:
        raise ConfigurationError(f"grid half width must be positive and finite, got {T}")
    if not isinstance(N, (int, np.integer)) or N < 3:
        raise ConfigurationError(f"grid needs an integer node count >= 3, got {N}")
    return RadialGrid(half_width=float(T), nodes=np.linspace(-T, T, N))


DEFAULT_T = 30.0
DEFAULT_N = 4096


def default_grid() -> RadialGrid:
    return make_grid(DEFAULT_T, DEFAULT_N)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialWeight:
    """Profile ``u(t)`` with asymptotic slopes and declared bundle degree.

    ``degree`` is the degree of the bundle the weight is declared on.  For
    weights whose curvature carries no point mass at the fixed points it
    coincides with ``slope_plus - slope_minus``; divisor weights declare the
    full degree explicitly.  ``curvature`` optionally stores the analytic
    second derivative; solvers prefer it over finite differences when present.
    """

    grid: RadialGrid
    values: np.ndarray
    slope_minus: float
    slope_plus: float
    degree: float
    curvature: Optional[np.ndarray] = None

    def __post_init__(self):
        v = readonly_array(self.values)
        if v.shape != self.grid.nodes.shape:
            raise ConfigurationError("weight values do not match the grid")
        object.__setattr__(self, "values", v)
        if self.curvature is not None:
            c = readonly_array(self.curvature)
            if c.shape != v.shape:
                raise ConfigurationError("curvature array does not match the grid")
            object.__setattr__(self, "curvature", c)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "RadialWeight") -> "RadialWeight":
        self._check_same_grid(other)
        curv = None
        if self.curvature is not None and other.curvature is not None:
            curv = self.curvature + other.curvature
        return RadialWeight(self.grid, self.values + other.values,
                            self.slope_minus + other.slope_minus,
                            self.slope_plus + other.slope_plus,
                            self.degree + other.degree, curv)

    def __sub__(self, other: "RadialWeight") -> "RadialWeight":
        return self + other.scaled(-1.0)

    def scaled(self, a: float) -> "RadialWeight":
        curv = None if self.curvature is None else a * self.curvature
        return RadialWeight(self.grid, a * self.values, a * self.slope_minus,
                            a * self.slope_plus, a * self.degree, curv)

    def shifted(self, c: float) -> "RadialWeight":
        """Add a constant; constants carry no mass and no degree."""
        return replace(self, values=self.values + c)

    def _check_same_grid(self, other: "RadialWeight") -> None:
        if not np.array_equal(other.grid.nodes, self.grid.nodes):
            raise ConfigurationError("weights live on different grids")

    # -- calculus on the grid -----------------------------------------------

    def second_differences(self) -> np.ndarray:
        """Discrete u'' with slope-consistent extension at the two ends."""
        u, h = self.values, self.grid.spacing
        d2 = np.empty_like(u)
        d2[1:-1] = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / h**2
        left_ghost = u[0] - h * self.slope_minus
        right_ghost = u[-1] + h * self.slope_plus
        d2[0] = (left_ghost - 2.0 * u[0] + u[1]) / h**2
        d2[-1] = (u[-2] - 2.0 * u[-1] + right_ghost) / h**2
        return d2

    def derivative(self) -> np.ndarray:
        u, h = self.values, self.grid.spacing
        d = np.empty_like(u)
        d[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
        d[0] = 0.5 * ((u[1] - u[0]) / h + self.slope_minus)
        d[-1] = 0.5 * ((u[-1] - u[-2]) / h + self.slope_plus)
        return d

    @cached_property
    def mass(self) -> float:
        """:func:`weight_mass` at its default tolerance, checked once per
        weight: a weight never changes after construction."""
        return weight_mass(self)

    def curvature_profile(self) -> np.ndarray:
        return self.curvature if self.curvature is not None else self.second_differences()

    def is_positively_curved(self, tol: float = TOL_CURV) -> bool:
        return bool(np.min(self.second_differences()) >= -tol)

    def widened(self, grid: RadialGrid) -> "RadialWeight":
        """This weight on ``grid``, its own grid widened by
        :meth:`RadialGrid.widened` (``self`` if that added no node), so that
        weights on one grid widen onto one shared grid.

        The original nodes keep their values; the added ones continue along
        the asymptotic slopes, which is exact up to the exponentially small
        tail of the bounded part.  A widened copy keeps no ``curvature``.
        """
        if grid is self.grid:
            return self
        n = (grid.node_count - self.grid.node_count) // 2
        t, told = grid.nodes, self.grid.nodes
        vals = np.concatenate([self.values[0] + self.slope_minus * (t[:n] - told[0]),
                               self.values,
                               self.values[-1] + self.slope_plus * (t[-n:] - told[-1])])
        return RadialWeight(grid, vals, self.slope_minus, self.slope_plus,
                            self.degree)


def fs_weight(k: float, grid: RadialGrid) -> RadialWeight:
    """Fubini-Study model weight ``k log(1 + e^t)`` of degree ``k >= 0``.

    Smooth, convex, slopes (0, k); the standard positively curved twist.
    """
    k = float(k)
    if not np.isfinite(k) or k < 0:
        raise ConfigurationError(f"fs_weight needs k >= 0, got {k}")
    sig = grid.fs_sigmoid
    return RadialWeight(grid, k * grid.fs_profile, 0.0, k, k, k * sig * (1.0 - sig))


def kink_weight(grid: RadialGrid) -> RadialWeight:
    """``max(t, 0)``: degree 1, slopes (0, 1), curvature a unit ring mass."""
    t = grid.nodes
    return RadialWeight(grid, np.maximum(t, 0.0), 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# mass, Lelong numbers, mollification
# ---------------------------------------------------------------------------

def weight_mass(w: RadialWeight, tol: float = 1e-6) -> float:
    """Absolutely continuous curvature mass ``s_plus - s_minus``.

    Cross-checked against the trapezoid integral of the discrete second
    differences; a mismatch beyond ``tol`` means the stored slopes do not
    belong to the profile and the weight is rejected as inconsistent.
    """
    mass = w.slope_plus - w.slope_minus
    integral = float(np.sum(w.grid.trapezoid_weights * w.second_differences()))
    if abs(integral - mass) > tol:
        raise ConfigurationError(
            f"declared slope mass {mass} disagrees with integrated mass "
            f"{integral} beyond tol {tol}")
    return mass


def lelong_numbers(w: RadialWeight) -> tuple[float, float]:
    """Lelong numbers at the two fixed points, ``(at zero, at infinity)``."""
    return w.slope_minus, w.degree - w.slope_plus


def mollify_weight(w: RadialWeight, eps: float) -> RadialWeight:
    """Smooth a convex profile by logistic-kernel convolution at scale eps.

    The profile is read as piecewise linear with its declared slopes beyond
    the grid; convolving that model with the logistic density of scale eps
    has the closed form

        mollified = values + sum_i jump_i * eps * log(1 + exp(-|t - t_i|/eps))

    where ``jump_i`` are the slope jumps at the nodes.  A single kink
    ``max(t, 0)`` becomes the softplus ``eps log(1 + e^{t/eps})``, so the
    value added at a kink is exactly ``eps log 2``.  The family increases
    pointwise in eps and decreases to the original profile as eps -> 0, with
    slopes and degree unchanged.  On the uniform grid the sum is a banded
    convolution: the term is below ``1e-19 eps`` once ``|t - t_i| > 45 eps``,
    so the kernel is sampled at ``k h`` for ``|k| <= min(N - 1, ceil(45 eps/h))``,
    the full sum once the band spans the grid.
    """
    if not np.isfinite(eps) or eps <= 0:
        raise ConfigurationError(f"mollification scale must be positive, got {eps}")
    n, h = w.grid.node_count, w.grid.spacing
    jumps = np.diff(np.diff(w.values) / h, prepend=w.slope_minus, append=w.slope_plus)
    band = int(min(n - 1, np.ceil(45.0 * eps / h)))
    kernel = eps * np.log1p(np.exp(-np.abs(np.arange(-band, band + 1)) * h / eps))
    out = w.values + np.convolve(jumps, kernel)[band:band + n]
    return RadialWeight(w.grid, out, w.slope_minus, w.slope_plus, w.degree)


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivisorData:
    """Effective Q-divisor supported at the two torus-fixed points: its
    coefficient at zero and at infinity.

    Coefficients are exact rationals so that level arithmetic downstream
    (ceilings of multiples) is exact; Fractions, strings and floats are
    coerced, and what is not a finite rational >= 0 is refused.  Frames are
    fixed to the Fubini-Study frames, under which both section norms lie in
    (0, 1).
    """

    zero: Fraction = Fraction(0)
    infinity: Fraction = Fraction(0)

    def __post_init__(self):
        for loc in ("zero", "infinity"):
            value = getattr(self, loc)
            try:
                coeff = Fraction(value)
                if coeff < 0:
                    raise ValueError(value)
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise ConfigurationError(f"divisor coefficient at {loc} must be a "
                                         f"finite rational >= 0, got {value!r}") from None
            object.__setattr__(self, loc, coeff)

    @property
    def terms(self) -> tuple[tuple[Location, Fraction], ...]:
        """The nonzero ``(point, coefficient)`` pairs, zero first."""
        return tuple((loc, c) for loc, c in (("zero", self.zero),
                                             ("infinity", self.infinity)) if c)

    @property
    def is_empty(self) -> bool:
        return self.zero == self.infinity == 0

    @property
    def is_klt(self) -> bool:
        return self.zero < 1 and self.infinity < 1

    def coefficient(self, loc: Location) -> Fraction:
        return {"zero": self.zero, "infinity": self.infinity}[loc]

    @property
    def total(self) -> Fraction:
        return self.zero + self.infinity


#: the constructor under its short name
divisor = DivisorData


def fs_frame_log(loc: Location, grid: RadialGrid) -> np.ndarray:
    """log of the Fubini-Study frame norm of the section at ``loc``, one of
    the two points of :attr:`DivisorData.terms`."""
    sp = grid.fs_profile
    return grid.nodes - sp if loc == "zero" else -sp


def divisor_frame_log(D: DivisorData, grid: RadialGrid, eps: float = 0.0) -> np.ndarray:
    """``sum_i a_i log(|s_i|^2 + eps^2)`` in the Fubini-Study frames."""
    if eps < 0 or not np.isfinite(eps):
        raise ConfigurationError(f"frame floor must be finite and >= 0, got {eps}")
    out = np.zeros(grid.node_count)
    for loc, coeff in D.terms:
        log_frame = fs_frame_log(loc, grid)
        if eps > 0:
            log_frame = np.logaddexp(log_frame, 2.0 * np.log(eps))
        out += float(coeff) * log_frame
    return out


def divisor_log_weight(D: DivisorData, grid: RadialGrid) -> RadialWeight:
    """Canonical singular weight of the divisor in the monomial frame.

    Profile ``a_0 t`` with declared degree ``a_0 + a_inf``: all curvature
    sits in the point masses, so Lelong numbers are the coefficients and the
    a.c. mass is zero.
    """
    a0 = float(D.coefficient("zero"))
    return RadialWeight(grid, a0 * grid.nodes, a0, a0, float(D.total),
                        np.zeros(grid.node_count))

