"""The four benchmark workloads, each certified by the library's own checks.

A workload draws its inputs from ``--seed`` (:func:`Workload.draw`), makes one
small warm-up call, then runs full passes.  A pass calls only public
``radialke`` functions and records every verdict in a :class:`Checks`
ledger at the acceptance suite's tolerances.  Wall-clock gates of the suite
are left out: time is what the benchmark measures, not what it certifies.

Reference checks compare against an answer computed by a different method
(closed form, the other route, a scipy oracle); only they feed
``ref_margin_digits``.  Limit and grid-refinement checks (regularization
diagonal, uniform-bound drift) still count as checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from radialke import bergman, family, ricci
from radialke.geometry import divisor, fs_weight, kink_weight, make_grid
from radialke.masolver import (ke_problem, regularized_diagonal, solve_ke_ode,
                               uniform_bound_check)

K = 4.0
#: expected verdict of the positivity certificate on the concave control
#: family; the negative test flips it to show that a wrong expectation fails
CONTROL_SHOULD_PASS = False
#: an error below this share of its tolerance reads as the cap (16 digits)
MARGIN_FLOOR = 1e-16


class Checks:
    """Ledger of attempted and failed checks plus reference margins."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.margins: list[float] = []

    def expect(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def reference(self, name: str, error: float, tol: float) -> None:
        """``error <= tol`` against an independent answer; logs the margin."""
        self.expect(name, error <= tol)
        self.margins.append(math.log10(tol / max(error, tol * MARGIN_FLOOR)))

    def prevented(self, count: int, name: str) -> None:
        """An exception stopped ``count`` planned checks: all of them fail."""
        self.attempted += count
        self.failed += count
        self.failures.append(f"{name} ({count} planned checks not reached)")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    iterate_n: int = 1024
    iterate_ps: tuple[int, ...] = (2, 3, 5)
    bergman_n: int = 4096
    bergman_levels: int = 100
    regularize_n: int = 4096
    family_base: int = 41
    family_fiber_n: int = 1024
    family_drift_n: tuple[int, int] = (2048, 4096)
    ns_orders: tuple[int, ...] = (1, 2, 3)


FULL = Sizes()
TINY = Sizes(iterate_n=256, iterate_ps=(2,), bergman_n=1024,
             regularize_n=1024, family_base=11, family_fiber_n=512,
             family_drift_n=(512, 1024), ns_orders=(1,))


@dataclass(frozen=True)
class Workload:
    """Seeded inputs, a warm-up call, one certified pass, and the number of
    checks a pass makes."""

    draw: Callable[[int, Sizes], dict]
    warmup: Callable[[dict], None]
    run: Callable[[dict, Checks], None]
    planned: Callable[[dict], int]


# ---------------------------------------------------------------------------
# iterate: p-step iteration, contraction and limit identification (2 + 3)
# ---------------------------------------------------------------------------

def _draw_iterate(seed: int, sizes: Sizes) -> dict:
    a0 = random.Random(seed).choice(["1/3", "1/2", "2/3"])
    return {"grid": make_grid(30.0, sizes.iterate_n), "ps": sizes.iterate_ps,
            "divisors": (None, divisor(zero=a0))}


def _warmup_iterate(inp: dict) -> None:
    ricci.run_ricci(K, inp["divisors"][1], 2, m_max=2, grid=inp["grid"])


def _run_iterate(inp: dict, checks: Checks) -> None:
    grid = inp["grid"]
    for p in inp["ps"]:
        bound = (p - 1) / p
        for D in inp["divisors"]:
            state, trace = ricci.run_ricci(K, D, p, m_max=200, stop_tol=1e-10,
                                           grid=grid)
            gaps = np.array(trace.gaps)
            env = gaps <= bound ** np.arange(gaps.size) * gaps[0] * (1 + 1e-2)
            tag = f"iterate p={p} D={D.terms if D else ()}"
            checks.expect(f"{tag}: ratio <= (p-1)/p + slack", not trace.violations)
            checks.expect(f"{tag}: envelope", bool(np.all(env)))
            checks.expect(f"{tag}: gap reaches 1e-10", gaps[-1] <= 1e-10)
            if p == 2:
                ke = solve_ke_ode(ke_problem(K, D, grid))
                cmp = ricci.compare_to_ke(state, ke)
                checks.expect(f"{tag}: fixed-point residual",
                              ricci.fixed_point_residual(state) <= 1e-6)
                checks.reference(f"{tag}: limit vs direct solve",
                                 cmp["sup_distance"], 1e-5)
                zero = D.coefficient("zero") if D else 0
                checks.expect(f"{tag}: Lelong numbers exact",
                              cmp["lelong_zero_diff"] == float(zero)
                              and cmp["lelong_infinity_diff"] == 0.0)


def _planned_iterate(inp: dict) -> int:
    return 2 * (3 * len(inp["ps"]) + (3 if 2 in inp["ps"] else 0))


# ---------------------------------------------------------------------------
# bergman: kernel recursion to level 100, smooth p=1 and conic p=2 (5 + 6)
# ---------------------------------------------------------------------------

# Only divisors with integral l*p*a: a fractional frame (a0 = 1/3 at p = 2)
# leaves the convergence certificate's scope.  Both members build 11888
# quadrature nodes x (3l + 1) sections, so the seed moves no cost; the
# two-point divisor (2l + 1 sections, 8744 nodes) makes the conic chain cost
# 0.4x and would turn the seed into run_s spread.
BERGMAN_DIVISORS = ({"zero": "1/2"}, {"infinity": "1/2"})


def _draw_bergman(seed: int, sizes: Sizes) -> dict:
    conic = random.Random(seed).choice(BERGMAN_DIVISORS)
    return {"grid": make_grid(30.0, sizes.bergman_n),
            "levels": sizes.bergman_levels, "divisor": divisor(**conic)}


def _warmup_bergman(inp: dict) -> None:
    bergman.run_levels(bergman.build_chain(K, None, p=1, m=1,
                                           grid=make_grid(30.0, 257)), 3)


def _run_bergman(inp: dict, checks: Checks) -> None:
    grid, levels = inp["grid"], inp["levels"]
    for name, D, p, bound in (("smooth", None, 1, 0.05),
                              ("conic", inp["divisor"], 2, 0.1)):
        run = bergman.run_levels(bergman.build_chain(K, D, p=p, m=1, grid=grid),
                                 levels)
        conv = bergman.convergence_check(run, monotone_from=20)
        cert = bergman.integral_chain_check(run, rel_tol=1e-8)
        checks.reference(f"bergman {name}: final distance",
                         conv["final_distance"], bound)
        checks.expect(f"bergman {name}: monotone from level 20", conv["monotone"])
        checks.expect(f"bergman {name}: integral chain", cert["holds"])
        checks.expect(f"bergman {name}: decay guard", run.guard_margin >= 0)
        if name == "smooth":
            checks.reference("bergman smooth: route agreement",
                             conv["route_agreement"], 1e-5)
            checks.expect("bergman smooth: section counts",
                          cert["count_formula_exact"] is True)


def _planned_bergman(inp: dict) -> int:
    return 10


# ---------------------------------------------------------------------------
# regularize: closed-form oracle and the (delta, eps) diagonal (1 + 8)
# ---------------------------------------------------------------------------

def _draw_regularize(seed: int, sizes: Sizes) -> dict:
    a0 = random.Random(seed).choice([0, "1/3", "1/2"])
    grid = make_grid(30.0, sizes.regularize_n)
    return {"grid": grid, "divisor": divisor(zero=a0),
            "twists": (None, fs_weight(3.0, grid) + kink_weight(grid)),
            "schedule": [0.1 * 0.5 ** i for i in range(12)]}


def _warmup_regularize(inp: dict) -> None:
    solve_ke_ode(ke_problem(K, grid=make_grid(30.0, 257)))


def _closed_form_error(grid, values: np.ndarray) -> float:
    """Sup error on [-28, 28] against the closed-form solution at k = 4,
    ``2 log(1 + e^t) - log(pi)``; ``values`` may hold one profile per column."""
    exact = 2.0 * np.logaddexp(0.0, grid.nodes) - math.log(math.pi)
    win = grid.window(-28.0, 28.0)
    return float(np.max(np.abs(values[win].T - exact[win])))


def _run_regularize(inp: dict, checks: Checks) -> None:
    grid = inp["grid"]
    rep = solve_ke_ode(ke_problem(K, grid=grid))
    checks.reference("regularize: closed-form oracle",
                     _closed_form_error(grid, rep.solution.values), 1e-6)
    sched = inp["schedule"]
    for name, twist in zip(("smooth", "kinked"), inp["twists"]):
        base = ke_problem(K, inp["divisor"], grid, twist=twist)
        plain = solve_ke_ode(base)
        diag = regularized_diagonal(base, sched, sched)
        dist = float(np.max(np.abs(diag.reports[-1].potential - plain.potential)))
        checks.expect(f"regularize {name}: diagonal reaches plain solve", dist < 1e-3)
        checks.expect(f"regularize {name}: diagonal converged", diag.converged)
        checks.expect(f"regularize {name}: uniform bound",
                      np.isfinite(uniform_bound_check(diag.reports)["bound"]))


def _planned_regularize(inp: dict) -> int:
    return 7


# ---------------------------------------------------------------------------
# family: positivity with control, section norms, uniform bound (9 + 10)
# ---------------------------------------------------------------------------

def _draw_family(seed: int, sizes: Sizes) -> dict:
    amp = random.Random(seed).choice([0.03, 0.05, 0.07])
    return {"amplitude": amp, "base": np.linspace(-2.0, 2.0, sizes.family_base),
            "fiber": make_grid(30.0, sizes.family_fiber_n),
            "drift_n": sizes.family_drift_n, "orders": sizes.ns_orders,
            "recipes": {
                "product": family.product_family_recipe(K),
                "perturbed": family.perturbed_family_recipe(K, amp),
                "conic": family.conic_family_recipe(K, Fraction(1, 2), amp)}}


def _warmup_family(inp: dict) -> None:
    fam = family.build_family(inp["recipes"]["perturbed"], inp["base"][:3],
                              make_grid(30.0, 257))
    family.solve_fiberwise(fam)


def _ns_pairs(inp: dict) -> list[tuple[str, int, int]]:
    """Every (family, exponent j, root order m) of the section window."""
    return [(name, j, m) for name, r in inp["recipes"].items()
            for m in inp["orders"]
            for j in range(math.floor(m * (r.k + float(r.divisor.total) - 2.0)
                                      + 1e-9) + 1)]


def _run_family(inp: dict, checks: Checks) -> None:
    base, fiber = inp["base"], inp["fiber"]
    fams = {}
    for name, recipe in inp["recipes"].items():
        fam = family.build_family(recipe, base, fiber)
        rel = family.solve_fiberwise(fam)
        cert = family.base_positivity_check(rel, tol=1e-6)
        checks.expect(f"family {name}: joint positivity", cert["passed"])
        fams[name] = fam
        if name == "product":
            checks.reference("family product: fibers vs closed form",
                             _closed_form_error(fiber, rel.weights), 1e-6)
    control = family.build_family(
        family.perturbed_family_recipe(K, -inp["amplitude"]), base, fiber,
        bypass_precheck=True)
    cert = family.base_positivity_check(family.solve_fiberwise(control), tol=1e-6)
    checks.expect("family control: positivity verdict",
                  cert["passed"] == CONTROL_SHOULD_PASS)

    for name, j, m in _ns_pairs(inp):
        checks.expect(f"family {name}: ns convexity j={j} m={m}",
                      family.ns_convexity_check(j, m, fams[name])["passed"])

    bounds = []
    for n in inp["drift_n"]:
        fam = family.build_family(inp["recipes"]["perturbed"], base,
                                  make_grid(30.0, n))
        rel = family.solve_fiberwise(fam)
        bounds.append(family.uniform_sup_check(rel, (-2.0, 2.0))["bound"])
    checks.expect("family: uniform bound finite", np.isfinite(bounds[0]))
    checks.expect("family: bound drift on doubling <= 1e-4",
                  abs(bounds[1] - bounds[0]) <= 1e-4)


def _planned_family(inp: dict) -> int:
    return 3 + 1 + 1 + len(_ns_pairs(inp)) + 2


# Why each workload exists: perfbench/README.md and BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    "iterate": Workload(_draw_iterate, _warmup_iterate, _run_iterate,
                        _planned_iterate),
    "bergman": Workload(_draw_bergman, _warmup_bergman, _run_bergman,
                        _planned_bergman),
    "regularize": Workload(_draw_regularize, _warmup_regularize,
                           _run_regularize, _planned_regularize),
    "family": Workload(_draw_family, _warmup_family, _run_family,
                       _planned_family),
}
