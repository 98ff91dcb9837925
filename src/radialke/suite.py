"""Acceptance suite: every contract the package certifies, as callable checks.

Each criterion returns a :class:`CriterionResult` with a verdict and the
measured quantities, so the same functions back both the test suite and the
``radialke suite`` command.  Expensive runs (iteration sweeps, kernel
recursions) are shared between criteria through an explicit cache.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import ConfigurationError
from .geometry import (default_grid, divisor, fs_weight, kink_weight,
                       make_grid)
from . import bergman, family as family_mod, ricci as ricci_mod
from .masolver import (CLOSED_FORM_TOL, closed_form_error, energy,
                       energy_variation, g_functional, ke_problem,
                       regularized_diagonal, solve_ke_ode, uniform_bound_check)

RICCI_CONFIGS = tuple((p, a0) for p in (2, 3, 5) for a0 in (None, "1/2"))
#: seed of the randomized perturbation checks when the run names none
DEFAULT_SEED = 20240801


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid:2d}: {self.name} ({self.elapsed:.2f}s)"


def _timed(fn: Callable[[dict], tuple[bool, dict]], cid: int, name: str,
           cache: dict) -> CriterionResult:
    t0 = time.perf_counter()
    passed, details = fn(cache)
    return CriterionResult(cid, name, passed, details, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# individual criteria
# ---------------------------------------------------------------------------

def _crit_closed_form(cache: dict) -> tuple[bool, dict]:
    grid = default_grid()
    t0 = time.perf_counter()
    rep = solve_ke_ode(ke_problem(4.0, grid=grid))
    elapsed = time.perf_counter() - t0
    err = closed_form_error(rep.solution, 4.0)
    details = {"sup_error": err, "solve_seconds": elapsed,
               "iterations": rep.iterations, "mass_defect": rep.mass_defect}
    return err <= CLOSED_FORM_TOL and elapsed < 1.0, details


def _ricci_runs(cache: dict) -> dict:
    # N = 1024: float64 second differences resolve curvature to ~2e-14 here,
    # so sup-norm ratios stay clean all the way down to the 1e-10 gap floor
    if "ricci" not in cache:
        runs = {}
        grid = make_grid(30.0, 1024)
        for p, a0 in RICCI_CONFIGS:
            D = divisor(zero=a0) if a0 else None
            t0 = time.perf_counter()
            state, trace = ricci_mod.run_ricci(4.0, D, p, m_max=200,
                                               stop_tol=1e-10, grid=grid)
            runs[(p, a0)] = (state, trace, time.perf_counter() - t0)
        cache["ricci"] = runs
    return cache["ricci"]


def _crit_contraction(cache: dict) -> tuple[bool, dict]:
    ok = True
    details = {}
    for (p, a0), (state, trace, secs) in _ricci_runs(cache).items():
        bound = (p - 1) / p
        gaps = np.array(trace.gaps)
        env = gaps <= bound ** np.arange(len(gaps)) * gaps[0] * (1 + 1e-2)
        entry = {
            "steps": state.m,
            "max_ratio": max(trace.ratios),
            "bound": trace.bound,
            "violations": list(trace.violations),
            "envelope_holds": bool(np.all(env)),
            "seconds": secs,
        }
        details[f"p{p}_{'conic' if a0 else 'smooth'}"] = entry
        ok &= (not trace.violations and entry["envelope_holds"] and secs < 30.0
               and gaps[-1] <= 1e-10)
    return ok, details


def _crit_limit_identification(cache: dict) -> tuple[bool, dict]:
    runs = _ricci_runs(cache)
    ok = True
    details = {}
    for a0 in (None, "1/2"):
        state, trace, _ = runs[(2, a0)]
        D = state.problem.divisor
        ke = solve_ke_ode(ke_problem(4.0, D, state.problem.grid))
        residual = ricci_mod.fixed_point_residual(state)
        cmp = ricci_mod.compare_to_ke(state, ke)
        a_zero = float(D.coefficient("zero"))
        exact = (cmp["lelong_zero_diff"] == a_zero
                 and cmp["lelong_infinity_diff"] == float(D.coefficient("infinity")))
        entry = {"fixed_point_residual": residual,
                 "sup_distance": cmp["sup_distance"],
                 "lelong_zero_diff": cmp["lelong_zero_diff"],
                 "lelong_exact": exact}
        details["conic" if a0 else "smooth"] = entry
        ok &= residual <= 1e-6 and cmp["sup_distance"] <= 1e-5 and exact
    return ok, details


def _smooth_chain(cache: dict) -> bergman.WeightChain:
    # the p = 1 chain of the twist k = 4, shared by criteria 4 and 5
    if "chain_smooth" not in cache:
        cache["chain_smooth"] = bergman.build_chain(4.0, None, p=1, m=1)
    return cache["chain_smooth"]


def _crit_gram_oracle(cache: dict) -> tuple[bool, dict]:
    got = np.exp(bergman.bergman_step(None, _smooth_chain(cache)).log_gram)
    expected = np.array([2.0 * math.pi / 3.0, math.pi / 3.0, 2.0 * math.pi / 3.0])
    rel = float(np.max(np.abs(got / expected - 1.0)))
    return rel <= 1e-8, {"gram": got.tolist(), "expected": expected.tolist(),
                         "max_relative_error": rel}


def _bergman_runs(cache: dict) -> dict:
    if "bergman" not in cache:
        runs = {}
        chain_s = _smooth_chain(cache)
        t0 = time.perf_counter()
        runs["smooth"] = (bergman.run_levels(chain_s, 200), time.perf_counter() - t0)
        chain_c = bergman.build_chain(4.0, divisor(zero="1/2"), p=2, m=1)
        t0 = time.perf_counter()
        runs["conic"] = (bergman.run_levels(chain_c, 200), time.perf_counter() - t0)
        cache["bergman"] = runs
    return cache["bergman"]


def _crit_bergman_convergence(cache: dict) -> tuple[bool, dict]:
    runs = _bergman_runs(cache)
    bounds = {"smooth": 0.05, "conic": 0.1}
    ok = True
    details = {}
    for name, (run, secs) in runs.items():
        check = bergman.convergence_check(run, monotone_from=20)
        stride = bergman.stride_check(run)
        entry = {"final_distance": check["final_distance"],
                 "bound": bounds[name], "monotone_from_20": check["monotone"],
                 "route_agreement": check["route_agreement"],
                 "stride": stride, "seconds": secs}
        details[name] = entry
        route_ok = (check["route_agreement"] is None
                    or check["route_agreement"] <= bergman.ROUTE_TOL)
        ok &= (check["final_distance"] <= bounds[name] and check["monotone"]
               and secs < 300.0 and route_ok and stride["holds"])
    return ok, details


def _crit_integral_chain(cache: dict) -> tuple[bool, dict]:
    runs = _bergman_runs(cache)
    ok = True
    details = {}
    for name, (run, _) in runs.items():
        cert = bergman.integral_chain_check(run, rel_tol=1e-8)
        details[name] = cert | {"count_formula_applies": name == "smooth"}
        ok &= cert["holds"] and (name != "smooth" or cert["count_formula_exact"] is True)
    return ok, details


def _crit_variational(cache: dict) -> tuple[bool, dict]:
    # unit-volume class: the free-energy functional is gauge free and the
    # solved potential is its exact maximizer
    seed = cache.get("seed", DEFAULT_SEED)
    grid = default_grid()
    prob = ke_problem(3.0, grid=grid)
    rep = solve_ke_ode(prob)
    log_mu = prob.log_density_at_background()
    phi = rep.potential

    rng = np.random.default_rng(seed)
    t = grid.nodes
    margins = []
    fd_errors = []
    g_star = g_functional(phi, prob.background, log_mu)
    for _ in range(100):
        v = np.zeros(t.size)
        for _ in range(3):
            center = rng.uniform(-8.0, 8.0)
            width = rng.uniform(0.5, 3.0)
            v += rng.uniform(-1.0, 1.0) * np.exp(-((t - center) / width) ** 2 / 2.0)
        v *= rng.uniform(0.02, 0.1) / max(1e-30, float(np.max(np.abs(v))))
        margins.append(g_star - g_functional(phi + v, prob.background, log_mu))
        s = 1e-5
        fd = (energy(phi + s * v, prob.background) - energy(phi, prob.background)) / s
        fd_errors.append(abs(fd - energy_variation(phi, v, prob.background)))
    margins = np.array(margins)
    fd_errors = np.array(fd_errors)
    ok = bool(np.all(margins >= -1e-9) and np.max(fd_errors) <= 1e-6)
    return ok, {"min_margin": float(np.min(margins)),
                "max_fd_error": float(np.max(fd_errors)),
                "perturbations": margins.size, "seed": seed}


def _crit_regularization(cache: dict) -> tuple[bool, dict]:
    grid = default_grid()
    schedules = [0.1 * 0.5 ** i for i in range(12)]
    ok = True
    details = {}
    kinked = fs_weight(3.0, grid) + kink_weight(grid)
    for name, twist in (("smooth", None), ("kinked", kinked)):
        base = ke_problem(4.0, grid=grid, twist=twist)
        plain = solve_ke_ode(base)
        diag = regularized_diagonal(base, schedules, schedules)
        dist = float(np.max(np.abs(diag.reports[-1].potential - plain.potential)))
        bound_cert = uniform_bound_check(diag.reports)
        details[name] = {"final_distance": dist, "converged": diag.converged,
                         "trace_tail": list(diag.trace[-3:]),
                         "uniform_bound": bound_cert["bound"]}
        ok &= dist < 1e-3 and diag.converged
    return ok, details


def _families(cache: dict) -> dict:
    # the default-base product, perturbed and conic families of criteria 9, 10
    if "families" not in cache:
        cache["families"] = {
            name: family_mod.build_family(recipe) for name, recipe in (
                ("product", family_mod.product_family_recipe(4.0)),
                ("perturbed", family_mod.perturbed_family_recipe(4.0, 0.05)),
                ("conic", family_mod.conic_family_recipe(4.0, Fraction(1, 2), 0.05)))}
    return cache["families"]


def _crit_family_positivity(cache: dict) -> tuple[bool, dict]:
    ok = True
    details = {}
    for name, fam in _families(cache).items():
        rel = family_mod.solve_fiberwise(fam)
        cert = family_mod.base_positivity_check(rel)
        details[name] = {k: cert[k] for k in ("passed", "min_tt", "min_det")}
        ok &= cert["passed"]
    control = family_mod.build_family(
        family_mod.perturbed_family_recipe(4.0, -0.05), bypass_precheck=True)
    rel_c = family_mod.solve_fiberwise(control)
    cert_c = family_mod.base_positivity_check(rel_c)
    details["control"] = {k: cert_c[k] for k in ("passed", "min_tt", "min_det")}
    ok &= not cert_c["passed"]
    return ok, details


def _crit_ns_and_bound(cache: dict) -> tuple[bool, dict]:
    certs = [cert for fam in _families(cache).values()
             for _, _, cert in family_mod.section_norm_checks(fam)]
    details = {"ns_pairs": len(certs),
               "ns_worst_second_diff": min(cert["min_second_diff"] for cert in certs)}

    bounds = {}
    for N in (2048, 4096):
        fam = family_mod.build_family(family_mod.perturbed_family_recipe(4.0, 0.05),
                                      fiber_grid=make_grid(30.0, N))
        rel = family_mod.solve_fiberwise(fam)
        bounds[N] = family_mod.uniform_sup_check(rel, (-2.0, 2.0))["bound"]
    drift = abs(bounds[4096] - bounds[2048])
    details["uniform_bound"] = bounds[2048]
    details["bound_drift_on_doubling"] = drift
    return all(cert["passed"] for cert in certs) and drift <= 1e-4, details


CRITERIA: tuple[tuple[int, str, Callable], ...] = (
    (1, "closed-form direct solve oracle", _crit_closed_form),
    (2, "iteration contraction ratios and envelope", _crit_contraction),
    (3, "limit identification against the direct solve", _crit_limit_identification),
    (4, "level-one Gram oracle", _crit_gram_oracle),
    (5, "renormalized kernel convergence", _crit_bergman_convergence),
    (6, "finite-level integral chain", _crit_integral_chain),
    (7, "variational maximizer and energy variation", _crit_variational),
    (8, "regularization diagonal stability", _crit_regularization),
    (9, "family positivity with failing control", _crit_family_positivity),
    (10, "section-norm convexity and uniform bound", _crit_ns_and_bound),
)


def check_criteria(ids: Iterable[int]) -> None:
    """Refuse criterion ids that name no acceptance criterion."""
    unknown = set(ids) - {cid for cid, _, _ in CRITERIA}
    if unknown:
        raise ConfigurationError(f"unknown criteria: {sorted(unknown)}")


def run_criteria(ids: Optional[list[int]] = None,
                 seed: Optional[int] = None) -> list[CriterionResult]:
    """Run the selected acceptance criteria (all by default) in order.

    ``seed`` (default ``DEFAULT_SEED``) drives the randomized perturbation
    checks and is recorded in their details.
    """
    cache = {} if seed is None else {"seed": int(seed)}
    check_criteria(ids or ())
    wanted = set(ids) if ids else {cid for cid, _, _ in CRITERIA}
    results = []
    for cid, name, fn in CRITERIA:
        if cid in wanted:
            results.append(_timed(fn, cid, name, cache))
    return results
