"""Warm-started Newton solves: the chained callers start from a prediction
from their neighbours and must still return the cold (flat-start) answer,
with a deterministic number of tridiagonal solves."""

import warnings

import numpy as np
import pytest

from radialke import family as fam
from radialke import geometry as geo
from radialke import masolver as ma
from radialke import ricci

GRID_1024 = geo.make_grid(30.0, 1024)
BASE_41 = np.linspace(-2.0, 2.0, 41)
BASE_9 = np.linspace(-2.0, 2.0, 9)
#: (recipe, base nodes, precheck bypass) of the continued fiber families:
#: the perturbed and conic families, the bypassed concave control and a
#: coarse base, where the extrapolation reaches twice as far
FAMILIES = {
    "perturbed": (fam.perturbed_family_recipe(4.0, 0.05), BASE_41, False),
    "conic": (fam.conic_family_recipe(4.0, "1/2", 0.05), BASE_41, False),
    "control": (fam.perturbed_family_recipe(4.0, -0.05), BASE_41, True),
    "base-9": (fam.perturbed_family_recipe(4.0, 0.05), BASE_9, False),
}
SOLVE = ma.solve_ke_ode


def cold_solve(prob, tol=ma.DEFAULT_TOL, *, v0=None):
    """The cold oracle: the same solve from the flat start, ``v0`` ignored."""
    return SOLVE(prob, tol)


def count_tridiag(monkeypatch) -> list:
    """Count the tridiagonal solves of every Newton step from here on."""
    calls = []
    solve = ma.tridiag_solve

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(ma, "tridiag_solve", counted)
    return calls


def count_ke_problems(monkeypatch) -> list:
    """Count the :func:`masolver.ke_problem` builds from here on."""
    calls = []
    build_problem = ma.ke_problem

    def counted(*args, **kwargs):
        calls.append(1)
        return build_problem(*args, **kwargs)

    monkeypatch.setattr(ma, "ke_problem", counted)
    monkeypatch.setattr(fam, "ke_problem", counted)
    return calls


def count_mass_checks(monkeypatch) -> list:
    """Count the curvature mass checks of weights from here on."""
    calls = []
    check = geo.weight_mass

    def counted(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(geo, "weight_mass", counted)
    return calls


def count_frame_logs(monkeypatch) -> list:
    """Count the divisor frame log builds of problems from here on."""
    calls = []
    frame_log = ma.divisor_frame_log

    def counted(*args, **kwargs):
        calls.append(1)
        return frame_log(*args, **kwargs)

    monkeypatch.setattr(ma, "divisor_frame_log", counted)
    return calls


def build(name):
    recipe, base, bypass = FAMILIES[name]
    return fam.build_family(recipe, base, GRID_1024, bypass_precheck=bypass)


# ---------------------------------------------------------------------------
# the predictor and the reused step problem
# ---------------------------------------------------------------------------

def test_polynomial_start_continues_chain_affine_in_coupling_power():
    x = np.array([0.5, -0.25, 0.125, 1.0])
    d = np.array([-0.5, 0.25, 0.75, 0.0625])
    c = 2.0 / 3.0  # the p-step coupling at p = 3
    chain = [x + c ** m * d for m in range(12)]
    # past m = 5 the window slides over the last POLY_POINTS weights
    for m in range(1, 11):
        got = ma.polynomial_start(chain[:m + 1], [c ** j for j in range(m + 1)],
                                  c ** (m + 1))
        assert np.max(np.abs(got - chain[m + 1])) <= 1e-15


def test_polynomial_start_at_a_node_returns_the_potential_solved_there():
    v0, v1, v2 = (np.array([0.25, -1.5, 3.0]) + i for i in range(3))
    assert ma.polynomial_start([v0, v1, v2], [1.0, 0.5, 0.25], 0.5) is v1
    # the p-step chain at p = 1: c^m = 0 for every m >= 1, nodes repeat
    assert ma.polynomial_start([v0, v1], [1.0, 0.0], 0.0) is v1
    assert ma.polynomial_start([v0, v1, v2], [1.0, 0.0, 0.0], 0.0) is v2


def test_polynomial_start_reproduces_quintic_in_the_parameter():
    x = np.array([1.0, -2.0, 0.5, 8.0])
    coeffs = [c * x for c in (0.3, -0.7, 0.4, -0.15, 0.05, -0.01)]
    quintic = lambda mu: sum(c * mu ** i for i, c in enumerate(coeffs))
    mus = np.exp(np.linspace(-2.0, 0.5, 9))
    solved = [quintic(mu) for mu in mus[:8]]
    got = ma.polynomial_start(solved, mus[:8], mus[8])
    assert np.max(np.abs(got - quintic(mus[8]))) <= 1e-12


def test_polynomial_start_short_and_constant_chains():
    v = np.array([0.25, -1.5, 3.0])
    assert ma.polynomial_start([], [], 1.0) is None
    assert np.array_equal(ma.polynomial_start([v], [1.0], 2.0), v)
    # identical fibers (the product family) are continued unchanged
    mus = np.exp(np.linspace(-2.0, 2.0, 41))
    got = ma.polynomial_start([v] * 40, mus[:40], mus[40])
    assert np.max(np.abs(got - v)) <= 1e-15


@pytest.mark.parametrize("D", [None, geo.divisor(zero="1/2")],
                         ids=["smooth", "half-zero"])
def test_reused_step_problem_is_bitwise_fresh(D):
    state = ricci.initial_state(4.0, D, 3, GRID_1024)
    for _ in range(2):
        state = ricci.ricci_step(state)
        reused = state.problem
        fresh = ma.ricci_problem(4.0, D, 3, state.weight, GRID_1024)
        assert reused.prev is state.weight
        assert np.array_equal(reused.log_density_at_background(),
                              fresh.log_density_at_background())
        assert np.array_equal(reused.background.curvature_profile(),
                              fresh.background.curvature_profile())


# ---------------------------------------------------------------------------
# warm starts give the cold answer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 5])
@pytest.mark.parametrize("D", [None, geo.divisor(zero="1/2")])
def test_ricci_warm_run_matches_cold(monkeypatch, p, D):
    kwargs = dict(m_max=200, stop_tol=1e-10, grid=GRID_1024)
    warm, warm_trace = ricci.run_ricci(4.0, D, p, **kwargs)
    monkeypatch.setattr(ricci, "solve_ke_ode", cold_solve)
    cold, cold_trace = ricci.run_ricci(4.0, D, p, **kwargs)
    assert warm.m == cold.m
    assert warm_trace.violations == cold_trace.violations
    assert abs(max(warm_trace.ratios) - max(cold_trace.ratios)) <= 1e-9
    assert np.max(np.abs(warm.weight.values - cold.weight.values)) <= 1e-12


def test_ricci_p1_chain_with_repeated_nodes_runs_every_step():
    # at p = 1 the coupling is 0, so the extrapolation nodes c^m repeat
    state, trace = ricci.run_ricci(4.0, None, 1, m_max=6, stop_tol=1e-300,
                                   grid=GRID_1024)
    assert state.m == 6
    assert max(trace.gaps[1:]) <= 1e-14


@pytest.mark.parametrize("name", list(FAMILIES))
def test_fiberwise_continuation_matches_cold(monkeypatch, name):
    f = build(name)
    warm = fam.solve_fiberwise(f)
    monkeypatch.setattr(fam, "solve_ke_ode", cold_solve)
    cold = fam.solve_fiberwise(f)
    assert np.max(np.abs(warm.weights - cold.weights)) <= 1e-12


def test_diagonal_warm_chain_matches_cold(monkeypatch):
    base = ma.ke_problem(4.0, geo.divisor(zero="1/2"), GRID_1024)
    sched = [0.1 * 0.5 ** i for i in range(6)]
    # equal lengths, and a shorter eps schedule held at its last value
    for eps_sched in (sched, [0.2, 0.1, 0.05]):
        warm = ma.regularized_diagonal(base, sched, eps_sched)
        with monkeypatch.context() as m:
            m.setattr(ma, "solve_ke_ode", cold_solve)
            cold = ma.regularized_diagonal(base, sched, eps_sched)
        assert warm.converged == cold.converged
        for w, c in zip(warm.reports, cold.reports, strict=True):
            assert np.max(np.abs(w.potential - c.potential)) <= 1e-12


@pytest.mark.parametrize("D", [None, geo.divisor(zero="1/2")])
def test_damping_contract_from_any_start(D):
    prob = ma.ke_problem(4.0, D, geo.default_grid())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = ma.solve_ke_ode(prob)
        again = ma.solve_ke_ode(prob, v0=ref.potential)
        assert again.iterations <= 1
        assert np.max(np.abs(again.potential - ref.potential)) <= 1e-13
        for shift in (3.0, -3.0):
            far = ma.solve_ke_ode(prob, v0=ref.potential + shift)
            assert np.max(np.abs(far.potential - ref.potential)) <= 1e-13
            assert far.residual <= ma.DEFAULT_TOL


def test_step_at_rounding_floor_ends_without_halving_sweep(monkeypatch):
    prob = ma.ke_problem(4.0, grid=GRID_1024)
    ref = ma.solve_ke_ode(prob)
    calls = count_tridiag(monkeypatch)
    residuals = []
    residual = ma.newton_residual

    def counted(*args):
        residuals.append(1)
        return residual(*args)

    monkeypatch.setattr(ma, "newton_residual", counted)
    ma.solve_ke_ode(prob, v0=ref.potential)
    # one Newton step, tried once in full: no halvings to prove the stall
    assert len(calls) == 1 and len(residuals) == 2


# ---------------------------------------------------------------------------
# work-count guard: tridiagonal solves per chained solve
# ---------------------------------------------------------------------------

def test_ricci_tridiag_budget(monkeypatch):
    calls = count_tridiag(monkeypatch)
    state, _ = ricci.run_ricci(4.0, None, 3, grid=GRID_1024)
    assert len(calls) <= 1.15 * state.m


@pytest.mark.parametrize("name,per_fiber", [
    ("perturbed", 1.5), ("conic", 1.5), ("control", 1.5), ("base-9", 3.0)],
    ids=["perturbed", "conic", "control", "base-9"])
def test_fiberwise_tridiag_budget(monkeypatch, name, per_fiber):
    f = build(name)
    calls = count_tridiag(monkeypatch)
    fam.solve_fiberwise(f)
    assert len(calls) <= per_fiber * f.base_count


def test_diagonal_tridiag_budget(monkeypatch):
    base = ma.ke_problem(4.0, grid=geo.make_grid(30.0, 4096))
    sched = [0.1 * 0.5 ** i for i in range(12)]
    calls = count_tridiag(monkeypatch)
    ma.regularized_diagonal(base, sched, sched)
    assert len(calls) <= 3.0 * len(sched)


# ---------------------------------------------------------------------------
# work-count guard: problem builds and mass checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(FAMILIES))
def test_one_problem_build_and_mass_check_per_family(monkeypatch, name):
    # the family builds its fiber equation once; solving it, once or
    # twice, builds and checks no other
    builds = count_ke_problems(monkeypatch)
    checks = count_mass_checks(monkeypatch)
    f = build(name)
    assert len(builds) == 1 and len(checks) == 1
    for _ in range(2):
        fam.solve_fiberwise(f)
        assert len(builds) == 1 and len(checks) == 1


@pytest.mark.parametrize("D", [None, geo.divisor(zero="1/2")],
                         ids=["smooth", "half-zero"])
def test_one_mass_check_per_ricci_chain(monkeypatch, D):
    checks = count_mass_checks(monkeypatch)
    state, _ = ricci.run_ricci(4.0, D, 3, grid=GRID_1024)
    assert state.m > 2 and len(checks) == 1


@pytest.mark.parametrize("steps", [5, 20])
def test_frame_logs_once_per_ricci_chain(monkeypatch, steps):
    # the chain's problem keeps its density head and every step hands it
    # on, so the step count does not matter
    calls = count_frame_logs(monkeypatch)
    state, _ = ricci.run_ricci(4.0, geo.divisor(zero="1/2"), 3, m_max=steps,
                               stop_tol=1e-300, grid=geo.make_grid(30.0, 257))
    assert state.m == steps and len(calls) <= 2


def test_frame_logs_per_family_and_fiber(monkeypatch):
    # building the family makes fiber 0's twist slot and the density head
    # that every fiber shares; a solve makes one twist slot per fiber
    calls = count_frame_logs(monkeypatch)
    f = build("conic")
    assert f.base_count == 41 and len(calls) == 2
    for _ in range(2):
        calls.clear()
        fam.solve_fiberwise(f)
        assert len(calls) == f.base_count
