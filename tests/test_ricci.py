import dataclasses

import numpy as np
import pytest

from radialke import geometry as geo
from radialke import masolver as ma
from radialke import ricci
from radialke.errors import ConfigurationError


@pytest.fixture(scope="module")
def grid():
    return geo.make_grid(30.0, 1024)


@pytest.fixture(scope="module")
def smooth_run(grid):
    return ricci.run_ricci(4.0, None, 2, m_max=80, stop_tol=1e-10, grid=grid)


def test_initial_state_is_scaled_background(grid):
    st = ricci.initial_state(4.0, None, 3, grid)
    np.testing.assert_array_equal(st.weight.values,
                                  geo.fs_weight(6.0, grid).values)
    assert st.m == 0


@pytest.mark.parametrize("p", [1, 3])
def test_initial_state_starts_from_its_background(grid, p):
    st = ricci.initial_state(4.0, geo.divisor(zero="1/2"), p, grid)
    assert st.weight is st.problem.background


@pytest.mark.parametrize("D", [None, geo.divisor(zero="1/2")], ids=["smooth", "conic"])
def test_regularized_iteration_matches_direct_solve(D):
    # the p-step class and density move with delta as the direct solve's do
    grid = geo.make_grid(30.0, 1024)
    state, _ = ricci.run_ricci(4.0, D, 2, grid=grid, delta=0.1)
    ke = ma.solve_ke_ode(ma.ke_problem(4.0, D, grid, delta=0.1))
    assert ricci.compare_to_ke(state, ke)["sup_distance"] <= 1e-9


def test_single_step_p1_equals_direct_solve(grid):
    st = ricci.ricci_step(ricci.initial_state(4.0, None, 1, grid))
    ke = ma.solve_ke_ode(ma.ke_problem(4.0, grid=grid))
    assert np.max(np.abs(st.weight.values - ke.solution.values)) <= 1e-9


def test_first_gap_recorded(grid):
    D = geo.divisor(zero="1/2")
    _, trace = ricci.run_ricci(4.0, D, 2, m_max=2, stop_tol=1e-30, grid=grid)
    assert len(trace.gaps) == 2 and np.isfinite(trace.gaps[0])


def test_fixed_point_is_stationary(grid, smooth_run):
    state, _ = smooth_run
    again = ricci.ricci_step(state)
    assert np.max(np.abs(again.weight.values - state.weight.values)) <= 1e-9


def test_contraction_ratios_and_envelope(grid, smooth_run):
    state, trace = smooth_run
    assert not trace.violations
    assert max(trace.ratios) <= 0.5 + 1e-3
    gaps = np.array(trace.gaps)
    env = gaps <= 0.5 ** np.arange(len(gaps)) * gaps[0] * 1.01
    assert env.all()


def test_p1_converges_immediately(grid):
    _, trace = ricci.run_ricci(4.0, None, 1, m_max=10, stop_tol=1e-10, grid=grid)
    assert len(trace.gaps) <= 2  # first gap is the jump from w_0, second hits floor


def test_normalization_integral_p1(grid):
    st = ricci.ricci_step(ricci.initial_state(4.0, None, 1, grid))
    assert st.report.integral == pytest.approx(st.problem.mass, abs=1e-6)
    assert st.problem.mass == pytest.approx(2.0)


def test_normalization_integral_matches_mass(grid, smooth_run):
    state, trace = smooth_run
    assert state.report.integral == pytest.approx(state.problem.mass, abs=1e-6)
    assert state.problem.mass == pytest.approx(4.0)  # p * deg(A) at p = 2
    assert trace.norm_integrals[-1] == state.report.integral


def test_trace_ratios_and_violations_follow_from_gaps():
    trace = ricci.RicciTrace(0.501, gaps=[1.0, 0.5, 0.3, 0.2])
    assert trace.ratios == [0.5, 0.6, 0.2 / 0.3]
    assert trace.violations == [3, 4]


def test_ratio_violation_listed_just_past_its_slack(smooth_run):
    # negative control of RATIO_SLACK (1e-3): the p = 2 run's trace with one
    # step of ratio 0.5 + 3e-3, inside the band a 10x looser slack admits
    _, trace = smooth_run
    assert not trace.violations
    assert dataclasses.replace(trace, gaps=[1.0, 0.5 + 3e-3]).violations == [2]


def test_fixed_point_residual_small_at_convergence(grid, smooth_run):
    state, _ = smooth_run
    assert ricci.fixed_point_residual(state) <= 1e-9


def test_fixed_point_residual_reported_when_unconverged(grid):
    st = ricci.ricci_step(ricci.initial_state(4.0, None, 2, grid))
    res = ricci.fixed_point_residual(st)
    assert np.isfinite(res)  # reported, no convergence assertion at m = 1


def test_compare_to_ke_smooth(grid, smooth_run):
    state, _ = smooth_run
    ke = ma.solve_ke_ode(ma.ke_problem(4.0, grid=grid))
    cmp = ricci.compare_to_ke(state, ke)
    assert cmp["sup_distance"] <= 1e-5
    assert cmp["lelong_zero_diff"] == 0.0


def test_compare_to_ke_conic_lelong_difference(grid):
    D = geo.divisor(zero="1/2")
    state, _ = ricci.run_ricci(4.0, D, 2, m_max=80, stop_tol=1e-10, grid=grid)
    ke = ma.solve_ke_ode(ma.ke_problem(4.0, D, grid))
    cmp = ricci.compare_to_ke(state, ke)
    assert cmp["sup_distance"] <= 1e-5
    assert cmp["lelong_zero_diff"] == 0.5  # exactly the divisor coefficient
    assert cmp["lelong_infinity_diff"] == 0.0


def test_compare_to_ke_rejects_mismatched_configs(grid, smooth_run):
    state, _ = smooth_run
    targets = [
        (ma.ke_problem(4.0, geo.divisor(zero="1/2"), grid), "divisors differ"),
        (ma.ke_problem(5.0, grid=grid), "twist degrees differ"),
        (ma.ricci_problem(4.0, None, 2, grid=grid), "must come from ke_problem"),
        (ma.ke_problem(4.0, grid=geo.make_grid(30.0, 513)), "grids differ"),
        (ma.ke_problem(4.0, grid=grid, eps=0.05, delta=0.1),
         "regularization parameters differ"),
    ]
    for prob, message in targets:
        with pytest.raises(ConfigurationError, match=message):
            ricci.compare_to_ke(state, ma.solve_ke_ode(prob))


def test_route_independence_across_p(grid):
    limits = {}
    for p in (1, 2, 3):
        state, _ = ricci.run_ricci(4.0, None, p, m_max=120, stop_tol=1e-11,
                                   grid=grid)
        limits[p] = state.weight.values / p
    assert np.max(np.abs(limits[1] - limits[2])) <= 1e-5
    assert np.max(np.abs(limits[2] - limits[3])) <= 1e-5


def test_run_ricci_validates_m_max(grid):
    with pytest.raises(ConfigurationError):
        ricci.run_ricci(4.0, None, 2, m_max=1, grid=grid)


@pytest.mark.parametrize("build", [
    lambda: ma.ke_problem(4.0, grid=geo.make_grid(30.0, 4)),
    lambda: ricci.initial_state(4.0, None, 2, geo.make_grid(30.0, 3)),
], ids=["ke_problem", "initial_state"])
def test_background_too_coarse_is_refused_where_built(build):
    # the background's curvature mass is checked when the problem is built,
    # not when a solve ends
    with pytest.raises(ConfigurationError, match="mass"):
        build()
