import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from radialke import geometry as geo
from radialke import masolver as ma
from radialke.errors import ConfigurationError, ConvergenceError


@pytest.fixture(scope="module")
def grid():
    return geo.default_grid()


@pytest.fixture(scope="module")
def smooth_report(grid):
    return ma.solve_ke_ode(ma.ke_problem(4.0, grid=grid))


def closed_form(k, t):
    return (k - 2.0) * np.logaddexp(0.0, t) + math.log((k - 2.0) / (2.0 * math.pi))


# ---------------------------------------------------------------------------
# direct solves
# ---------------------------------------------------------------------------

def test_smooth_oracle_k4(grid, smooth_report):
    win = grid.window(-28.0, 28.0)
    err = np.max(np.abs(smooth_report.solution.values - closed_form(4.0, grid.nodes))[win])
    assert err <= 1e-6


@pytest.mark.parametrize("k", [3.0, 4.0, 5.0, 6.0])
def test_smooth_oracle_family(grid, k):
    rep = ma.solve_ke_ode(ma.ke_problem(k, grid=grid))
    win = grid.window(-28.0, 28.0)
    err = np.max(np.abs(rep.solution.values - closed_form(k, grid.nodes))[win])
    assert err <= 1e-6


def test_report_derives_solution_and_mass_defect(smooth_report):
    rep = smooth_report
    bg = rep.problem.background
    sol = rep.solution
    assert np.array_equal(sol.values, bg.values + rep.potential)
    assert (sol.slope_minus, sol.slope_plus, sol.degree) == \
        (bg.slope_minus, bg.slope_plus, bg.degree)
    with pytest.raises(ValueError):
        sol.values[0] = 0.0
    assert rep.mass_defect == abs(rep.integral - rep.problem.mass)


def test_total_mass_is_adjoint_degree(grid, smooth_report):
    assert geo.weight_mass(smooth_report.solution) == pytest.approx(2.0)
    assert smooth_report.mass_defect <= 1e-9


def test_conic_solution_lelong(grid):
    D = geo.divisor(zero=Fraction(1, 2))
    rep = ma.solve_ke_ode(ma.ke_problem(4.0, D, grid))
    assert geo.lelong_numbers(rep.solution) == (0.5, 0.0)
    assert rep.mass_defect <= 1e-9
    # declared slope confirmed by the profile itself at the left end
    fd_slope = (rep.solution.values[1] - rep.solution.values[0]) / grid.spacing
    assert fd_slope == pytest.approx(0.5, abs=1e-6)


def test_conic_solution_fine_grid_consistency(grid):
    D = geo.divisor(zero=Fraction(1, 2))
    coarse = ma.solve_ke_ode(ma.ke_problem(4.0, D, grid))
    fine_grid = geo.make_grid(30.0, 16384)
    fine = ma.solve_ke_ode(ma.ke_problem(4.0, D, fine_grid))
    win = grid.window(-20.0, 20.0)
    interp = np.interp(grid.nodes[win], fine_grid.nodes, fine.solution.values)
    assert np.max(np.abs(coarse.solution.values[win] - interp)) < 1e-5


def test_manufactured_solution_converges_at_second_order():
    # the twist u* - log(u*''/2pi) + t makes u* the exact solution, so the
    # error is the discretization's alone and a wrong stencil shows in its
    # order, which the closed-form oracle (exact on the grid) cannot see
    errors = []
    for n in (257, 513, 1025, 2049, 4097):
        g = geo.make_grid(30.0, n)
        t = g.nodes
        e1, e2 = np.exp(-np.abs(t)), np.exp(-2.0 * np.abs(t))
        exact = 2.0 * np.logaddexp(0.0, t) + 0.2 * np.tanh(t) - math.log(math.pi)
        # u*'' = 2 sigma (1 - sigma) - 0.4 tanh sech^2, accurate in both tails
        d2 = 2.0 * e1 / (1.0 + e1) ** 2 - 1.6 * np.tanh(t) * e2 / (1.0 + e2) ** 2
        twist = geo.RadialWeight(g, exact - np.log(d2 / (2.0 * math.pi)) + t,
                                 0.0, 4.0, 4.0)
        rep = ma.solve_ke_ode(ma.ke_problem(4.0, grid=g, twist=twist))
        win = g.window(-28.0, 28.0)
        errors.append(float(np.max(np.abs(rep.solution.values - exact)[win])))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.abs(orders - 2.0) <= 0.1), (errors, orders)


def test_degenerate_band_background_accepted(grid):
    # curvature vanishing on a half line still solves: the density keeps the
    # Newton system invertible
    chi = geo.fs_weight(1.0, grid) + geo.kink_weight(grid)
    prob = ma.MAProblem(chi, geo.fs_weight(4.0, grid), geo.DivisorData())
    rep = ma.solve_ke_ode(prob)
    assert rep.residual <= 1e-10


def test_nonintegrable_configuration_rejected(grid):
    # twist slope too large at +inf makes the density grow
    chi = geo.fs_weight(2.0, grid)
    twist = geo.fs_weight(2.0, grid)
    with pytest.raises(ConfigurationError, match="not integrable"):
        ma.MAProblem(chi, twist, geo.DivisorData())


def test_adjoint_degree_guard(grid):
    with pytest.raises(ConfigurationError, match="semiample degree"):
        ma.ke_problem(2.0, grid=grid)
    with pytest.raises(ConfigurationError, match="exhausts"):
        ma.ke_problem(3.0, grid=grid, delta=1.5)


@pytest.mark.parametrize("build", [
    lambda **kw: ma.ke_problem(4.0, None, geo.make_grid(30.0, 257), **kw),
    lambda **kw: ma.ricci_problem(4.0, None, 2, grid=geo.make_grid(30.0, 257), **kw),
], ids=["ke_problem", "ricci_problem"])
@pytest.mark.parametrize("name", ["eps", "delta"])
@pytest.mark.parametrize("value", [float("nan"), -0.1, float("inf")])
def test_bad_regularization_parameter_refused_where_built(build, name, value):
    # refused by the constructor under its own name, not later by a solve
    with pytest.raises(ConfigurationError, match=f"^{name} must be finite and >= 0"):
        build(**{name: value})


@pytest.mark.parametrize("build, match", [
    (lambda g: replace(ma.ke_problem(4.0, None, g), coupling=1.0),
     r"coupling must lie in \[0, 1\)"),
    (lambda g: ma.ricci_problem(4.0, None, 0, grid=g), "step count p must be >= 1"),
    (lambda g: ma.solve_ke_ode(ma.ke_problem(4.0, None, g), tol=0.0),
     "tolerance must be positive"),
    # a degree-4 twist of slope 2 at t -> -inf outgrows the density there
    (lambda g: ma.ke_problem(4.0, None, g, twist=geo.fs_weight(2.0, g)
                             + geo.divisor_log_weight(geo.divisor(zero=2), g)),
     "t -> -inf is not integrable"),
], ids=["coupling-1", "p-0", "tol-0", "twist-slope-2"])
def test_input_outside_theory_refused(build, match):
    with pytest.raises(ConfigurationError, match=match):
        build(geo.make_grid(30.0, 257))


def test_uncoupled_problem_is_coupled_against_its_background():
    grid = geo.make_grid(30.0, 257)
    prob = ma.ke_problem(4.0, geo.divisor(zero="1/2"), grid)
    assert prob.prev is prob.background
    # a hand-built coupled problem without prev couples against its background
    hand = ma.MAProblem(geo.fs_weight(2.0, grid), geo.fs_weight(4.0, grid),
                        geo.DivisorData(), coupling=0.5)
    assert hand.prev is hand.background
    assert ma.solve_ke_ode(hand).residual <= 1e-10


def test_newton_reports_divergence(grid, monkeypatch):
    prob = ma.ke_problem(4.0, grid=grid)
    monkeypatch.setattr(ma, "MAX_NEWTON_ITER", 2)
    with pytest.raises(ConvergenceError) as err:
        ma.solve_ke_ode(prob, tol=1e-10)
    assert err.value.residual is not None


def test_newton_stopped_just_past_default_tol_raises(monkeypatch):
    # negative control of DEFAULT_TOL (1e-10): four Newton steps leave this
    # solve at residual 5.6e-10, inside the band a 10x looser tolerance
    # admits; the fifth step reaches it
    prob = ma.ke_problem(5.0, geo.divisor(zero="1/2"), geo.make_grid(30.0, 257))
    monkeypatch.setattr(ma, "MAX_NEWTON_ITER", 4)
    with pytest.raises(ConvergenceError) as err:
        ma.solve_ke_ode(prob)
    assert 5e-10 < err.value.residual < 6e-10
    monkeypatch.setattr(ma, "MAX_NEWTON_ITER", 5)
    assert ma.solve_ke_ode(prob).residual <= 1e-10


@pytest.mark.parametrize("zero", ["0", "1/2"])
def test_newton_step_solves_the_unscaled_newton_system(monkeypatch, zero):
    # the step is solved with both Neumann rows scaled by -1/h^2; it must
    # satisfy the system as assembled, with end rows v[0] - v[1] and
    # v[-1] - v[-2], to the kernel's normwise backward error of 4 eps
    grid = geo.make_grid(30.0, 1024)
    prob = ma.ke_problem(4.0, geo.divisor(zero=zero), grid)
    steps = []
    solve = ma.tridiag_solve
    monkeypatch.setattr(ma, "tridiag_solve",
                        lambda *args: steps.append(solve(*args)) or steps[-1])
    ma.solve_ke_ode(prob)
    x, h = steps[0], grid.spacing  # the first step, from the flat start
    rho = np.exp(prob.log_density_at_background())
    b = -ma.newton_residual(np.zeros(x.size), h,
                            prob.background.curvature_profile(), rho)
    r = np.empty(x.size)
    r[1:-1] = (x[:-2] - 2.0 * x[1:-1] + x[2:]) / h**2 - rho[1:-1] * x[1:-1]
    r[0], r[-1] = x[0] - x[1], x[-1] - x[-2]
    r -= b
    a_norm = 4.0 / h**2 + np.max(rho[1:-1])
    scale = a_norm * np.max(np.abs(x)) + np.max(np.abs(b))
    assert np.max(np.abs(r)) <= 4.0 * np.finfo(np.float64).eps * scale


@pytest.mark.parametrize("n", [257, 1024])
def test_newton_residual_is_the_textbook_formula_bit_for_bit(n):
    # the in-place evaluation must keep the formula's operation order
    rng = np.random.default_rng(n)
    v, curvature, rho = rng.normal(size=(3, n))
    h = geo.make_grid(30.0, n).spacing
    want = np.empty(n)
    want[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h**2 + curvature[1:-1] - rho[1:-1]
    want[0], want[-1] = v[0] - v[1], v[-1] - v[-2]
    assert np.array_equal(ma.newton_residual(v, h, curvature, rho), want)


def test_nan_twist_raises_instead_of_returning_nan():
    # a NaN residual is not within tol; it used to come back as a report
    # with residual and integral NaN after 0 iterations
    grid = geo.make_grid(30.0, 257)
    w = geo.fs_weight(4.0, grid)
    values = np.array(w.values)
    values[100] = np.nan
    prob = ma.ke_problem(4.0, grid=grid, twist=replace(w, values=values))
    with pytest.raises(ConvergenceError, match="nan"):
        ma.solve_ke_ode(prob)


def test_comparison_principle_on_random_twists(grid):
    # pointwise larger twist weight gives a pointwise larger solution
    rng = np.random.default_rng(42)
    t = grid.nodes
    base = geo.fs_weight(4.0, grid)
    for _ in range(5):
        bump = np.zeros(t.size)
        for _ in range(3):
            c, w = rng.uniform(-6, 6), rng.uniform(0.5, 2.0)
            bump += rng.uniform(0.0, 0.3) * np.exp(-((t - c) / w) ** 2)
        bigger = geo.RadialWeight(grid, base.values + bump, 0.0, 4.0, 4.0)
        lo = ma.solve_ke_ode(ma.ke_problem(4.0, grid=grid, twist=base))
        hi = ma.solve_ke_ode(ma.ke_problem(4.0, grid=grid, twist=bigger))
        assert np.all(hi.solution.values >= lo.solution.values - 1e-9)


# ---------------------------------------------------------------------------
# energy functionals
# ---------------------------------------------------------------------------

def test_energy_zero(grid):
    bg = geo.fs_weight(2.0, grid)
    assert ma.energy(np.zeros(grid.node_count), bg) == 0.0


def test_energy_constant_gives_degree(grid):
    bg = geo.fs_weight(2.0, grid)
    a = 0.7
    assert ma.energy(np.full(grid.node_count, a), bg) == pytest.approx(2.0 * a, rel=1e-9)


def test_energy_first_variation_matches_fd(grid):
    rng = np.random.default_rng(0)
    bg = geo.fs_weight(2.0, grid)
    t = grid.nodes
    phi = 0.3 * np.exp(-(t / 3.0) ** 2)
    v = 0.1 * np.exp(-((t - 1.0) / 2.0) ** 2)
    s = 1e-5
    fd = (ma.energy(phi + s * v, bg) - ma.energy(phi, bg)) / s
    assert abs(fd - ma.energy_variation(phi, v, bg)) <= 1e-6


def test_g_functional_zero_for_unit_mass(grid):
    bg = geo.fs_weight(2.0, grid)
    # measure normalized to unit mass: G(0) = -log 1 = 0
    log_mu = -np.log(np.sum(grid.trapezoid_weights)) * np.ones(grid.node_count)
    assert ma.g_functional(np.zeros(grid.node_count), bg, log_mu) == pytest.approx(0.0, abs=1e-12)


def test_g_functional_constant_formula(grid):
    bg = geo.fs_weight(2.0, grid)
    log_mu = np.zeros(grid.node_count)  # mass = 2T
    mass = float(np.sum(grid.trapezoid_weights))
    a = 0.4
    got = ma.g_functional(np.full(grid.node_count, a), bg, log_mu)
    assert got == pytest.approx(a * 2.0 - a - math.log(mass), rel=1e-9)


def test_solved_potential_maximizes_g_on_unit_class(grid):
    prob = ma.ke_problem(3.0, grid=grid)  # adjoint degree 1
    rep = ma.solve_ke_ode(prob)
    log_mu = prob.log_density_at_background()
    g_star = ma.g_functional(rep.potential, prob.background, log_mu)
    rng = np.random.default_rng(1234)
    t = grid.nodes
    for _ in range(25):
        v = rng.uniform(-1, 1) * np.exp(-((t - rng.uniform(-5, 5)) / rng.uniform(1, 3)) ** 2)
        v *= 0.1 / max(1e-30, np.max(np.abs(v)))
        assert g_star >= ma.g_functional(rep.potential + v, prob.background, log_mu) - 1e-9


# ---------------------------------------------------------------------------
# regularization family
# ---------------------------------------------------------------------------

def test_uniform_bound_check(grid):
    reports = [ma.solve_ke_ode(ma.ke_problem(4.0, grid=grid, delta=d))
               for d in (0.1, 0.05, 0.01)]
    cert = ma.uniform_bound_check(reports)
    assert np.isfinite(cert["bound"]) and cert["count"] == 3
    single = ma.uniform_bound_check(reports[:1])
    assert single["bound"] == reports[0].sup_potential
    with pytest.raises(ConfigurationError):
        ma.uniform_bound_check([])


def test_regularized_diagonal_smooth(grid):
    base = ma.ke_problem(4.0, grid=grid)
    sched = [0.1 * 0.5 ** i for i in range(8)]
    diag = ma.regularized_diagonal(base, sched, sched)
    assert diag.converged
    assert len(diag.reports) == 8
    plain = ma.solve_ke_ode(base)
    dist = np.max(np.abs(diag.reports[-1].potential - plain.potential))
    assert dist < 5e-3  # full 1e-3 bound needs the longer acceptance schedule


def test_regularized_diagonal_reports_unconverged_trace():
    # three steps on a coarse conic grid: the distances fall by less than
    # the factor four the convergence rule asks for
    base = ma.ke_problem(4.0, geo.divisor(zero="1/2"), geo.make_grid(30.0, 257))
    sched = [0.1, 0.05, 0.025]
    diag = ma.regularized_diagonal(base, sched, sched)
    assert diag.converged is False
    assert diag.trace == pytest.approx((0.0642, 0.0272), abs=1e-3)
    pots = [r.potential for r in diag.reports]
    assert diag.trace[1] == float(np.max(np.abs(pots[2] - pots[1])))


def test_regularized_diagonal_monotone_in_delta(grid):
    # the rescaled potentials decrease toward the limit after the constant
    # shift from the proof of the stability statement
    base = ma.ke_problem(4.0, grid=grid)
    deltas = [0.2, 0.1, 0.05, 0.025, 0.0125]
    psis = []
    for d in deltas:
        rep = ma.solve_ke_ode(base.with_regularization(d, 1e-12))
        psis.append(rep.potential / (1.0 - d) - math.log(1.0 - d) / (1.0 - d))
    plain = ma.solve_ke_ode(base).potential
    K = min(0.0, min(float(np.min(p)) for p in psis))
    shifted = [p - K * d / (1.0 - d) for p, d in zip(psis, deltas)]
    for a, b in zip(shifted, shifted[1:]):
        assert np.all(b <= a + 1e-6)  # decreasing along delta downward
    assert np.all(shifted[-1] >= plain - 1e-2)


def test_regularized_diagonal_rejects_bad_schedules(grid):
    base = ma.ke_problem(4.0, grid=grid)
    with pytest.raises(ConfigurationError):
        ma.regularized_diagonal(base, [], [0.1])
    with pytest.raises(ConfigurationError):
        ma.regularized_diagonal(base, [0.1, 0.1], [0.1, 0.05])
    with pytest.raises(ConfigurationError):
        ma.regularized_diagonal(base, [0.1, -0.05], [0.1, 0.05])


def test_regularized_diagonal_refuses_fewer_than_three_steps(monkeypatch, grid):
    base = ma.ke_problem(4.0, grid=grid)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the schedule was refused")

    monkeypatch.setattr(ma, "solve_ke_ode", no_solve)
    # two steps give one distance, and the quarter rule needs two
    for sched in ([0.1, 0.05], [0.1]):
        with pytest.raises(ConfigurationError, match="3 steps|>= 3"):
            ma.regularized_diagonal(base, sched, sched)
    assert ma.diagonal_pairs([0.1, 0.05, 0.025], [0.2]) == [
        (0.1, 0.2), (0.05, 0.2), (0.025, 0.2)]


def test_with_regularization_matches_constructor():
    grid = geo.make_grid(30.0, 513)
    D = geo.divisor(zero="1/2")
    rebuilt = ma.ke_problem(4.0, D, grid).with_regularization(0.05, 0.1)
    direct = ma.ke_problem(4.0, D, grid, delta=0.05, eps=0.1)
    assert (rebuilt.delta, rebuilt.eps) == (0.05, 0.1)
    np.testing.assert_array_equal(rebuilt.log_density_at_background(),
                                  direct.log_density_at_background())


@pytest.mark.parametrize("eps,delta", [(0.0, 0.0), (0.05, 0.0), (0.0, 0.1)])
@pytest.mark.parametrize("D", [None, geo.divisor(zero="1/2"),
                               geo.divisor(zero="1/3", infinity="1/4")],
                         ids=["smooth", "half-zero", "two-point"])
def test_with_twist_matches_constructor(eps, delta, D):
    grid = geo.make_grid(30.0, 513)
    t = grid.nodes
    twist = geo.RadialWeight(grid, geo.fs_weight(4.0, grid).values
                             + 0.05 * np.exp(-t * t), 0.0, 4.0, 4.0)
    rebuilt = ma.ke_problem(4.0, D, grid, eps=eps, delta=delta).with_twist(twist)
    direct = ma.ke_problem(4.0, D, grid, eps=eps, delta=delta, twist=twist)
    for a, b in ((rebuilt.twist, direct.twist),
                 (rebuilt.background, direct.background)):
        assert np.array_equal(a.values, b.values)
        assert (a.slope_minus, a.slope_plus, a.degree) == \
            (b.slope_minus, b.slope_plus, b.degree)
    assert np.array_equal(rebuilt.background.curvature_profile(),
                          direct.background.curvature_profile())
    assert np.array_equal(rebuilt.log_density_at_background(),
                          direct.log_density_at_background())
    assert (rebuilt.eps, rebuilt.delta, rebuilt.mass, rebuilt.divisor) == \
        (direct.eps, direct.delta, direct.mass, direct.divisor)
    assert rebuilt.recipe.k == direct.recipe.k and rebuilt.recipe.p is None
    assert rebuilt.recipe.twist is twist


def test_with_twist_refuses_p_step_and_hand_built_problems():
    grid = geo.make_grid(30.0, 513)
    twist = geo.fs_weight(4.0, grid)
    prob = ma.ricci_problem(4.0, geo.divisor(zero="1/2"), 2,
                            geo.fs_weight(3.0, grid), grid)
    with pytest.raises(ConfigurationError, match="p-step"):
        prob.with_twist(twist)
    hand = ma.MAProblem(geo.fs_weight(2.0, grid), twist, geo.DivisorData())
    with pytest.raises(ConfigurationError, match="hand-built"):
        hand.with_twist(twist)


def test_with_regularization_refuses_p_step_problem():
    grid = geo.make_grid(30.0, 513)
    prob = ma.ricci_problem(4.0, geo.divisor(zero="1/2"), 2,
                            geo.fs_weight(3.0, grid), grid)
    with pytest.raises(ConfigurationError, match="p-step"):
        prob.with_regularization(0.05, 0.1)
    with pytest.raises(ConfigurationError, match="p-step"):
        ma.regularized_diagonal(prob, [0.1, 0.05, 0.025], [0.1, 0.05, 0.025])


def test_diagonal_requires_recipe(grid):
    chi = geo.fs_weight(2.0, grid)
    prob = ma.MAProblem(chi, geo.fs_weight(4.0, grid), geo.DivisorData())
    with pytest.raises(ConfigurationError, match="recipe|constructor"):
        ma.regularized_diagonal(prob, [0.1, 0.05, 0.025], [0.1, 0.05, 0.025])


# ---------------------------------------------------------------------------
# hand-off and the density head
# ---------------------------------------------------------------------------

HANDED = {
    "smooth": lambda g: ma.ke_problem(4.0, None, g),
    "half-zero-p-step": lambda g: ma.ricci_problem(4.0, geo.divisor(zero="1/2"), 3,
                                                   grid=g),
}


def moved(w, bump=0.25, slope_shift=(0.0, 0.0)):
    """``w`` plus a bounded bump, its slopes shifted by ``slope_shift``."""
    t = w.grid.nodes
    return geo.RadialWeight(w.grid, w.values + bump * np.exp(-t * t),
                            w.slope_minus + slope_shift[0],
                            w.slope_plus + slope_shift[1], w.degree)


@pytest.mark.parametrize("keep_head", [False, True], ids=["built", "kept"])
@pytest.mark.parametrize("name", list(HANDED))
def test_with_prev_equals_replace(name, keep_head):
    prob = HANDED[name](geo.make_grid(30.0, 257))
    if keep_head:
        prob = prob.with_density_head()
    w = moved(prob.prev)
    handed, fresh = prob.with_prev(w), replace(prob, prev=w)
    assert handed.prev is w
    # every compared field is the very object replace passes or rebuilds
    for f in fields(ma.MAProblem):
        if f.compare:
            assert getattr(handed, f.name) is getattr(fresh, f.name), f.name
    assert handed.density_head is prob.density_head
    assert np.array_equal(handed.log_density_at_background(),
                          fresh.log_density_at_background())
    if prob.coupling:  # the hand-off moves the density
        assert not np.array_equal(handed.log_density_at_background(),
                                  prob.log_density_at_background())


@pytest.mark.parametrize("name", list(HANDED))
def test_with_prev_refuses_what_the_slope_check_would_see(name):
    grid = geo.make_grid(30.0, 257)
    prob = HANDED[name](grid).with_density_head()
    for other in (geo.make_grid(30.0, 513), geo.make_grid(25.0, 257)):
        w = geo.fs_weight(prob.prev.degree, other)
        with pytest.raises(ConfigurationError, match="another grid"):
            prob.with_prev(w)
    for shift in ((0.5, 0.0), (0.0, -0.5)):
        with pytest.raises(ConfigurationError, match="slopes"):
            prob.with_prev(moved(prob.prev, slope_shift=shift))


def test_kept_head_never_reaches_a_problem_with_other_inputs():
    grid = geo.make_grid(30.0, 257)
    D = geo.divisor(zero="1/2")
    t = grid.nodes
    twist = geo.RadialWeight(grid, geo.fs_weight(4.0, grid).values
                             + 0.05 * np.exp(-t * t), 0.0, 4.0, 4.0)
    kept = ma.ke_problem(4.0, D, grid).with_density_head()
    built = ma.ke_problem(4.0, D, grid)
    fresh_twisted = ma.ke_problem(4.0, D, grid, twist=twist)
    cases = [
        (kept.with_regularization(0.05, 0.1),
         ma.ke_problem(4.0, D, grid, delta=0.05, eps=0.1)),
        (kept.with_twist(twist), fresh_twisted),
        (replace(kept, eps=0.1), replace(built, eps=0.1)),
        (replace(kept, twist=fresh_twisted.twist), fresh_twisted),
    ]
    for got, want in cases:
        assert want.density_head is None
        assert np.array_equal(got.log_density_at_background(),
                              want.log_density_at_background())
        assert not np.array_equal(got.log_density_at_background(),
                                  kept.log_density_at_background())
