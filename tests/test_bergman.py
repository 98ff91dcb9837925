import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from radialke import bergman
from radialke import geometry as geo
from radialke import kernels
from radialke.errors import ConfigurationError


@pytest.fixture(scope="module")
def grid():
    return geo.make_grid(30.0, 2048)


@pytest.fixture(scope="module")
def smooth_chain(grid):
    return bergman.build_chain(4.0, None, p=1, m=1, grid=grid)


@pytest.fixture(scope="module")
def smooth_run(smooth_chain):
    return bergman.run_levels(smooth_chain, 40)


def stepped_levels(run):
    """A run's levels, stepped again on the widened chain it stored."""
    levels, lv = [], None
    for _ in run.distances:
        lv = bergman.bergman_step(lv, run.chain)
        levels.append(lv)
    return levels


@pytest.fixture(scope="module")
def smooth_levels(smooth_run):
    return stepped_levels(smooth_run)


# ---------------------------------------------------------------------------
# section ranges
# ---------------------------------------------------------------------------

def test_section_range_level_one():
    b = bergman.section_range(1, 1, 4.0)
    assert (b.j_min, b.j_max, b.n_sections) == (0, 2, 3)


def test_section_range_level_ten_p_two():
    b = bergman.section_range(10, 2, 4.0)
    assert b.n_sections == 41


def test_section_range_ceiling_with_divisor():
    b = bergman.section_range(4, 2, 4.0, geo.divisor(zero="1/2"))
    assert b.j_min == 4
    b = bergman.section_range(3, 1, 4.0, geo.divisor(zero="1/2"))
    assert b.j_min == 2  # ceil(3/2)


def test_section_range_rejects_fractional_degree():
    with pytest.raises(ConfigurationError):
        bergman.section_range(1, 1, 4.5)


@pytest.mark.parametrize("build, match", [
    (lambda chain: bergman.section_range(0, 1, 4.0), "level must be >= 1"),
    (lambda chain: bergman.section_range(
        1, 1, 3.0, geo.divisor(zero="9/20", infinity="9/20")),
     r"empty section space at level 1: window \[1, 0\]"),
    (lambda chain: bergman.build_chain(4.0, m=0), "outer index m must be >= 1"),
    (lambda chain: bergman.run_levels(chain, 0), "ell_max must be >= 1"),
], ids=["level-0", "empty-window", "m-0", "ell-max-0"])
def test_out_of_range_input_refused(smooth_chain, build, match):
    with pytest.raises(ConfigurationError, match=match):
        build(smooth_chain)


def test_section_count_formula(smooth_run):
    counts = np.array(smooth_run.n_sections)
    ells = np.arange(1, counts.size + 1)
    assert np.array_equal(counts, 2 * ells + 1)


# ---------------------------------------------------------------------------
# Gram diagonals
# ---------------------------------------------------------------------------

def test_gram_beta_oracle(smooth_chain):
    basis = bergman.section_range(1, 1, 4.0)
    got = np.exp(bergman.gram_diagonal(basis, smooth_chain, None))
    expected = np.array([2 * math.pi / 3, math.pi / 3, 2 * math.pi / 3])
    np.testing.assert_allclose(got, expected, rtol=1e-8)


def test_gram_beta_oracle_against_quadrature():
    # independent oracle: adaptive quadrature of the same integrand
    from scipy.integrate import quad
    for j in range(3):
        val, err = quad(lambda t, j=j: math.exp((j + 1) * t) / (1 + math.exp(t)) ** 4,
                        -60, 60)
        expected = [2 * math.pi / 3, math.pi / 3, 2 * math.pi / 3][j]
        assert 2 * math.pi * val == pytest.approx(expected, rel=1e-9)


def test_gram_symmetry(smooth_chain):
    lv1 = bergman.bergman_step(None, smooth_chain)
    basis = bergman.section_range(2, 1, 4.0)
    log_g = bergman.gram_diagonal(basis, smooth_chain, lv1)
    np.testing.assert_allclose(log_g, log_g[::-1], rtol=1e-12)


def test_gram_integrability_guard(grid):
    chain = bergman.build_chain(4.0, None, p=1, m=1, grid=grid)
    bad_tau = geo.fs_weight(1.0, grid)  # too little decay for the top exponent
    bad_chain = dataclasses.replace(chain, tau=bad_tau)
    with pytest.raises(ConfigurationError, match="grows"):
        bergman.gram_diagonal(bergman.section_range(1, 1, 4.0), bad_chain, None)


# ---------------------------------------------------------------------------
# level recursion
# ---------------------------------------------------------------------------

def test_run_builds_one_block_layout_per_level(smooth_chain, monkeypatch):
    # the Gram quadrature and the kernel profile of a level share one layout
    built, build = [], kernels.block_layout

    def counted(t, slopes):
        built.append(slopes.size)
        return build(t, slopes)

    monkeypatch.setattr(kernels, "block_layout", counted)
    monkeypatch.setattr(bergman, "block_layout", counted)
    run = bergman.run_levels(smooth_chain, 12)
    assert built == run.n_sections == [2 * ell + 1 for ell in range(1, 13)]


@pytest.mark.parametrize("k, p, zero", [
    (4.0, 1, None), (4.0, 2, "1/2"), (3.0, 3, "1/3"), (4.0, 1, "1/2"),
], ids=["smooth-p1", "half-p2", "k3-third-p3", "half-p1-fractional"])
def test_run_windows_follow_section_range(k, p, zero):
    # a run derives each window from the chain's step degree; it must be
    # the window section_range gives from (level, p, k, D)
    D = geo.divisor(zero=zero) if zero else geo.DivisorData()
    chain = bergman.build_chain(k, D, p=p, m=1, grid=geo.make_grid(30.0, 1025))
    assert chain.step_degree == p * (k - 2)
    run = bergman.run_levels(chain, 12)
    levels = stepped_levels(run)
    assert [lv.level for lv in levels] == list(range(1, 13))
    for lv in levels:
        assert lv.basis == bergman.section_range(lv.level, p, k, D)
        assert lv.kappa.degree == lv.basis.degree == lv.level * chain.step_degree


def test_fractional_degree_refused_before_the_chain_is_built():
    with pytest.raises(ConfigurationError, match="p\\*\\(k-2\\)"):
        bergman.build_chain(4.5, None, p=1, m=1, grid=geo.make_grid(30.0, 257))


def test_first_level_from_empty_chain(smooth_chain):
    lv = bergman.bergman_step(None, smooth_chain)
    assert lv.level == 1
    assert np.all(np.isfinite(lv.log_gram))


def test_kappa_convex_and_slopes(smooth_levels):
    for lv in smooth_levels[::7]:
        kappa = lv.kappa
        assert kappa.is_positively_curved(tol=1e-8)
        assert kappa.slope_minus == lv.basis.j_min
        assert kappa.slope_plus == lv.basis.j_max
        assert kappa.degree == lv.basis.degree


def test_renormalized_level_one_is_kappa(smooth_levels):
    lv = smooth_levels[0]
    np.testing.assert_allclose(bergman.renormalized_profile(lv),
                               lv.kappa.values, rtol=1e-12)


def test_rescaled_slope_approaches_step_degree(smooth_levels):
    lv = smooth_levels[-1]
    ell = lv.level
    assert lv.basis.j_max / ell == pytest.approx(2.0, abs=2.5 / ell)


def test_distances_decreasing(smooth_run):
    d = np.array(smooth_run.distances)
    assert d[-1] < 0.06
    assert np.all(np.diff(d[19:]) <= 1e-12)


def test_route_agreement(smooth_chain):
    assert smooth_chain.route_agreement <= 1e-9


def test_two_route_precheck_in_convergence(smooth_run):
    out = bergman.convergence_check(smooth_run)
    assert out["route_agreement"] <= 1e-5
    assert out["final_liminf_slack"] <= 1e-6


def test_convergence_decay_order(smooth_run, smooth_chain):
    order = bergman.convergence_check(smooth_run)["decay_order"]
    assert np.isfinite(order) and order > 0
    # levels 20..21 are two points: too few for a fitted order
    short = bergman.run_levels(smooth_chain, 21)
    assert math.isnan(bergman.convergence_check(short)["decay_order"])


def test_run_grid_is_the_resampled_chain_grid(smooth_run, smooth_chain):
    assert smooth_run.grid is smooth_run.chain.tau.grid
    assert smooth_run.grid.half_width > smooth_chain.tau.grid.half_width


def test_convergence_check_needs_three_levels(smooth_chain):
    short = bergman.run_levels(smooth_chain, 1)
    with pytest.raises(ConfigurationError):
        bergman.convergence_check(short)


def test_integral_chain_holds(smooth_run):
    cert = bergman.integral_chain_check(smooth_run)
    assert cert["holds"]
    assert cert["max_relative_slack"] <= 1e-8
    assert cert["count_formula_exact"]
    assert cert["asymptote"] == 2


def test_integral_chain_holds_conic(grid):
    chain = bergman.build_chain(4.0, geo.divisor(zero="1/2"), p=1, m=1, grid=grid)
    run = bergman.run_levels(chain, 30)
    cert = bergman.integral_chain_check(run)
    assert cert["holds"]


def test_decay_guard_satisfied(smooth_run):
    assert smooth_run.guard_margin >= 0.0


def test_run_numbers_match_stepped_levels(smooth_run, smooth_levels):
    # the numbers a run keeps are those of its levels, bit for bit
    win = smooth_run.grid.window(*bergman.WINDOW)
    target = smooth_run.chain.target.values[win]
    assert smooth_run.n_sections == [lv.basis.n_sections for lv in smooth_levels]
    assert smooth_run.log_gram_ranges == [
        (float(np.min(lv.log_gram)), float(np.max(lv.log_gram)))
        for lv in smooth_levels]
    assert smooth_run.distances == [
        float(np.max(np.abs(bergman.renormalized_profile(lv)[win] - target)))
        for lv in smooth_levels]


def test_finished_run_holds_no_level_profiles():
    # a run keeps per-level numbers, not levels: from 20 to 60 levels the
    # memory it holds grows by less than two profiles on its widened grid
    chain = bergman.build_chain(4.0, None, p=1, m=1, grid=geo.make_grid(30.0, 1025))

    def held(ell_max):
        tracemalloc.start()
        try:
            run = bergman.run_levels(chain, ell_max)
            return tracemalloc.get_traced_memory()[0], run
        finally:
            tracemalloc.stop()

    at_20, _ = held(20)
    at_60, run = held(60)
    assert at_60 - at_20 < 2 * 8 * run.grid.node_count


def test_off_diagonal_modes_vanish(grid):
    # quadrature of the angular modes: off-diagonal Gram entries are exactly
    # the nonzero Fourier modes of a rotation-invariant density
    rng = np.random.default_rng(9)
    theta = np.linspace(0.0, 2.0 * math.pi, 257)[:-1]
    for _ in range(10):
        j1, j2 = rng.integers(0, 7, size=2)
        while j1 == j2:
            j2 = rng.integers(0, 7)
        mode = np.exp(1j * (j1 - j2) * theta)
        integral = np.abs(np.mean(mode))
        assert integral <= 1e-12


def test_c_ell_finite_and_trend(smooth_run):
    c = np.array(smooth_run.c_ells)
    assert np.all(np.isfinite(c))
    # per-level growth margin C_l - C_{l-1} - log l of the kernel infimum
    trend = c[1:] - c[:-1] - np.log(np.arange(2, c.size + 1))
    assert np.min(trend[5:]) > -1.0  # bounded below along the run


def test_c_ell_rejects_wrong_slopes(smooth_run, smooth_levels):
    lv = smooth_levels[10]
    grid = lv.kappa.grid
    bad_ref = (lv.level + 3.0) * smooth_run.chain.target.values
    with pytest.raises(ConfigurationError, match="slope"):
        bergman.c_ell_diagnostic(lv, bad_ref)


def test_build_chain_p2_conic_runs(grid):
    chain = bergman.build_chain(4.0, geo.divisor(zero="1/2"), p=2, m=1, grid=grid)
    run = bergman.run_levels(chain, 25)
    d = np.array(run.distances)
    assert d[-1] < d[4]
    cert = bergman.integral_chain_check(run)
    assert cert["holds"]


def test_kernel_levels_jointly_convex_over_family():
    # positivity propagation: running the recursion fiber by fiber over a
    # jointly positive family keeps every kernel level jointly convex in
    # (t, s); the model-scale mechanism behind relative positivity
    from radialke import family as fam
    base = np.linspace(-1.5, 1.5, 9)
    grid9 = geo.make_grid(30.0, 257)
    f = fam.build_family(fam.perturbed_family_recipe(4.0, 0.05), base, grid9)
    runs = [bergman.run_levels(
        bergman.build_chain(4.0, None, p=1, m=1, grid=grid9, twist=f.twist(i)), 6)
        for i in range(f.base_count)]
    ht = runs[0].grid.spacing
    hs = float(base[1] - base[0])
    levels = [stepped_levels(r) for r in runs]
    for ell in range(6):
        U = np.column_stack([lvs[ell].kappa.values for lvs in levels])
        cert = fam.hessian_certificate(U, ht, hs, tol=1e-8)
        assert cert["passed"], (ell, cert["min_tt"], cert["min_det"])


def test_build_chain_m2_target_consistency(grid):
    # the m = 2 chain weight is built from the first step, the target from
    # the second; both must stay convex on the rescaled class
    chain = bergman.build_chain(4.0, None, p=2, m=2, grid=grid)
    assert chain.tau.is_positively_curved(tol=1e-8)
    assert chain.target.is_positively_curved(tol=1e-8)
    run = bergman.run_levels(chain, 20)
    assert run.distances[-1] < run.distances[0]
