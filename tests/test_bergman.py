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
    got = np.exp(bergman.bergman_step(None, smooth_chain).log_gram)
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
    log_g = bergman.bergman_step(lv1, smooth_chain).log_gram
    np.testing.assert_allclose(log_g, log_g[::-1], rtol=1e-12)


def test_gram_integrability_guard(grid):
    chain = bergman.build_chain(4.0, None, p=1, m=1, grid=grid)
    bad_tau = geo.fs_weight(1.0, grid)  # too little decay for the top exponent
    bad_chain = dataclasses.replace(chain, tau=bad_tau)
    with pytest.raises(ConfigurationError, match="grows"):
        bergman.bergman_step(None, bad_chain)


def test_decay_margin_below_quadrature_floor_refused():
    # negative control of the 0.05 decay margin: with tau of degree 3.03 the
    # top Gram integrand decays at rate 0.03 at every level, which one step
    # accepts and the run's quadrature sizing refuses
    grid = geo.make_grid(30.0, 257)
    chain = bergman.build_chain(4.0, None, p=1, m=1, grid=grid)
    slow = dataclasses.replace(chain, tau=geo.fs_weight(3.03, grid))
    lv = bergman.bergman_step(None, slow)
    bergman.bergman_step(lv, slow)
    with pytest.raises(ConfigurationError,
                       match=r"decay margin 0\.0299\d* too small for quadrature"):
        bergman.run_levels(slow, 5)


# ---------------------------------------------------------------------------
# level recursion
# ---------------------------------------------------------------------------

def test_run_reads_level_layouts_from_one_table(monkeypatch):
    # a smooth N 1025 run to level 150 meets 15 block widths: each level's
    # layout is bit for bit the one block_layout builds, the level's Gram
    # quadrature and kernel profile both read it, and the run computes E
    # once per block width
    chain = bergman.build_chain(4.0, None, p=1, m=1, grid=geo.make_grid(30.0, 1025))
    given, quads, profiles, factored = [], [], [], []
    step, quad = bergman.bergman_step, bergman.affine_lse_quadrature
    profile, factor = bergman.affine_lse_profile, kernels._block_factor

    def stepped(prev, ch, *, layout=None):
        given.append(layout)
        return step(prev, ch, layout=layout)

    def quadrature(*args, layout=None):
        quads.append(layout)
        return quad(*args, layout=layout)

    def profiled(*args, layout=None):
        profiles.append(layout)
        return profile(*args, layout=layout)

    def block_factor(delta, centred):
        factored.append(delta.size)
        return factor(delta, centred)

    monkeypatch.setattr(bergman, "bergman_step", stepped)
    monkeypatch.setattr(bergman, "affine_lse_quadrature", quadrature)
    monkeypatch.setattr(bergman, "affine_lse_profile", profiled)
    monkeypatch.setattr(kernels, "_block_factor", block_factor)
    run = bergman.run_levels(chain, 150)
    monkeypatch.undo()
    assert len(given) == len(quads) == len(profiles) == 150
    assert all(g is q is p for g, q, p in zip(given, quads, profiles))
    for ell, layout in enumerate(given, start=1):
        fresh = kernels.block_layout(run.grid.nodes,
                                     bergman.section_range(ell, 1, 4.0).exponents)
        assert layout.width == fresh.width
        for got, want in zip(layout[1:], fresh[1:]):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    widths = [layout.width for layout in given]
    assert factored == sorted(set(widths), reverse=True)
    assert len(factored) == 15


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


@pytest.mark.parametrize("p, zero", [(1, None), (2, "1/2")],
                         ids=["smooth-p1", "half-p2"])
def test_run_computes_no_subnormals(p, zero):
    # the kernels zero every term below their floor before exponentiating
    D = geo.divisor(zero=zero) if zero else geo.DivisorData()
    chain = bergman.build_chain(4.0, D, p=p, m=1, grid=geo.make_grid(30.0, 1025))
    with np.errstate(under="raise"):
        run = bergman.run_levels(chain, 60)
    assert len(run.distances) == 60


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


def test_convergence_check_flags_a_small_rise(smooth_chain):
    # negative controls of the two 1e-12 slacks: a distance trace and a
    # liminf slack trace that each rise by 1e-6 after level 20
    ells = np.arange(1, 31)
    distances = 1.0 / ells
    slacks = 1e-3 / ells
    run = bergman.BergmanRun(smooth_chain, distances=distances.tolist(),
                             liminf_slacks=slacks.tolist())
    out = bergman.convergence_check(run)
    assert out["monotone"] and out["liminf_decreasing"]
    distances[24] = distances[23] + 1e-6
    slacks[-1] = slacks[19] + 1e-6
    run = bergman.BergmanRun(smooth_chain, distances=distances.tolist(),
                             liminf_slacks=slacks.tolist())
    out = bergman.convergence_check(run)
    assert not out["monotone"]
    assert not out["liminf_decreasing"]


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
    assert bergman.convergence_check(short)["decay_order"] is None


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


@pytest.fixture(scope="module")
def half_p1_run():
    # at p 1 the frame exponent ceil(l/2) - l/2 alternates between 0 and 1/2
    chain = bergman.build_chain(4.0, geo.divisor(zero="1/2"), p=1, m=1,
                                grid=geo.make_grid(30.0, 1025))
    return bergman.run_levels(chain, 30)


@pytest.fixture(scope="module")
def long_smooth_run():
    # 15 block widths between levels 1 and 150
    chain = bergman.build_chain(4.0, None, p=1, m=1, grid=geo.make_grid(30.0, 1025))
    return bergman.run_levels(chain, 150)


@pytest.mark.parametrize("name", ["smooth_run", "half_p1_run", "long_smooth_run"])
def test_run_numbers_match_stepped_levels(name, request):
    # the numbers a run keeps are those of its levels, bit for bit
    run = request.getfixturevalue(name)
    levels = stepped_levels(run)
    win = run.grid.window(*bergman.WINDOW)
    target = run.chain.target.values
    profiles = [bergman.renormalized_profile(lv) for lv in levels]
    assert run.n_sections == [lv.basis.n_sections for lv in levels]
    assert run.log_gram_ranges == [
        (float(np.min(lv.log_gram)), float(np.max(lv.log_gram)))
        for lv in levels]
    assert run.distances == [float(np.max(np.abs(r[win] - target[win])))
                             for r in profiles]
    assert run.liminf_slacks == [max(0.0, -float(np.min(r - target)))
                                 for r in profiles]
    assert run.c_ells == [
        bergman.c_ell_diagnostic(lv, lv.level * target
                                 + bergman.frac_frame_log(lv.level, run.chain))
        for lv in levels]


# ---------------------------------------------------------------------------
# stride
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, ell_max, degree, q", [
    (4096, 100, 2, 5), (4096, 100, 4, 3), (4096, 200, 2, 3), (4096, 1000, 2, 1),
    (1025, 12, 2, 4), (1025, 150, 2, 1), (257, 3, 2, 1), (1201, 1, 2, 5),
    (4094, 100, 2, 1),
], ids=["smooth-100", "p2-100", "smooth-200", "smooth-1000", "n1025-12",
        "n1025-150", "n257-3-step-cap", "n1201-1-step-cap", "prime-n-1"])
def test_stride_rule(n, ell_max, degree, q):
    # the largest divisor of N - 1 within the budget and the step cap; N 4094
    # has N - 1 = 4093 prime, so no stride above 1 divides it
    grid = geo.make_grid(30.0, n)
    assert bergman._stride(grid, ell_max, degree) == q
    fits = lambda r: (r * grid.spacing <= bergman.STRIDE_STEP_MAX and
                      (r * grid.spacing) ** 2 * ell_max * degree <= bergman.STRIDE_BUDGET)
    assert (n - 1) % q == 0 and (q == 1 or fits(q))
    assert not any((n - 1) % r == 0 and fits(r) for r in range(q + 1, n))


def test_strided_run_keeps_every_qth_solve_node():
    chain = bergman.build_chain(4.0, None, p=1, m=1, grid=geo.make_grid(30.0, 1025))
    run = bergman.run_levels(chain, 12)
    q = run.stride
    assert q == 4
    solve = chain.tau.grid.nodes
    i0 = int(np.argmin(np.abs(run.grid.nodes - solve[0])))
    kept = slice(i0, i0 + (solve.size - 1) // q + 1)
    assert run.grid.nodes[kept].tobytes() == solve[::q].tobytes()
    assert run.chain.tau.values[kept].tobytes() == chain.tau.values[::q].tobytes()
    assert run.chain.target.values[kept].tobytes() == chain.target.values[::q].tobytes()
    assert run.grid.spacing == pytest.approx(q * chain.tau.grid.spacing, rel=1e-14)
    assert 0.0 < run.stride_difference <= bergman.STRIDE_TOL
    assert bergman.stride_check(run)["holds"]


def _full_widened_nodes(chain, ell_max):
    return chain.tau.grid.widened(bergman.quadrature_halfwidth(chain, ell_max)).nodes


def test_stride_one_runs_on_the_full_widened_grid(long_smooth_run):
    # N 1025 to level 150: no stride above 1 fits, so the run is the
    # full-grid run and has nothing to certify
    chain = bergman.build_chain(4.0, None, p=1, m=1, grid=geo.make_grid(30.0, 1025))
    assert long_smooth_run.stride == 1
    assert long_smooth_run.stride_difference == 0.0
    assert long_smooth_run.grid.nodes.tobytes() == _full_widened_nodes(chain, 150).tobytes()


def test_prime_node_count_falls_back_to_stride_one():
    chain = bergman.build_chain(4.0, None, p=1, m=1, grid=geo.make_grid(30.0, 4094))
    run = bergman.run_levels(chain, 5)
    assert run.grid.nodes.tobytes() == _full_widened_nodes(chain, 5).tobytes()
    assert bergman.stride_check(run) == {
        "stride": 1, "max_relative_log_gram_difference": 0.0,
        "tolerance": bergman.STRIDE_TOL, "holds": True}


@pytest.fixture(scope="module")
def grid_4096():
    return geo.make_grid(30.0, 4096)


@pytest.mark.parametrize("p, D, q", [
    (1, None, 5), (2, {"zero": "1/2"}, 3), (2, {"infinity": "1/2"}, 3),
], ids=["smooth-p1", "half-zero-p2", "half-infinity-p2"])
def test_stride_certified_on_the_benchmark_chains(grid_4096, p, D, q):
    # the chains of the bergman benchmark workload, N 4096 to level 100
    chain = bergman.build_chain(4.0, geo.divisor(**D) if D else None, p=p, m=1,
                                grid=grid_4096)
    run = bergman.run_levels(chain, 100)
    assert run.stride == q
    assert 0.0 < run.stride_difference <= bergman.STRIDE_TOL


@pytest.mark.parametrize("q, low, high", [(9, 1e-12, 1e-11), (15, 1e-7, 1e-5)])
def test_stride_certificate_refuses_a_coarse_stride(grid_4096, monkeypatch, q, low, high):
    # negative controls of STRIDE_TOL: at stride 9 the smooth chain's level
    # 100 Gram norms (about 400) are off by 6.7e-10, just past the tolerance,
    # and at stride 15 by 6.5e-4
    chain = bergman.build_chain(4.0, None, p=1, m=1, grid=grid_4096)
    monkeypatch.setattr(bergman, "_stride", lambda grid, ell_max, degree: q)
    check = bergman.stride_check(bergman.run_levels(chain, 100))
    assert check["stride"] == q
    assert not check["holds"]
    assert low < check["max_relative_log_gram_difference"] < high


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


def test_c_ell_rejects_a_small_slope_mismatch():
    # negative control of the 1e-6 slope check: a reference whose slope at
    # t -> -inf is off by 1e-3 moves the infimum to the grid's first node
    chain = bergman.build_chain(4.0, None, p=1, m=1, grid=geo.make_grid(30.0, 1025))
    run = bergman.run_levels(chain, 10)
    lv = None
    for _ in run.distances:
        lv = bergman.bergman_step(lv, run.chain)
    ref = lv.level * run.chain.target.values + bergman.frac_frame_log(lv.level, run.chain)
    assert bergman.c_ell_diagnostic(lv, ref) == run.c_ells[-1]
    with pytest.raises(ConfigurationError, match="slope mismatch at t -> -inf"):
        bergman.c_ell_diagnostic(lv, ref - 1e-3 * run.grid.nodes)


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
