import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from radialke import bergman, cli
from radialke import family as fam
from radialke import geometry as geo
from radialke import masolver as ma
from radialke.errors import ConfigurationError, ConvergenceError
from radialke.kernels import logsumexp

BASE_9 = np.linspace(-2.0, 2.0, 9)
GRID_257 = geo.make_grid(30.0, 257)
#: (recipe, precheck bypass) of the families the bitwise checks run on
RECIPES = {
    "product": (fam.product_family_recipe(4.0), False),
    "perturbed": (fam.perturbed_family_recipe(4.0, 0.05), False),
    "conic": (fam.conic_family_recipe(4.0, Fraction(1, 2), 0.05), False),
    "control": (fam.perturbed_family_recipe(4.0, -0.05), True),
}


def build(name, base=BASE_9, grid=GRID_257):
    recipe, bypass = RECIPES[name]
    return fam.build_family(recipe, base, grid, bypass_precheck=bypass)


@pytest.fixture(scope="module")
def product():
    f = fam.build_family(fam.product_family_recipe(4.0), BASE_9, GRID_257)
    return f, fam.solve_fiberwise(f)


@pytest.fixture(scope="module")
def perturbed():
    f = fam.build_family(fam.perturbed_family_recipe(4.0, 0.05), BASE_9, GRID_257)
    return f, fam.solve_fiberwise(f)


# ---------------------------------------------------------------------------
# recipes and precheck
# ---------------------------------------------------------------------------

def test_product_precheck_trivial(product):
    f, _ = product
    assert f.joint_positive
    assert f.precheck["max_abs_ss"] == 0.0
    # amplitude 0 leaves every fiber the model twist, bitwise
    fs = geo.fs_weight(4.0, GRID_257)
    for i in range(f.base_count):
        w = f.twist(i)
        np.testing.assert_array_equal(w.values, fs.values)
        assert (w.slope_minus, w.slope_plus, w.degree) == (0.0, 4.0, 4.0)


@pytest.mark.parametrize("name", ["perturbed", "conic"])
def test_twists_stored_once_as_readonly_matrix(name):
    f = build(name)
    recipe = f.recipe
    bump = fam.BUMPS[recipe.bump](GRID_257.nodes)
    fs = geo.fs_weight(recipe.k, GRID_257).values
    assert f.twists.shape == (BASE_9.size, GRID_257.node_count)
    assert not f.twists.flags.writeable
    for i, s in enumerate(BASE_9):
        # the per-fiber formula, bitwise
        np.testing.assert_array_equal(
            f.twists[i], fs + math.exp(s) * recipe.amplitude * bump)
        w = f.twist(i)
        assert np.shares_memory(w.values, f.twists)
        assert (w.slope_minus, w.slope_plus, w.degree) == (0.0, 4.0, 4.0)
    assert f.precheck == fam.hessian_certificate(
        np.column_stack(list(f.twists)), GRID_257.spacing, BASE_9[1] - BASE_9[0])


def test_perturbed_precheck_passes(perturbed):
    f, _ = perturbed
    assert f.joint_positive
    assert f.precheck["min_det"] >= -1e-6 * f.precheck["scale_det"]


def test_concave_coupling_rejected_with_offending_node():
    recipe = fam.perturbed_family_recipe(4.0, -0.05)
    failing = fam.build_family(recipe, BASE_9, GRID_257,
                               bypass_precheck=True).precheck["det_location"]
    with pytest.raises(ConfigurationError, match="interior node") as exc:
        fam.build_family(recipe, BASE_9, GRID_257)
    assert str(failing) in str(exc.value)


def test_large_cauchy_bump_rejected():
    # fat polynomial tails overwhelm the fiber curvature at this amplitude
    with pytest.raises(ConfigurationError, match="joint positivity"):
        fam.build_family(fam.perturbed_family_recipe(4.0, 0.12, "cauchy_bump"),
                         BASE_9, GRID_257)


@pytest.mark.parametrize("bump", sorted(fam.BUMPS))
def test_small_bump_accepted(bump):
    f = fam.build_family(fam.perturbed_family_recipe(4.0, 0.05, bump),
                         BASE_9, GRID_257)
    assert f.joint_positive
    assert fam.base_positivity_check(fam.solve_fiberwise(f))["passed"]


def test_unknown_recipe_and_bump_rejected():
    # recipe names are read by the CLI, which refuses an unknown one
    with pytest.raises(ConfigurationError, match="unknown family recipe"):
        cli._recipe_constructor("twisted")
    with pytest.raises(ConfigurationError, match="bump"):
        fam.FamilyRecipe(bump="sombrero")
    with pytest.raises(ConfigurationError, match="klt"):
        fam.conic_family_recipe(4.0, Fraction(3, 2))
    with pytest.raises(ConfigurationError, match="conic recipe needs a fiber divisor"):
        fam.conic_family_recipe(4.0, 0)


@pytest.mark.parametrize("a0", ["abc", "1/0", float("nan"), float("inf"), None, "-1/2"],
                         ids=["abc", "1/0", "nan", "inf", "None", "-1/2"])
def test_conic_recipe_refuses_a_malformed_a0(a0):
    # the divisor owns the coefficient rule, so the recipe refuses what the
    # CLI's --a0 passes through
    with pytest.raises(ConfigurationError) as exc:
        fam.conic_family_recipe(a0=a0)
    assert str(exc.value) == ("divisor coefficient at zero must be a finite "
                              f"rational >= 0, got {a0!r}")


def test_product_is_perturbed_at_amplitude_zero():
    assert fam.product_family_recipe(3.0) == fam.perturbed_family_recipe(3.0, 0.0)


# ---------------------------------------------------------------------------
# fiberwise solves
# ---------------------------------------------------------------------------

def test_product_columns_identical(product):
    _, rel = product
    spread = np.max(rel.weights, axis=1) - np.min(rel.weights, axis=1)
    assert np.max(spread) <= 1e-8


def test_perturbed_columns_vary_smoothly(perturbed):
    _, rel = perturbed
    d1 = np.diff(rel.weights, axis=1)
    assert np.max(np.abs(d1)) < 0.2                       # bounded base derivative
    assert np.min(np.max(np.abs(d1), axis=0)) > 1e-4      # every step genuinely moves


@pytest.mark.parametrize("name", ["product", "perturbed", "conic"])
def test_fiberwise_solve_is_the_per_fiber_constructor_loop(name):
    # the shared equation with one twist row per fiber is bitwise the loop
    # that builds every fiber's ke_problem from scratch
    f = build(name)
    rel = fam.solve_fiberwise(f)
    mus = np.exp(f.base_nodes)
    pots = []
    for idx, rep in enumerate(rel.reports):
        prob = ma.ke_problem(f.recipe.k, f.divisor, f.fiber_grid, twist=f.twist(idx))
        ref = ma.solve_ke_ode(prob, tol=fam.FIBER_TOL,
                              v0=ma.polynomial_start(pots, mus[:idx], mus[idx]))
        pots.append(ref.potential)
        np.testing.assert_array_equal(rep.potential, ref.potential)
        np.testing.assert_array_equal(rel.weights[:, idx], ref.solution.values)
        assert (rep.iterations, rep.residual, rep.integral) == \
            (ref.iterations, ref.residual, ref.integral)
        np.testing.assert_array_equal(rep.problem.twist.values, prob.twist.values)
        assert rep.problem.background is rel.reports[0].problem.background


def test_failing_fiber_reports_index():
    recipe = fam.conic_family_recipe(2.2, Fraction(1, 2), 0.0)
    f = fam.build_family(recipe, BASE_9, GRID_257, bypass_precheck=True)
    with pytest.raises(ConfigurationError, match="fiber 0"):
        fam.solve_fiberwise(f)


# ---------------------------------------------------------------------------
# positivity certificates
# ---------------------------------------------------------------------------

def test_product_positivity_certificate(product):
    _, rel = product
    cert = fam.base_positivity_check(rel)
    assert cert["passed"]
    assert cert["max_abs_mixed"] <= 1e-8
    assert cert["max_abs_ss"] <= 1e-8
    assert abs(cert["min_det"]) <= 1e-8


def test_perturbed_positivity_certificate(perturbed):
    _, rel = perturbed
    cert = fam.base_positivity_check(rel, tol=1e-6)
    assert cert["passed"]
    assert cert["min_det"] >= -1e-6 * cert["scale_det"]
    # a passing minimum is rounding noise: no location is reported for it
    assert cert["tt_location"] is None and cert["det_location"] is None


def test_positivity_fails_just_past_its_tolerance(product):
    # negative control of POSITIVITY_TOL (1e-6): the solved product family,
    # made concave along the base by -eps s^2 / 2, has det = -eps u_tt, so
    # eps = 3e-6 / max u_tt puts min det at -3e-6 (the scale stays 1),
    # inside the band a 10x looser tolerance admits
    f, rel = product
    u_tt = np.diff(rel.weights, 2, axis=0) / f.fiber_grid.spacing ** 2
    eps = 3e-6 / float(np.max(u_tt))
    bent = dataclasses.replace(rel, weights=rel.weights - 0.5 * eps * f.base_nodes ** 2)
    cert = fam.base_positivity_check(bent)
    assert cert["scale_det"] == 1.0
    assert -3.1e-6 < cert["min_det"] < -2.9e-6
    assert not cert["passed"]
    assert cert["tt_location"] is None and cert["det_location"] is not None


def test_control_family_fails_positivity():
    f = fam.build_family(fam.perturbed_family_recipe(4.0, -0.05), BASE_9,
                         GRID_257, bypass_precheck=True)
    rel = fam.solve_fiberwise(f)
    cert = fam.base_positivity_check(rel)
    assert not cert["passed"]
    assert cert["min_det"] < -1e-3  # decisively negative, not noise
    assert cert["tt_location"] is None  # the fiber direction stays convex
    i, j = cert["det_location"]  # the failing node, checked on its own
    local = fam.hessian_certificate(rel.weights[i - 1:i + 2, j - 1:j + 2],
                                    GRID_257.spacing, float(BASE_9[1] - BASE_9[0]))
    assert local["min_det"] == cert["min_det"]


def reference_certificate(U, ht, hs, tol=fam.POSITIVITY_TOL):
    """The certificate as first written, out of place: the oracle of the
    in-place stencils."""
    tt = (U[:-2, 1:-1] - 2.0 * U[1:-1, 1:-1] + U[2:, 1:-1]) / ht**2
    ss = (U[1:-1, :-2] - 2.0 * U[1:-1, 1:-1] + U[1:-1, 2:]) / hs**2
    ts = (U[2:, 2:] - U[2:, :-2] - U[:-2, 2:] + U[:-2, :-2]) / (4.0 * ht * hs)
    det = tt * ss - ts * ts
    scale_tt = max(1.0, float(np.max(np.abs(tt))))
    scale_det = max(1.0, float(np.max(np.abs(det))))
    i_tt = np.unravel_index(int(np.argmin(tt)), tt.shape)
    i_det = np.unravel_index(int(np.argmin(det)), det.shape)
    min_tt = float(tt[i_tt])
    min_det = float(det[i_det])
    tt_ok = min_tt >= -tol * scale_tt
    det_ok = min_det >= -tol * scale_det
    return {
        "passed": bool(tt_ok and det_ok),
        "min_tt": min_tt,
        "min_det": min_det,
        "max_abs_mixed": float(np.max(np.abs(ts))),
        "max_abs_ss": float(np.max(np.abs(ss))),
        "tt_location": None if tt_ok else (int(i_tt[0]) + 1, int(i_tt[1]) + 1),
        "det_location": None if det_ok else (int(i_det[0]) + 1, int(i_det[1]) + 1),
        "tol": tol,
        "scale_tt": scale_tt,
        "scale_det": scale_det,
    }


def bits(cert):
    return {k: v.hex() if isinstance(v, float) else v for k, v in cert.items()}


@pytest.mark.parametrize("name", ["perturbed", "conic", "control"])
def test_hessian_certificate_matches_reference_bitwise(name):
    base = np.linspace(-2.0, 2.0, 41)
    grid = geo.make_grid(30.0, 1024)
    f = build(name, base, grid)
    rel = fam.solve_fiberwise(f)
    ht, hs = grid.spacing, float(base[1] - base[0])
    for U in (rel.weights, f.twists.T, np.column_stack(list(f.twists))):
        for tol in (fam.POSITIVITY_TOL, 1e-12):
            assert bits(fam.hessian_certificate(U, ht, hs, tol)) == \
                bits(reference_certificate(U, ht, hs, tol))


@pytest.mark.parametrize("shape", [(2, 5), (5, 2)])
def test_hessian_certificate_needs_three_nodes_per_axis(shape):
    with pytest.raises(ConfigurationError, match="3 nodes per axis"):
        fam.hessian_certificate(np.zeros(shape), 1.0, 1.0)


def test_positivity_needs_three_base_nodes():
    with pytest.raises(ConfigurationError):
        fam.build_family(fam.product_family_recipe(4.0), np.array([0.0, 1.0]),
                         GRID_257)


def test_refined_base_is_refused():
    # the (s, s) stencil on a base that halves its step at s = 0 reads a
    # curvature that is not there: built anyway, this positive family fails
    # both certificates
    refined = np.r_[np.linspace(-2.0, 0.0, 5)[:-1], np.linspace(0.0, 2.0, 9)]
    with pytest.raises(ConfigurationError, match="uniform"):
        fam.build_family(fam.perturbed_family_recipe(4.0, 0.05), refined,
                         geo.make_grid(30.0, 513))


@pytest.mark.parametrize("base", [np.linspace(2.0, -2.0, 9),
                                  np.array([[0.0, 1.0, 2.0]])],
                         ids=["decreasing", "2-d"])
def test_malformed_base_is_refused(base):
    with pytest.raises(ConfigurationError):
        fam.build_family(fam.product_family_recipe(4.0), base, GRID_257)


# ---------------------------------------------------------------------------
# uniform bound
# ---------------------------------------------------------------------------

def test_uniform_sup_product_equals_single_fiber(product):
    _, rel = product
    got = fam.uniform_sup_check(rel, (-2.0, 2.0))
    assert got["bound"] == pytest.approx(float(np.max(rel.reports[0].potential)))


def test_uniform_sup_perturbed_finite(perturbed):
    _, rel = perturbed
    got = fam.uniform_sup_check(rel, (-2.0, 2.0))
    assert np.isfinite(got["bound"]) and got["fibers"] == 9


@pytest.mark.parametrize("fiber", [0, 4, 8])
def test_uniform_sup_nan_potential_refused(perturbed, fiber):
    _, rel = perturbed
    pot = rel.reports[fiber].potential.copy()
    pot[len(pot) // 2] = np.nan
    reports = list(rel.reports)
    reports[fiber] = dataclasses.replace(reports[fiber], potential=pot)
    bad = dataclasses.replace(rel, reports=tuple(reports))
    with pytest.raises(ConvergenceError, match="unbounded"):
        fam.uniform_sup_check(bad, (-2.0, 2.0))


def test_uniform_sup_empty_range_rejected(perturbed):
    _, rel = perturbed
    with pytest.raises(ConfigurationError):
        fam.uniform_sup_check(rel, (5.0, 6.0))


# ---------------------------------------------------------------------------
# fiberwise section norms
# ---------------------------------------------------------------------------

def test_ns_norm_beta_value(product):
    f, _ = product
    assert math.exp(fam.ns_log_norm(1, 1, f)[0]) == pytest.approx(math.pi / 3.0, rel=1e-8)


def test_ns_norm_matches_level_one_gram(product):
    f, _ = product
    chain = bergman.build_chain(4.0, None, p=1, m=1, grid=f.fiber_grid)
    log_g = bergman.bergman_step(None, chain).log_gram
    for j in range(3):
        assert fam.ns_log_norm(j, 1, f)[0] == pytest.approx(log_g[j], abs=1e-10)


@pytest.mark.parametrize("name", ["perturbed", "conic"])
def test_ns_norm_rows_are_the_per_fiber_integrals(name):
    # one row of the twist matrix per fiber, bitwise the 1-d integral
    f = build(name)
    t = GRID_257.nodes
    a0 = float(f.divisor.coefficient("zero"))
    for j, m in ((0, 1), (2, 1), (3, 2)):
        got = fam.ns_log_norm(j, m, f)
        for i in range(f.base_count):
            expo = (j / m + 1.0) * t - f.twist(i).values - a0 * t
            expo += GRID_257.log_trapezoid_weights
            want = m * (math.log(2.0 * math.pi) + logsumexp(expo))
            assert got[i] == want


def test_ns_norm_fiber_independent_on_product(product):
    f, _ = product
    vals = np.exp(fam.ns_log_norm(2, 2, f))
    assert vals.shape == (f.base_count,)
    assert np.ptp(vals) <= 1e-12 * abs(vals[0])


def test_ns_norm_rejects_bad_exponents(product):
    f, _ = product
    with pytest.raises(ConfigurationError):
        fam.ns_log_norm(99, 1, f)
    with pytest.raises(ConfigurationError):
        fam.ns_log_norm(0, 0, f)
    # k + sum a = 1.5 < 2: the adjoint bundle has negative degree at m = 1
    low = fam.build_family(fam.product_family_recipe(1.5), BASE_9, GRID_257)
    with pytest.raises(ConfigurationError, match="no sections at m = 1"):
        fam.ns_log_norm(0, 1, low)


def test_ns_norm_finite_at_klt_boundary():
    # a coefficient just below 1 stays integrable for every admissible
    # exponent; non-klt coefficients never get past recipe validation
    bad = fam.conic_family_recipe(4.0, Fraction(99, 100), 0.0)
    fb = fam.build_family(bad, BASE_9, GRID_257)
    top = math.floor(1 * (4.0 + 0.99 - 2.0) + 1e-9)
    for j in range(0, top + 1):
        assert np.all(np.isfinite(fam.ns_log_norm(j, 1, fb)))


def test_ns_convexity_product_flat(product):
    f, _ = product
    cert = fam.ns_convexity_check(1, 1, f)
    assert cert["passed"]
    assert abs(cert["min_second_diff"]) <= 1e-10


def test_ns_convexity_perturbed(perturbed):
    f, _ = perturbed
    for m in (1, 2, 3):
        for j in range(0, 2 * m + 1):
            cert = fam.ns_convexity_check(j, m, f)
            assert cert["passed"], (j, m, cert["min_second_diff"])
            assert cert["min_second_diff"] >= -1e-8


def test_ns_convexity_fails_just_past_its_tolerance():
    # negative control of NS_CONVEXITY_TOL (1e-8): the product family's
    # twists, each lowered by the constant eps s^2 / 2 of its fiber, lower
    # -log of every section norm by m eps s^2 / 2, so eps = 3e-8 puts the
    # least second difference at -3e-8 for m = 1, inside the band a 10x
    # looser tolerance admits
    f = fam.build_family(fam.product_family_recipe(4.0), BASE_9, GRID_257)
    bent = dataclasses.replace(f, twists=f.twists - 1.5e-8 * f.base_nodes[:, None] ** 2)
    cert = fam.ns_convexity_check(1, 1, bent)
    assert -3.1e-8 < cert["min_second_diff"] < -2.9e-8
    assert not cert["passed"]


def test_ns_convexity_rejects_bad_exponents(product):
    f, _ = product
    with pytest.raises(ConfigurationError, match="outside section window"):
        fam.ns_convexity_check(99, 1, f)
    with pytest.raises(ConfigurationError, match="root order"):
        fam.ns_convexity_check(0, 0, f)


def test_ns_convexity_needs_three_fibers():
    with pytest.raises(ConfigurationError):
        fam.build_family(fam.product_family_recipe(4.0), np.array([0.0]),
                         GRID_257)
