import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from radialke import bergman, cli
from radialke import family as fam
from radialke import geometry as geo
from radialke.errors import ConfigurationError, ConvergenceError

BASE_9 = np.linspace(-2.0, 2.0, 9)
GRID_257 = geo.make_grid(30.0, 257)


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
    for w in f.twists:
        np.testing.assert_array_equal(w.values, fs.values)
        assert (w.slope_minus, w.slope_plus, w.degree) == (0.0, 4.0, 4.0)


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


def test_small_fs_bump_accepted():
    f = fam.build_family(fam.perturbed_family_recipe(4.0, 0.05, "fs_bump"),
                         BASE_9, GRID_257)
    assert f.joint_positive


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


def test_positivity_needs_three_base_nodes():
    f = fam.build_family(fam.product_family_recipe(4.0), np.array([0.0, 1.0]),
                         GRID_257)
    rel = fam.solve_fiberwise(f)
    with pytest.raises(ConfigurationError):
        fam.base_positivity_check(rel)


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
    log_g = bergman.gram_diagonal(bergman.section_range(1, 1, 4.0), chain, None)
    for j in range(3):
        assert fam.ns_log_norm(j, 1, f)[0] == pytest.approx(log_g[j], abs=1e-10)


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


def test_ns_convexity_rejects_bad_exponents(product):
    f, _ = product
    with pytest.raises(ConfigurationError, match="outside section window"):
        fam.ns_convexity_check(99, 1, f)
    with pytest.raises(ConfigurationError, match="root order"):
        fam.ns_convexity_check(0, 0, f)


def test_ns_convexity_needs_three_fibers():
    f = fam.build_family(fam.product_family_recipe(4.0), np.array([0.0]),
                         GRID_257)
    with pytest.raises(ConfigurationError):
        fam.ns_convexity_check(1, 1, f)
