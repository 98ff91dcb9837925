import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialke import geometry as geo
from radialke.errors import ConfigurationError


@pytest.fixture(scope="module")
def grid():
    return geo.default_grid()


@pytest.fixture(scope="module")
def odd_grid():
    # node exactly at t = 0, for kink-value checks
    return geo.make_grid(30.0, 4097)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_make_grid_spacing():
    g = geo.make_grid(30.0, 4096)
    assert g.spacing == pytest.approx(60.0 / 4095)
    assert np.all(np.diff(g.nodes) > 0)
    np.testing.assert_allclose(g.nodes, -g.nodes[::-1], atol=1e-12)


def test_make_grid_three_nodes():
    g = geo.make_grid(1.0, 3)
    np.testing.assert_allclose(g.nodes, [-1.0, 0.0, 1.0])


@pytest.mark.parametrize("T,N", [(0.0, 10), (-2.0, 10), (float("nan"), 10),
                                 (1.0, 2), (1.0, 0)])
def test_make_grid_rejects_degenerate(T, N):
    with pytest.raises(ConfigurationError):
        geo.make_grid(T, N)


def test_weight_arrays_must_match_the_grid(grid):
    n = grid.node_count
    with pytest.raises(ConfigurationError, match="weight values do not match"):
        geo.RadialWeight(grid, np.zeros(n - 1), 0.0, 0.0, 0.0)
    with pytest.raises(ConfigurationError, match="curvature array does not match"):
        geo.RadialWeight(grid, np.zeros(n), 0.0, 0.0, 0.0, np.zeros(n + 1))
    w = geo.fs_weight(1.0, grid)
    # another node count, and the same count on another half width
    for other in (geo.make_grid(grid.half_width, n + 2), geo.make_grid(31.0, n)):
        with pytest.raises(ConfigurationError, match="weights live on different grids"):
            w + geo.fs_weight(1.0, other)


def test_widened_keeps_nodes(grid):
    wide = grid.widened(45.0)
    assert wide.half_width >= 45.0
    i0 = np.argmax(wide.nodes >= grid.nodes[0] - 1e-12)
    np.testing.assert_array_equal(wide.nodes[i0:i0 + grid.node_count], grid.nodes)
    assert grid.widened(grid.half_width) is grid
    # a weight widens onto the same nodes: the old values keep their bytes,
    # the new ones continue along the declared slopes (1/2 and 7/2 here)
    w = geo.fs_weight(3.0, grid) + geo.divisor_log_weight(geo.divisor(zero="1/2"), grid)
    ww = w.widened(wide)
    np.testing.assert_array_equal(ww.grid.nodes, wide.nodes)
    assert ww.values[i0:i0 + grid.node_count].tobytes() == w.values.tobytes()
    steps = np.diff(ww.values) / wide.spacing
    np.testing.assert_allclose(steps[:i0], w.slope_minus, rtol=1e-12)
    np.testing.assert_allclose(steps[i0 + grid.node_count - 1:], w.slope_plus, rtol=1e-12)
    assert (ww.slope_minus, ww.slope_plus, ww.degree) == (0.5, 3.5, 3.5)
    assert w.curvature is not None and ww.curvature is None
    assert w.widened(grid) is w and w.widened(grid.widened(1.0)) is w


def test_grid_fs_profile_computed_once_and_readonly():
    g = geo.make_grid(30.0, 1025)
    assert np.array_equal(g.fs_profile, np.logaddexp(0.0, g.nodes))
    assert np.array_equal(g.fs_sigmoid, 0.5 * (1.0 + np.tanh(0.5 * g.nodes)))
    for profile in (g.fs_profile, g.fs_sigmoid):
        assert not profile.flags.writeable
        with pytest.raises(ValueError):
            profile[0] = 1.0
    assert g.fs_profile is g.fs_profile and g.fs_sigmoid is g.fs_sigmoid
    # the model weight and the frames read the same profile, bitwise
    sig = 0.5 * (1.0 + np.tanh(0.5 * g.nodes))
    w = geo.fs_weight(3.0, g)
    assert np.array_equal(w.values, 3.0 * np.logaddexp(0.0, g.nodes))
    assert np.array_equal(w.curvature, 3.0 * sig * (1.0 - sig))
    assert np.array_equal(geo.fs_frame_log("zero", g),
                          g.nodes - np.logaddexp(0.0, g.nodes))
    assert np.array_equal(geo.fs_frame_log("infinity", g),
                          -np.logaddexp(0.0, g.nodes))


# ---------------------------------------------------------------------------
# built-in weights
# ---------------------------------------------------------------------------

def test_fs_weight_value_at_zero(odd_grid):
    w = geo.fs_weight(4.0, odd_grid)
    i0 = odd_grid.node_count // 2
    assert odd_grid.nodes[i0] == 0.0
    assert w.values[i0] == pytest.approx(4.0 * math.log(2.0))


def test_fs_weight_degree_and_convexity(grid):
    w = geo.fs_weight(3.0, grid)
    assert w.degree == 3.0
    # analytic curvature is strictly positive; discrete differences only up
    # to cancellation noise in the flat tails
    assert np.min(w.curvature) > 0.0
    assert np.min(w.second_differences()) >= -1e-9
    assert w.is_positively_curved()


def test_fs_weight_rejects_negative(grid):
    with pytest.raises(ConfigurationError):
        geo.fs_weight(-1.0, grid)


def test_convexity_flag_fails_for_concave_perturbation(grid):
    w = geo.fs_weight(4.0, grid)
    bad = geo.RadialWeight(grid, w.values - 0.5 * grid.nodes ** 2, 0.0, 4.0, 4.0)
    assert not bad.is_positively_curved()


def test_convexity_flag_fails_just_past_its_tolerance(grid):
    # negative control of TOL_CURV (1e-9): a Gaussian dent in the flat left
    # tail of the model weight, where its own curvature is below 1e-10,
    # brings the least second difference to about -3e-9, inside the band a
    # 10x looser tolerance admits
    w = geo.fs_weight(4.0, grid)
    t = grid.nodes
    dent = -6.7e-9 * np.exp(-0.5 * (t + 25.0) ** 2)
    bad = geo.RadialWeight(grid, w.values + dent, 0.0, 4.0, 4.0)
    assert -4e-9 < np.min(bad.second_differences()) < -2e-9
    assert not bad.is_positively_curved()


# ---------------------------------------------------------------------------
# mass and Lelong numbers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_convention_lock_fs_mass(grid, k):
    assert geo.weight_mass(geo.fs_weight(float(k), grid)) == pytest.approx(k)


def test_constants_carry_no_mass(grid):
    w = geo.fs_weight(3.0, grid).shifted(2.5)
    assert geo.weight_mass(w) == pytest.approx(3.0)


def test_kinked_weight_mass_matches_integral_oracle(grid):
    k = 4.0
    w = geo.fs_weight(k - 1.0, grid) + geo.kink_weight(grid)
    mass = geo.weight_mass(w)
    assert mass == pytest.approx(k)
    # independent oracle: trapezoid of discrete second differences
    d2 = w.second_differences()
    integral = float(np.sum(grid.trapezoid_weights * d2))
    assert integral == pytest.approx(k, abs=1e-8)


def test_weight_mass_rejects_inconsistent_slopes(grid):
    w = geo.RadialWeight(grid, geo.fs_weight(4.0, grid).values, 0.0, 3.0, 3.0)
    with pytest.raises(ConfigurationError):
        geo.weight_mass(w)
    with pytest.raises(ConfigurationError):
        w.mass


def test_weight_mass_property_is_the_checked_mass(grid):
    w = geo.fs_weight(4.0, grid)
    assert w.mass == geo.weight_mass(w) == 4.0


def test_lelong_smooth(grid):
    assert geo.lelong_numbers(geo.fs_weight(4.0, grid)) == (0.0, 0.0)


def test_lelong_linear_part(grid):
    w = geo.divisor_log_weight(geo.divisor(zero=0.75), grid) + geo.fs_weight(4.0, grid)
    nu0, nu_inf = geo.lelong_numbers(w)
    assert nu0 == pytest.approx(0.75)
    assert nu_inf == pytest.approx(0.0)


def test_lelong_kinked_is_zero(grid):
    w = geo.fs_weight(3.0, grid) + geo.kink_weight(grid)
    assert geo.lelong_numbers(w) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def test_mollify_smooth_weight_barely_moves(grid):
    w = geo.fs_weight(4.0, grid)
    m = geo.mollify_weight(w, 0.01)
    assert np.max(np.abs(m.values - w.values)) < 1e-3
    assert (m.slope_minus, m.slope_plus) == (w.slope_minus, w.slope_plus)


def test_mollify_kink_softplus_value(odd_grid):
    eps = 0.05
    m = geo.mollify_weight(geo.kink_weight(odd_grid), eps)
    i0 = odd_grid.node_count // 2
    assert m.values[i0] == pytest.approx(eps * math.log(2.0), rel=1e-9)


def test_mollify_kink_against_convolution_oracle(odd_grid):
    # independent oracle: numerical convolution with the logistic density
    eps = 0.08
    m = geo.mollify_weight(geo.kink_weight(odd_grid), eps)
    x = np.linspace(-45.0, 45.0, 120001)
    rho = np.exp(x) / (1.0 + np.exp(x)) ** 2
    rho /= np.trapezoid(rho, x)
    for t in (-1.0, -0.1, 0.0, 0.13, 2.0):
        i = int(np.argmin(np.abs(odd_grid.nodes - t)))
        ti = odd_grid.nodes[i]
        oracle = np.trapezoid(np.maximum(ti - eps * x, 0.0) * rho, x)
        assert m.values[i] == pytest.approx(oracle, abs=2e-8)


def test_mollify_monotone_in_eps(grid):
    w = geo.fs_weight(3.0, grid) + geo.kink_weight(grid)
    m1 = geo.mollify_weight(w, 0.02)
    m2 = geo.mollify_weight(w, 0.08)
    assert np.all(m1.values <= m2.values + 1e-12)
    assert np.all(m1.values >= w.values - 1e-12)


def test_mollify_first_order_convergence(grid):
    w = geo.kink_weight(grid)
    sups = [np.max(np.abs(geo.mollify_weight(w, e).values - w.values))
            for e in (0.2, 0.1, 0.05)]
    assert sups[0] > sups[1] > sups[2]
    # halving eps roughly halves the gap: O(eps) rate
    assert sups[1] / sups[0] == pytest.approx(0.5, abs=0.1)
    assert sups[2] / sups[1] == pytest.approx(0.5, abs=0.1)


def _dense_mollify(w, eps):
    # the closed form summed over every node pair, 512 rows at a time
    t, h, u = w.grid.nodes, w.grid.spacing, w.values
    seg = np.diff(u) / h
    jumps = np.concatenate([[seg[0] - w.slope_minus], np.diff(seg),
                            [w.slope_plus - seg[-1]]])
    rows = [np.log1p(np.exp(-np.abs(ts[:, None] - t[None, :]) / eps)) @ jumps
            for ts in np.array_split(t, -(-t.size // 512))]
    return u + eps * np.concatenate(rows)


@pytest.mark.parametrize("eps", [1e-4, 0.1, 5.0, 40.0])
@pytest.mark.parametrize("with_kink", [False, True])
def test_mollify_banded_matches_dense_sum(grid, eps, with_kink):
    # at eps = 40 the 45 eps band is wider than the T = 30 grid
    w = geo.fs_weight(4.0, grid)
    if with_kink:
        w = w + geo.kink_weight(grid)
    m = geo.mollify_weight(w, eps)
    np.testing.assert_allclose(m.values, _dense_mollify(w, eps), rtol=0, atol=1e-12)
    assert (m.slope_minus, m.slope_plus, m.degree) == \
        (w.slope_minus, w.slope_plus, w.degree)
    assert not m.values.flags.writeable


def test_mollify_rejects_bad_scale(grid):
    with pytest.raises(ConfigurationError):
        geo.mollify_weight(geo.kink_weight(grid), 0.0)
    with pytest.raises(ConfigurationError):
        geo.mollify_weight(geo.kink_weight(grid), -0.5)


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------

def test_divisor_frame_norm_empty_is_one(grid):
    f = np.exp(geo.divisor_frame_log(geo.DivisorData(), grid))
    np.testing.assert_allclose(f, 1.0)


def test_divisor_frame_asymptote(grid):
    D = geo.divisor(zero=Fraction(1, 2))
    f = np.exp(geo.divisor_frame_log(D, grid))
    t = grid.nodes
    left = t < -10
    np.testing.assert_allclose(f[left], np.exp(0.5 * t[left]), rtol=1e-4)


def test_divisor_frame_eps_floor(grid):
    D = geo.divisor(zero=Fraction(1, 2))
    f = np.exp(geo.divisor_frame_log(D, grid, eps=0.1))
    assert f[0] == pytest.approx(0.1, rel=1e-10)


def test_divisor_klt_flag():
    assert geo.divisor(zero=Fraction(1, 2)).is_klt
    assert not geo.divisor(zero=Fraction(3, 2)).is_klt
    with pytest.raises(ConfigurationError):
        geo.divisor(zero=Fraction(-1, 2))


MALFORMED_COEFFICIENTS = pytest.mark.parametrize(
    "value", ["abc", "1/0", float("nan"), float("inf"), float("-inf"), None, -1, "-1/2"],
    ids=["abc", "1/0", "nan", "inf", "-inf", "None", "-1", "-1/2"])


@MALFORMED_COEFFICIENTS
@pytest.mark.parametrize("loc", ["zero", "infinity"])
def test_divisor_refuses_what_is_not_a_finite_rational(loc, value):
    # the one home of the coefficient rule: a malformed value is a
    # ConfigurationError that names the point and echoes the value
    with pytest.raises(ConfigurationError) as exc:
        geo.divisor(**{loc: value})
    assert str(exc.value) == (f"divisor coefficient at {loc} must be a finite "
                              f"rational >= 0, got {value!r}")


@pytest.mark.parametrize("eps", [-0.1, float("nan"), float("inf")])
def test_divisor_frame_refuses_a_bad_floor(grid, eps):
    with pytest.raises(ConfigurationError, match="frame floor must be finite and >= 0"):
        geo.divisor_frame_log(geo.divisor(zero="1/2"), grid, eps)


def test_divisor_is_its_two_coefficients():
    assert geo.divisor(zero="0") == geo.DivisorData()
    assert geo.divisor(zero="0").terms == ()
    assert geo.divisor(zero="1/2").terms == (("zero", Fraction(1, 2)),)
    D = geo.divisor(zero=0.25, infinity="1/3")
    assert D.terms == (("zero", Fraction(1, 4)), ("infinity", Fraction(1, 3)))
    assert (D.coefficient("zero"), D.coefficient("infinity")) == (D.zero, D.infinity)
    assert D.total == Fraction(7, 12)


def test_divisor_log_weight_bookkeeping(grid):
    D = geo.divisor(zero=Fraction(1, 2), infinity=Fraction(1, 4))
    w = geo.divisor_log_weight(D, grid)
    assert geo.lelong_numbers(w) == (0.5, 0.25)
    assert geo.weight_mass(w) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_weight_round_trips_to_csv_and_json(tmp_path):
    import json
    from radialke import io as rio
    from radialke.conventions import CONVENTIONS_HASH

    g = geo.make_grid(10.0, 101)
    w = geo.fs_weight(3.0, g)
    rio.weight_to_csv(w, str(tmp_path / "w.csv"))
    header, data = rio.read_csv(str(tmp_path / "w.csv"))
    assert header == ["t", "u", "du_dt", "d2u_dt2"]
    np.testing.assert_allclose(data[:, 0], g.nodes)
    np.testing.assert_allclose(data[:, 1], w.values)
    np.testing.assert_allclose(data[:, 3], w.curvature)

    rio.write_json(str(tmp_path / "w.json"), rio.weight_record(w))
    rec = json.loads((tmp_path / "w.json").read_text())
    assert rec["degree"] == 3.0
    assert rec["slope_plus"] == 3.0
    assert rec["grid"] == {"half_width": 10.0, "node_count": 101}
    assert rec["convention_hash"] == CONVENTIONS_HASH


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 8.0), st.floats(0.0, 8.0), st.floats(0.0, 1.0))
def test_weight_combination_mass_is_affine(k1, k2, lam):
    g = geo.make_grid(30.0, 513)
    w = geo.fs_weight(k1, g).scaled(lam) + geo.fs_weight(k2, g).scaled(1.0 - lam)
    expected = lam * k1 + (1.0 - lam) * k2
    assert geo.weight_mass(w, tol=1e-4) == pytest.approx(expected, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 6.0))
def test_fs_weight_is_positively_curved(k):
    g = geo.make_grid(20.0, 257)
    assert geo.fs_weight(k, g).is_positively_curved()
