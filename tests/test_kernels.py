import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialke import kernels


def _random_tridiag(rng, n):
    dl = rng.uniform(0.5, 1.5, n)
    du = rng.uniform(0.5, 1.5, n)
    d = np.abs(dl) + np.abs(du) + rng.uniform(1.0, 3.0, n)  # diagonally dominant
    dl[0] = 0.0
    du[-1] = 0.0
    b = rng.normal(size=n)
    return dl, d, du, b


def _dense(dl, d, du):
    n = d.size
    a = np.diag(d)
    a += np.diag(du[:-1], 1)
    a += np.diag(dl[1:], -1)
    return a


def test_tridiag_against_dense_solve():
    rng = np.random.default_rng(7)
    for n in (3, 17, 256):
        dl, d, du, b = _random_tridiag(rng, n)
        x = kernels.tridiag_solve(dl, d, du, b)
        ref = np.linalg.solve(_dense(dl, d, du), b)
        np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12)


def _thomas_oracle(dl, d, du, b):
    # the elimination on numpy float64 scalars, element by element
    n = d.size
    c, dd, x = du.copy(), d.copy(), b.astype(np.float64)
    for i in range(1, n):
        m = dl[i] / dd[i - 1]
        dd[i] -= m * c[i - 1]
        x[i] -= m * x[i - 1]
    x[n - 1] /= dd[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (x[i] - c[i] * x[i + 1]) / dd[i]
    return x


def _newton_system(rng, n):
    # the shape solve_ke_ode assembles: second differences minus a positive
    # density on the interior, Neumann rows at both ends.  The density is
    # bounded below so the condition number stays near 1/h^2 and two stable
    # solvers agree to 1e-12; solve_ke_ode's decaying densities reach 1e7.
    h = 60.0 / (n - 1)
    dl = np.full(n, 1.0 / h**2)
    du = np.full(n, 1.0 / h**2)
    dl[0], dl[-1], du[0], du[-1] = 0.0, -1.0, -1.0, 0.0
    d = -2.0 / h**2 - rng.uniform(0.5, 2.0, n)
    d[0] = d[-1] = 1.0
    return dl, d, du, rng.normal(size=n)


@pytest.mark.parametrize("n", [3, 1024, 4096])
def test_tridiag_newton_system_bitwise_thomas(n):
    from scipy.linalg import solve_banded

    dl, d, du, b = _newton_system(np.random.default_rng(n), n)
    before = [a.copy() for a in (dl, d, du, b)]
    x = kernels.tridiag_solve(dl, d, du, b)
    for a, a0 in zip((dl, d, du, b), before):
        assert np.array_equal(a, a0)  # inputs untouched
    assert x.dtype == np.float64
    assert np.array_equal(x, _thomas_oracle(dl, d, du, b))
    ab = np.vstack([np.r_[0.0, du[:-1]], d, np.r_[dl[1:], 0.0]])
    ref = solve_banded((1, 1), ab, b)
    np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


def test_tridiag_integer_rhs_is_read_as_float64():
    dl, d, du, _ = _newton_system(np.random.default_rng(5), 64)
    b = np.arange(64) - 20
    x = kernels.tridiag_solve(dl, d, du, b)
    assert x.dtype == np.float64
    assert np.array_equal(x, kernels.tridiag_solve(dl, d, du, b.astype(np.float64)))
    assert b.dtype.kind == "i" and b[0] == -20


def test_lse_profile_matches_direct():
    rng = np.random.default_rng(11)
    t = np.linspace(-30, 30, 500)
    slopes = rng.uniform(-3, 3, 12)
    offsets = rng.normal(size=12) * 50  # exercise wide dynamic range
    got = kernels.affine_lse_profile(t, slopes, offsets)
    direct = np.log(np.exp(np.outer(t, slopes) + offsets).sum(axis=1))
    mask = np.isfinite(direct)
    np.testing.assert_allclose(got[mask], direct[mask], rtol=1e-12)


def test_lse_quadrature_matches_plain_trapz():
    rng = np.random.default_rng(13)
    t = np.linspace(-20, 20, 1000)
    h = t[1] - t[0]
    w = np.full(t.size, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    slopes = np.array([1.0, 2.0, 3.0])
    offsets = rng.normal(size=3)
    base = -4.0 * np.logaddexp(0.0, t)
    got = kernels.affine_lse_quadrature(t, np.log(w), slopes, offsets, base)
    for j, (s, o) in enumerate(zip(slopes, offsets)):
        ref = np.log(np.sum(w * np.exp(s * t + o + base)))
        assert got[j] == pytest.approx(ref, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-40, 40), min_size=1, max_size=30))
def test_logsumexp_dominates_max(values):
    arr = np.array(values)
    out = kernels.logsumexp(arr)
    assert out >= np.max(arr) - 1e-12
    assert out <= np.max(arr) + np.log(arr.size) + 1e-12

