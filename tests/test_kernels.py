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

