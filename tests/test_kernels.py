import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialke import kernels


def _random_tridiag(rng, n):
    e = rng.uniform(0.5, 1.5, n - 1)
    d = np.r_[e, 0.0] + np.r_[0.0, e] + rng.uniform(1.0, 3.0, n)  # diagonally dominant
    b = rng.normal(size=n)
    return e, d, b


def _dense(e, d):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def test_tridiag_against_dense_solve():
    rng = np.random.default_rng(7)
    for n in (3, 17, 256):
        e, d, b = _random_tridiag(rng, n)
        x = kernels.tridiag_solve(e, d, b)
        ref = np.linalg.solve(_dense(e, d), b)
        np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12)


def _thomas_oracle(e, d, b):
    # the symmetric elimination on numpy float64 scalars, element by element
    n = d.size
    dd, x = d.copy(), b.astype(np.float64)
    for i in range(1, n):
        m = e[i - 1] / dd[i - 1]
        dd[i] -= m * e[i - 1]
        x[i] -= m * x[i - 1]
    x[n - 1] /= dd[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (x[i] - e[i] * x[i + 1]) / dd[i]
    return x


def _newton_system(rng, n):
    # the shape solve_ke_ode assembles: second differences minus a positive
    # density on the interior, Neumann rows at both ends scaled by -1/h^2 to
    # keep the matrix symmetric.  The density is bounded below so the
    # condition number stays near 1/h^2 and two stable solvers agree to
    # 1e-12; solve_ke_ode's decaying densities reach 1e7.
    h = 60.0 / (n - 1)
    e = np.full(n - 1, 1.0 / h**2)
    d = -2.0 / h**2 - rng.uniform(0.5, 2.0, n)
    d[0] = d[-1] = -1.0 / h**2
    return e, d, rng.normal(size=n)


#: ``||A x - b|| <= BACKWARD_C eps (||A|| ||x|| + ||b||)`` in the sup norm.
#: Thomas and odd-even reduction are both backward stable on diagonally
#: dominant systems; on every system below both stay under 1 (the residual's
#: own rounding included), so 4 leaves room without hiding an unstable level.
BACKWARD_C = 4.0


def _backward_error(e, d, x, b):
    """Normwise backward error of ``x`` in units of ``eps``."""
    r = d * x - b
    r[1:] += e * x[:-1]
    r[:-1] += e * x[1:]
    a_norm = np.max(np.abs(d) + np.abs(np.r_[0.0, e]) + np.abs(np.r_[e, 0.0]))
    scale = a_norm * np.max(np.abs(x)) + np.max(np.abs(b))
    return float(np.max(np.abs(r)) / (np.finfo(np.float64).eps * scale))


def _banded(e, d, b):
    from scipy.linalg import solve_banded

    return solve_banded((1, 1), np.vstack([np.r_[0.0, e], d, np.r_[e, 0.0]]), b)


@pytest.mark.parametrize("n", [3, 1024, 4096])
def test_tridiag_newton_system_bitwise_thomas(n):
    e, d, b = _newton_system(np.random.default_rng(n), n)
    before = [a.copy() for a in (e, d, b)]
    x = kernels.tridiag_solve(e, d, b)
    for a, a0 in zip((e, d, b), before):
        assert np.array_equal(a, a0)  # inputs untouched
    assert x.dtype == np.float64
    thomas = _thomas_oracle(e, d, b)
    if n <= kernels.SWEEP_ROWS:
        assert np.array_equal(x, thomas)
    else:  # reduced first: as stable as the sweep, not bitwise the same
        assert _backward_error(e, d, x, b) <= BACKWARD_C
        assert _backward_error(e, d, thomas, b) <= BACKWARD_C
    ref = _banded(e, d, b)
    np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


# every parity of the levels: no reduction, the first one, an odd last row
# at the first level, and two to six levels of odd and even lengths
_REDUCTION_SIZES = [3, kernels.SWEEP_ROWS, kernels.SWEEP_ROWS + 1,
                    2 * kernels.SWEEP_ROWS - 1, 2 * kernels.SWEEP_ROWS + 1,
                    1023, 1025, 4097]


@pytest.mark.parametrize("n", _REDUCTION_SIZES)
@pytest.mark.parametrize("shape", ["random", "newton"])
def test_tridiag_reduction_sizes(n, shape):
    rng = np.random.default_rng(n)
    e, d, b = (_random_tridiag if shape == "random" else _newton_system)(rng, n)
    x = kernels.tridiag_solve(e, d, b)
    ref = _banded(e, d, b)
    np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
    assert _backward_error(e, d, x, b) <= BACKWARD_C
    if n <= 2 * kernels.SWEEP_ROWS + 1:
        dense = np.linalg.solve(_dense(e, d), b)
        np.testing.assert_allclose(x, dense, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(dense)))
    # the general layout of the same system, its rows scaled away from
    # symmetry: the same solution, the unused corners never read
    s = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    dl, du = np.r_[np.nan, e] * s, np.r_[e, np.nan] * s
    general = kernels.tridiag_solve(dl, d * s, du, b * s)
    np.testing.assert_allclose(general, ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref)))


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 3000), st.integers(0, 2**32 - 1))
def test_tridiag_random_diagonally_dominant(n, seed):
    # random signs and a dominance margin down to 5% of the row's off-diagonals
    rng = np.random.default_rng(seed)
    e = rng.uniform(-1.5, 1.5, n - 1)
    d = ((np.abs(np.r_[0.0, e]) + np.abs(np.r_[e, 0.0])) * rng.uniform(1.05, 2.0, n)
         + 1e-3) * rng.choice([-1.0, 1.0], n)
    b = rng.normal(size=n)
    x = kernels.tridiag_solve(e, d, b)
    assert _backward_error(e, d, x, b) <= BACKWARD_C
    ref = _banded(e, d, b)
    np.testing.assert_allclose(x, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))


def test_tridiag_decaying_density_newton_system():
    # the density of a Newton step near the closed form, decaying like e^-|t|
    # to 1e-13 at the ends: the system is nearly the singular Neumann
    # Laplacian, condition ~6e6, so the solvers agree to eps * condition
    n = 2049
    t = np.linspace(-30.0, 30.0, n)
    h = t[1] - t[0]
    e, _, b = _newton_system(np.random.default_rng(1), n)
    rho = np.exp(-np.abs(t))
    d = -2.0 / h**2 - 2.0 * rho / (1.0 + rho) ** 2
    d[0] = d[-1] = -1.0 / h**2
    inv = _banded(e, d, np.eye(n))
    cond = float(np.max(np.abs(_dense(e, d)).sum(axis=1))
                 * np.max(np.abs(inv).sum(axis=1)))
    assert 1e6 < cond < 1e8
    ref = _banded(e, d, b)
    eps = np.finfo(np.float64).eps
    for x in (kernels.tridiag_solve(e, d, b), _thomas_oracle(e, d, b)):
        assert _backward_error(e, d, x, b) <= BACKWARD_C
        assert np.max(np.abs(x - ref)) <= 4.0 * eps * cond * np.max(np.abs(ref))


@pytest.mark.parametrize("n,row,coupled", [
    (3, 0, True),        # the sweep's first pivot
    (1024, 5, True),     # eliminated at the first level
    (1024, 4, False),    # eliminated at the third level
    (1024, 0, False),    # kept down to the sweep
])
def test_tridiag_zero_pivot_raises(n, row, coupled):
    e, d, b = _newton_system(np.random.default_rng(n), n)
    if not coupled:  # a diagonal system keeps the zero at every level
        e[:] = 0.0
        d[:] = 1.0
    d[row] = 0.0
    with pytest.raises(ZeroDivisionError) as err:
        kernels.tridiag_solve(e, d, b)
    if n > kernels.SWEEP_ROWS and row:
        assert str(err.value) == f"zero pivot in row {row}"


def test_tridiag_integer_rhs_is_read_as_float64():
    e, d, _ = _newton_system(np.random.default_rng(5), 64)
    b = np.arange(64) - 20
    x = kernels.tridiag_solve(e, d, b)
    assert x.dtype == np.float64
    assert np.array_equal(x, kernels.tridiag_solve(e, d, b.astype(np.float64)))
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


@pytest.mark.parametrize("n", [1, 7, 257, 4097])
def test_logsumexp_rows_bitwise_per_row(n):
    # rows of very different scale, one of them with an exp(-inf) term
    rng = np.random.default_rng(n)
    scales = np.array([1e-6, 1.0, 40.0, 700.0, 1e5, 1e300])
    rows = rng.normal(size=(scales.size, n)) * scales[:, None]
    rows[2, 0] = -np.inf
    assert rows.flags.c_contiguous
    got = kernels.logsumexp(rows)
    assert got.shape == (scales.size,)
    want = np.array([kernels.logsumexp(row) for row in rows])
    assert got.tobytes() == want.tobytes()


def test_logsumexp_rows_pass_non_finite_maxima():
    rows = np.array([[-np.inf, -np.inf], [0.0, np.inf], [1.0, np.nan],
                     [0.0, 0.0]])
    got = kernels.logsumexp(rows)
    np.testing.assert_array_equal(got, [-np.inf, np.inf, np.nan, np.log(2.0)])
    np.testing.assert_array_equal(got, [kernels.logsumexp(row) for row in rows])


# ---------------------------------------------------------------------------
# block-factored log-sum-exp kernels against dense scipy oracles
# ---------------------------------------------------------------------------

def _dense_profile(t, slopes, offsets):
    from scipy.special import logsumexp
    return logsumexp(np.outer(t, slopes) + offsets, axis=1)


def _dense_quadrature(t, logw, slopes, offsets, base):
    from scipy.special import logsumexp
    return logsumexp(np.outer(slopes, t) + offsets[:, None] + (base + logw), axis=1)


def _normwise(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _bergman_shaped(slopes, n=11888):
    # the quadrature grid and Gram offsets of a level-200 recursion: integer
    # exponents, offsets spanning hundreds of e-folds, and a base steep
    # enough that every column decays at both ends
    rng = np.random.default_rng(int(slopes[0]) + slopes.size)
    t = np.linspace(-87.0, 87.0, n)
    logw = np.full(n, np.log(t[1] - t[0]))
    logw[[0, -1]] -= np.log(2.0)
    offsets = (-np.cumsum(rng.uniform(0.5, 2.0, slopes.size))
               + 30.0 * rng.normal(size=slopes.size))
    base = t - (slopes[-1] + 2.0) * np.logaddexp(0.0, t)
    return t, logw, offsets, base


# (1600, 2000): the slopes of a level-1000 recursion; centred on their
# midpoint they span 400, and sqrt(n) sets the block width (110 nodes)
@pytest.mark.parametrize("lo,hi", [(0, 400), (50, 350), (1600, 2000)])
def test_lse_kernels_bergman_sizes_match_dense(lo, hi):
    slopes = np.arange(lo, hi + 1, dtype=np.float64)
    t, logw, offsets, base = _bergman_shaped(slopes)
    got = kernels.affine_lse_profile(t, slopes, offsets)
    assert got.shape == t.shape
    assert _normwise(got, _dense_profile(t, slopes, offsets)) <= 1e-12
    got = kernels.affine_lse_quadrature(t, logw, slopes, offsets, base)
    assert got.shape == slopes.shape
    assert _normwise(got, _dense_quadrature(t, logw, slopes, offsets, base)) <= 1e-12


def test_lse_constants_keep_terms_and_products_normal():
    # a dropped term is below e^-145 of its row's dominant term, and a kept
    # block entry times a factor of E is a normal double
    assert kernels.FLOOR + 2 * kernels.CAP <= -145
    assert kernels.FLOOR - kernels.CAP > math.log(np.finfo(float).tiny)


@pytest.mark.parametrize("n,lo,hi", [(11888, 0, 400), (11888, 1600, 2000),
                                     (12106, 0, 2000)])
def test_lse_kernels_compute_no_subnormals(n, lo, hi):
    # (0, 2000) at 12106 nodes is the window of level 1000, where CAP sets
    # the block width; terms below FLOOR are zeroed before they reach exp
    slopes = np.arange(lo, hi + 1, dtype=np.float64)
    t, logw, offsets, base = _bergman_shaped(slopes, n)
    with np.errstate(under="raise"):
        kernels.affine_lse_profile(t, slopes, offsets)
        kernels.affine_lse_quadrature(t, logw, slopes, offsets, base)


def test_lse_kernels_steep_offsets_match_dense():
    # offsets falling 5 to 20 e-folds per section put most block entries
    # below FLOOR, where both kernels take an exact 0; CAP, not sqrt(n),
    # sets the block width here (42 nodes)
    rng = np.random.default_rng(5)
    slopes = np.arange(0.0, 201.0)
    t, logw, _, base = _bergman_shaped(slopes, 2001)
    offsets = -np.cumsum(rng.uniform(5.0, 20.0, slopes.size))
    c = kernels.block_layout(t, slopes).ts + offsets
    assert np.mean(c - c.max(axis=1, keepdims=True) < kernels.FLOOR) > 0.5
    got = kernels.affine_lse_profile(t, slopes, offsets)
    assert _normwise(got, _dense_profile(t, slopes, offsets)) <= 1e-12
    got = kernels.affine_lse_quadrature(t, logw, slopes, offsets, base)
    assert _normwise(got, _dense_quadrature(t, logw, slopes, offsets, base)) <= 1e-12


def test_lse_profile_banded_chunks_match_dense():
    # concave offsets, as -log G_j of a Bergman level: the sections within
    # e^FLOOR of a block's dominant one form a band that moves with t, so
    # the profile's row chunks multiply over different bands of sections
    slopes = np.arange(0.0, 401.0)
    t, _, _, _ = _bergman_shaped(slopes)
    offsets = -0.1 * slopes**2
    layout = kernels.block_layout(t, slopes)
    c = layout.ts + offsets
    kept = c - c.max(axis=1, keepdims=True) >= kernels.FLOOR
    rows = (kernels.GEMM_CELLS - 1) // (slopes.size * layout.width)
    bands = set()
    for i in range(0, c.shape[0], rows):
        cols = np.flatnonzero(kept[i:i + rows].any(axis=0))
        bands.add((cols[0], cols[-1]))
    assert len(bands) >= 3 and (0, slopes.size - 1) not in bands
    want = _dense_profile(t, slopes, offsets)
    with np.errstate(under="raise"):
        got = kernels.affine_lse_profile(t, slopes, offsets)
        assert np.array_equal(got, kernels.affine_lse_profile(t, slopes, offsets,
                                                              layout=layout))
    assert _normwise(got, want) <= 1e-12


def test_layout_table_matches_block_layout():
    # the windows of a 1/2[0], p 2 recursion (odd and even lengths), read in
    # order and out of order: every layout is bit for bit block_layout's
    t = np.linspace(-40.0, 40.0, 2001)
    windows = [(ell, 4 * ell) for ell in range(1, 201)]
    table = kernels.LayoutTable(t, windows)
    assert len({kernels.block_layout(t, np.arange(lo, hi + 1.0)).width
                for lo, hi in windows[::20]}) > 1
    order = list(range(len(windows)))
    for i in order + order[::-7]:
        lo, hi = windows[i]
        got, want = table.layout(i), kernels.block_layout(t, np.arange(lo, hi + 1.0))
        assert got.width == want.width
        for a, b in zip(got[1:], want[1:]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable
    with pytest.raises(ValueError):
        kernels.LayoutTable(np.r_[t[:-1], t[-1] + 1e-6], windows)


def test_lse_kernels_reject_non_uniform_nodes():
    t = np.linspace(-10.0, 10.0, 101)
    t[50] += 1e-6
    slopes, offsets = np.arange(5.0), np.zeros(5)
    with pytest.raises(ValueError):
        kernels.affine_lse_profile(t, slopes, offsets)
    with pytest.raises(ValueError):
        kernels.affine_lse_quadrature(t, np.zeros(t.size), slopes, offsets, -t * t)


@pytest.mark.parametrize("n,slopes", [
    (2001, np.array([3.0])),           # one slope
    (2001, np.zeros(7)),               # all-zero slopes: the widest blocks
    (3, np.arange(-4.0, 9.0)),         # fewest nodes of a grid
    (3, np.array([250.0])),
])
def test_lse_kernels_degenerate_shapes(n, slopes):
    rng = np.random.default_rng(n + slopes.size)
    t = np.linspace(-25.0, 35.0, n)
    logw = np.log(rng.uniform(0.5, 1.5, n))
    offsets = rng.normal(size=slopes.size) * 40.0
    base = -0.1 * t * t
    got = kernels.affine_lse_profile(t, slopes, offsets)
    assert _normwise(got, _dense_profile(t, slopes, offsets)) <= 1e-12
    got = kernels.affine_lse_quadrature(t, logw, slopes, offsets, base)
    assert _normwise(got, _dense_quadrature(t, logw, slopes, offsets, base)) <= 1e-12


def test_lse_quadrature_zero_weight_run():
    # a run of zero-weight nodes longer than any block adds nothing
    t = np.linspace(-30.0, 30.0, 4001)
    slopes = np.arange(0.0, 41.0)
    logw = np.zeros(t.size)
    logw[1000:3000] = -np.inf
    base = -21.0 * np.logaddexp(0.0, t)
    offsets = np.zeros(slopes.size)
    got = kernels.affine_lse_quadrature(t, logw, slopes, offsets, base)
    keep = np.isfinite(logw)
    want = _dense_quadrature(t[keep], logw[keep], slopes, offsets, base[keep])
    assert _normwise(got, want) <= 1e-12


def _peak_bytes(call) -> int:
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scale", [1.0, 1e-3])  # steep: narrow blocks; flat: wide
def test_lse_kernels_allocate_no_dense_grid(scale):
    # besides the layout, a call keeps one nb x J block matrix alive (plus
    # node-sized vectors), never the dense n x J grid
    slopes = np.arange(0.0, 401.0) * scale
    t, logw, offsets, base = _bergman_shaped(np.arange(0.0, 401.0))
    layout = kernels.block_layout(t, slopes)
    block_bytes = layout.ts.nbytes
    layout_bytes = layout.e.nbytes + layout.ts.nbytes
    dense_bytes = t.size * slopes.size * 8
    for call in (lambda **kw: kernels.affine_lse_profile(t, slopes, offsets, **kw),
                 lambda **kw: kernels.affine_lse_quadrature(t, logw, slopes, offsets,
                                                            base, **kw)):
        fresh = _peak_bytes(call)
        assert fresh < dense_bytes
        assert fresh - layout_bytes <= 2 * block_bytes
        assert _peak_bytes(lambda: call(layout=layout)) <= 2 * block_bytes


@pytest.mark.parametrize("n,lo,hi", [(11888, 0, 400), (11888, 1600, 2000),
                                     (2001, 0, 6)])
def test_lse_kernels_shared_layout_is_bitwise_fresh(n, lo, hi):
    slopes = np.arange(lo, hi + 1, dtype=np.float64)
    t, logw, offsets, base = _bergman_shaped(slopes, n)
    layout = kernels.block_layout(t, slopes)
    for _ in range(2):  # the layout is read, never written
        assert np.array_equal(
            kernels.affine_lse_profile(t, slopes, offsets, layout=layout),
            kernels.affine_lse_profile(t, slopes, offsets))
        assert np.array_equal(
            kernels.affine_lse_quadrature(t, logw, slopes, offsets, base,
                                          layout=layout),
            kernels.affine_lse_quadrature(t, logw, slopes, offsets, base))
    assert not (layout.e.flags.writeable or layout.ts.flags.writeable)
    assert not layout.shift.flags.writeable


_THREADS_SCRIPT = """
import hashlib, sys
import numpy as np
from radialke import kernels
digest = hashlib.sha256()
for n, lo, hi in ((5865, 0, 90), (11888, 0, 400), (11888, 1600, 2000)):
    rng = np.random.default_rng(n + lo)
    t = np.linspace(-87.0, 87.0, n)
    slopes = np.arange(lo, hi + 1, dtype=np.float64)
    offsets = -np.cumsum(rng.uniform(0.5, 2.0, slopes.size))
    base = t - (hi + 2.0) * np.logaddexp(0.0, t)
    logw = np.full(n, np.log(t[1] - t[0]))
    digest.update(kernels.affine_lse_profile(t, slopes, offsets).tobytes())
    digest.update(kernels.affine_lse_quadrature(t, logw, slopes, offsets,
                                                base).tobytes())
sys.stdout.write(digest.hexdigest())
"""


def test_lse_kernels_bitwise_across_blas_threads():
    # a threaded GEMM's bits depend on where it splits its output; at these
    # shapes (levels 45, 200 and 1000 of a p = 1 recursion) one GEMM per
    # call gave different bits under one and two OpenBLAS threads
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(kernels.__file__))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        digests.add(subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env,
                                   check=True, capture_output=True, text=True).stdout)
    assert len(digests) == 1
