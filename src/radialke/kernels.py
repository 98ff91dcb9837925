"""Hot numeric kernels, in plain numpy.

Everything downstream funnels its inner loops through four operations: a
plain ``logsumexp`` of a vector or of each matrix row, and these three:

``tridiag_solve``
    The Newton linearizations of the radial Monge-Ampere equation, in
    symmetric form ``(e, d, b)``: one off-diagonal ``e``, shared by the two
    rows it couples.  No pivoting; the systems are weakly diagonally
    dominant by construction (interior rows ``D^2 - diag(g e^v)``, Neumann
    rows at both ends scaled by ``-1/h^2`` to keep the matrix symmetric).
    While a system has more than ``SWEEP_ROWS = 128`` rows, odd-even
    (cyclic) reduction in numpy eliminates its odd rows and halves it; a
    Thomas sweep on Python floats solves the rest, and the eliminated rows
    are recovered level by level.  Each level's system is a Schur complement
    (Heller, SIAM J. Numer. Anal. 13, 1976), so it stays symmetric and
    diagonally dominant and reduction stays stable: a level updates ``d``,
    ``e`` and ``b`` from one reciprocal of the odd pivots.  The tests bound
    the normwise backward error of the hybrid and of the sweep alike by
    ``4 eps``.  A system of at most 128 rows is solved by the sweep alone,
    bitwise the float64 symmetric Thomas elimination; a larger one moves at
    rounding level.  A full reduction would pay numpy's per-call overhead
    on its last, tiny levels, which the sweep does faster.  One call, one
    BLAS thread, 2-CPU host, against the general ``(dl, d, du)`` reduction
    it replaced: 116 -> 95 us at 1024 rows, 209 -> 179 us at 4096 and 22 ->
    18 us at 65.  A general system passed as ``(dl, d, du, b)`` is scaled
    row by row to the symmetric form first, which costs about what the
    symmetric solve saves (123 us at 1024 rows).

``affine_lse_profile``
    ``out[i] = log sum_j exp(slopes[j] * t[i] + offsets[j])``, the log-kernel
    profile of a rotation-invariant Bergman kernel in its monomial basis.

``affine_lse_quadrature``
    ``out[j] = log sum_i exp(slopes[j] * t[i] + offsets[j] + base[i] + logw[i])``,
    a whole batch of exponentially weighted trapezoid integrals in log scale.
    Gram norms span hundreds of orders of magnitude at high level, so linear
    scale is never used.

Both affine kernels are block factored (the absorption idea of
log-domain stabilized scaling, Schmitzer, arXiv:1610.06519).  Cut the nodes
into ``nb`` blocks of ``B`` consecutive nodes with centres ``tau_b``; on a
uniform grid every block has the same offsets ``delta_r`` from its centre.
With ``m`` the midpoint of the slope window,

    exp(s_j t_i + c) = exp((s_j - m) delta_r) * exp(s_j tau_b + m delta_r + c),

and the first factor is one ``B x J`` matrix ``E`` shared by every block.
The profile stabilizes ``s_j tau_b + offsets_j`` by its maximum over ``j`` in
each block, multiplies by ``E.T`` and adds ``m delta_r``; the quadrature
stabilizes ``base + logw + m delta_r`` by its maximum in each block,
multiplies by ``E`` and then sums the ``nb`` block logs stably.  ``B`` is the
largest width with ``max|s - m| h (B - 1) / 2 <= CAP``, and at most
``ceil(sqrt(n))`` so that ``E`` never grows to ``n x J``; centring halves
``max|s|`` on level 1000's window (0, 2000) and keeps wide blocks there.
So ``E`` lies in ``[e^-CAP, e^CAP]``, nothing overflows and each row's
dominant term is at least ``e^-CAP``.  A stabilized exponent below ``FLOOR =
-145 - 2 CAP`` is an exact 0 before ``exp`` sees it, in the block matrix and
in the quadrature's sum over blocks.  With ``CAP = 180``, ``FLOOR + 2 CAP <=
-145``: a dropped term is below ``e^-145`` of its row's dominant term, far
under the sum's rounding; ``FLOOR - CAP >= -708`` (the least normal double is
``e^-708.4``): a kept entry times a factor of ``E`` is normal, so neither
``exp`` nor the GEMM meets a subnormal number, on which numpy's ``exp`` is
120 times slower (19 times on inputs below -745) and a GEMM 1.7 times.  All
terms are positive, so there is no cancellation.  The nodes must be uniform,
``t[i] = t[0] + i h`` to ``1e-12 max(1, max|t|)``, checked in O(n); a
``ValueError`` otherwise.

``block_layout(t, slopes)`` holds what depends only on the nodes and the
exponents: the width, the centres, ``E``, ``tau_b s_j`` and ``m delta_r``.
One Bergman level runs both kernels on the same nodes and exponents, so it
passes one layout to both as ``layout=``.  A run knows every level's
exponent window before its first level, so its levels read their layouts
from one ``LayoutTable``: it checks the grid once and, for each block width
the run meets, computes ``E`` over the centred exponents and ``tau_b s_j``
over the integer exponents of the windows of that width once, sized to
them; a level's layout is a column slice, each entry the product and
``exp`` that ``block_layout`` computes.  A call keeps one ``nb x J`` block
matrix alive and shifts, exponentiates and takes logs in place.

Both kernels' products run in row chunks of fewer than ``GEMM_CELLS``
multiply-adds, which OpenBLAS runs on one thread each, so the results are
bitwise the same at every BLAS thread count.  The profile's block matrix is
mostly exact zeros at high level (85% at level 100 of the default run): the
sections within ``e^FLOOR`` of a block's dominant one form a band that
moves with the block.  So each of its chunks exponentiates and multiplies
only the band from the first to the last section that survives ``FLOOR``
in one of its rows, read from the ``< FLOOR`` mask.  The columns left out
are exact zeros, but a shorter product may sum in another order: the
benchmark's 100-level chains and the default 200-level run keep the full
products' bits (OpenBLAS 0.3.31), and a 1000-level run's log Gram norms
move by at most one unit in the last place.
A call of one chunk skips the search, which there costs more than it
saves.  The search pays on long runs only: a 1000-level ``run_levels``
takes 5.0 s of CPU time against 6.0 s with full products, while at 100
and 200 levels the difference is below the run-to-run spread.

Cost per call: one GEMM of at most ``2 n J`` flops and at most ``nb J`` exps
(the quadrature adds ``nb J`` logs and ``n`` exps), where the dense form
takes ``n J`` exps; a fresh layout adds ``B J`` exps, a table slice none.
On a 2-CPU host with one BLAS thread, on the inputs of level 200 of the
default chain (N 4096, k 4, p 1) on its full widened grid (11888 nodes x
401 sections; the grid of a stride-1 run and of a strided run's
certificate), a profile call takes 0.37 ms (0.78 ms unbanded), a
quadrature call 0.60 ms and ``block_layout`` 0.23 ms, against 4 us for a
table slice; on the stride-3 grid the default 200-level run uses (3964 x
401) 0.22, 0.34 and 0.15 ms.  On the inputs of level 1000 (12106 x 2001,
stride 1) they take 3.8, 8.6 and 1.6 ms (profile 7.0 ms unbanded).  Per
level, the default 200-level run takes 0.61 ms (1.0 ms on the full grid)
and a 1000-level run 6.1 ms.

The test suite checks each kernel against a dense or direct oracle at 1e-12
relative tolerance.
"""

from __future__ import annotations

import math
import mmap
from typing import NamedTuple, Optional

import numpy as np

CAP = 180.0  # bound on every factor's exponent in the log-sum-exp kernels
#: a stabilized exponent below this is an exact 0 in the log-sum-exp kernels
FLOOR = -145.0 - 2.0 * CAP
#: OpenBLAS gives a GEMM one thread per 2**18 of ``m n k``, rounded down, so
#: one below this size runs on one thread; a threaded GEMM's bits depend on
#: where its output is split between threads
GEMM_CELLS = 2**19
#: a system of at most this many rows goes straight to the sequential sweep;
#: below it, numpy call overhead outweighs what a reduction level saves
SWEEP_ROWS = 128


def tridiag_solve(*system: np.ndarray) -> np.ndarray:
    """Solve a symmetric tridiagonal system by odd-even reduction down to a
    Thomas sweep.

    ``tridiag_solve(e, d, b)``: row ``i`` reads ``e[i-1] x[i-1] + d[i] x[i]
    + e[i] x[i+1] = b[i]``, with ``n`` entries of ``d`` and ``b`` and
    ``n - 1`` of ``e``; ``b`` is read as float64, no input is modified.  A
    system of at most ``SWEEP_ROWS`` rows is solved by the sweep alone,
    bitwise as the float64 symmetric Thomas elimination; a larger one is
    halved level by level first and its eliminated rows are recovered after
    the sweep.  A zero pivot raises ``ZeroDivisionError``; one met by the
    reduction names its row.

    ``tridiag_solve(dl, d, du, b)`` takes a general system (``dl[i]``
    multiplies ``x[i-1]``, ``du[i]`` multiplies ``x[i+1]``, ``dl[0]`` and
    ``du[-1]`` unused) and scales its rows to the symmetric form first; see
    :func:`_symmetrized`.
    """
    e, d, b = _symmetrized(*system) if len(system) == 4 else system
    b = np.asarray(b, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    levels, stride = [], 1
    while d.size > SWEEP_ROWS:
        # even rows stay; odd row 2k + 1, coupled to 2k by e[2k] and to
        # 2k + 2 by e[2k + 1], is eliminated into both, so the coupling of
        # the even rows 2k and 2k + 2 is e[2k] e[2k + 1] / -d[2k + 1] from
        # either side: the Schur complement stays symmetric
        do = d[1::2]
        if not do.all():
            row = stride * (2 * int(np.argmin(do != 0.0)) + 1)
            raise ZeroDivisionError(f"zero pivot in row {row}")
        r = np.divide(-1.0, do)
        el, er, bo = e[::2], e[1::2], b[1::2]
        no, m = do.size, er.size
        f, g = el * r, er * r[:m]
        d = d[::2].copy()
        d[:no] += el * f
        d[1:] += er * g
        b = b[::2].copy()
        b[:no] += f * bo
        b[1:] += g * bo[:m]
        e = f[:m] * er
        levels.append((el, er, r, bo))
        stride *= 2
    x = _sweep(e, d, b)
    for el, er, r, bo in reversed(levels):
        xo = el * x[:r.size]
        xo[:er.size] += er * x[1:]
        xo -= bo
        xo *= r
        xe, x = x, np.empty(x.size + r.size)
        x[::2], x[1::2] = xe, xo
    return x


def _symmetrized(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
                 b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of a general system scaled to the symmetric ``(e, d, b)``.

    Row ``i + 1`` is scaled by ``s[i + 1] = s[i] du[i] / dl[i + 1]`` with
    ``s[0] = 1``, which leaves the solution as it is; a ``ValueError``
    unless every scale is finite and nonzero, so every coupling must be.
    """
    d = np.asarray(d, dtype=np.float64)
    with np.errstate(all="ignore"):  # refused below
        s = np.cumprod(np.r_[1.0, np.divide(du[:-1], dl[1:])])
    if not (np.all(np.isfinite(s)) and s.all()):
        raise ValueError("a general tridiagonal system needs couplings that "
                         "scale it to a symmetric one")
    return s[:-1] * du[:-1], s * d, s * np.asarray(b, dtype=np.float64)


def _sweep(e: np.ndarray, d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Thomas elimination of ``tridiag_solve``'s symmetric system,
    float64 ``b``.

    The sweep is sequential, so it runs on Python floats: they are IEEE
    doubles and each step is the float64 elimination's operation in its
    order, so the result is bitwise the same, about four times faster than
    on numpy scalars.
    """
    c, dd, x = e.tolist(), d.tolist(), b.tolist()
    piv, y = dd[0], x[0]
    for i, a in enumerate(c, 1):
        m = a / piv
        dd[i] = piv = dd[i] - m * a
        x[i] = y = x[i] - m * y
    x[-1] = y = y / piv
    for i in range(len(x) - 2, -1, -1):
        x[i] = y = (x[i] - c[i] * y) / dd[i]
    return np.array(x)


class BlockLayout(NamedTuple):
    """Blocks of a uniform grid and the factors every call on it shares.

    Node ``b * width + r`` sits at ``tau[b] + delta[r]`` with
    ``delta = (arange(width) - (width - 1) / 2) * h``.  With ``mid`` the
    midpoint of the slopes, ``e[r, j] = exp((slopes[j] - mid) * delta[r])``
    serves every block, ``ts[b, j] = tau[b] * slopes[j]`` and ``shift[r] =
    mid * delta[r]``.  The arrays are read-only.
    """

    width: int
    tau: np.ndarray
    e: np.ndarray
    ts: np.ndarray
    shift: np.ndarray


def block_layout(t: np.ndarray, slopes: np.ndarray) -> BlockLayout:
    """The block layout of nodes ``t`` for exponents ``slopes``."""
    h = _uniform_step(t)
    mid = (float(np.max(slopes)) + float(np.min(slopes))) / 2
    centred = slopes - mid
    width = _block_width(t.size, float(np.max(np.abs(centred))) * abs(h))
    delta, tau = _blocks(t, h, width)
    return _frozen(BlockLayout(width, tau, _block_factor(delta, centred),
                               np.outer(tau, slopes), mid * delta))


class LayoutTable:
    """The block layouts of one uniform grid for a known sequence of integer
    exponent windows ``[lo, hi]``, such as the levels of a Bergman run.

    ``layout(i)`` is bit for bit ``block_layout(t, arange(lo_i, hi_i + 1))``:
    the grid is checked once, and the windows that share a block width
    (consecutive ones, as the width falls while the windows widen) read
    their ``E`` and ``tau_b s_j`` as column slices of two tables built when
    the first of them is asked for.  ``E``'s table spans the centred
    exponents ``j - mid`` of those windows, integers for an odd window
    length and half-integers for an even one, and the ``ts`` table their
    integer exponents, each entry the product and ``exp`` that
    :func:`block_layout` computes; only the current width's tables are kept.
    """

    def __init__(self, t: np.ndarray, windows):
        self._t, self._h = t, _uniform_step(t)
        self._windows = [(int(lo), int(hi)) for lo, hi in windows]
        self._widths = [_block_width(t.size, (hi - lo) / 2 * abs(self._h))
                        for lo, hi in self._windows]
        self._group = range(0)

    def layout(self, i: int) -> BlockLayout:
        """The layout of window ``i``."""
        if i not in self._group:
            self._build(i)
        lo, hi = self._windows[i]
        n = hi - lo + 1
        col = (self._odd - n) // 2 if n % 2 else self._odd + (self._even - n) // 2
        return _frozen(BlockLayout(self._widths[i], self._tau,
                                   self._e[:, col:col + n],
                                   self._ts[:, lo - self._lo:hi - self._lo + 1],
                                   (hi + lo) / 2 * self._delta))

    def _build(self, i: int) -> None:
        width, stop = self._widths[i], i
        while stop < len(self._widths) and self._widths[stop] == width:
            stop += 1
        wins = self._windows[i:stop]
        sizes = [hi - lo + 1 for lo, hi in wins]
        self._odd = max((n for n in sizes if n % 2), default=0)
        self._even = max((n for n in sizes if n % 2 == 0), default=0)
        self._lo = min(lo for lo, _ in wins)
        self._delta, self._tau = _blocks(self._t, self._h, width)
        self._e = self._ts = None  # release the previous width's tables first
        centred = np.concatenate([np.arange(self._odd) - (self._odd - 1) / 2,
                                  np.arange(self._even) - (self._even - 1) / 2])
        self._e = _block_factor(self._delta, centred)
        js = np.arange(self._lo, max(hi for _, hi in wins) + 1, dtype=np.float64)
        self._ts = _unadvised_empty(self._tau.size, js.size)
        np.multiply.outer(self._tau, js, out=self._ts)
        self._group = range(i, stop)


def _unadvised_empty(rows: int, cols: int) -> np.ndarray:
    """A zeroed float64 ``rows x cols`` array in its own anonymous mapping.
    numpy advises the kernel to back its arrays of 4 MB or more with huge
    pages; with that advice on the ``tau_b s_j`` table, which lives for many
    levels, a 1000-level run peaked at 61.1 MB resident, and at 54.3 MB
    without it."""
    return np.frombuffer(mmap.mmap(-1, 8 * rows * cols)).reshape(rows, cols)


def _uniform_step(t: np.ndarray) -> float:
    """The step ``h`` of uniform nodes ``t[0] + i h``; a ``ValueError``
    unless every node is within ``1e-12 max(1, max|t|)`` of them."""
    n = t.size
    h = (t[-1] - t[0]) / max(n - 1, 1)
    scale = max(1.0, float(np.max(np.abs(t))))
    if np.max(np.abs(t - (t[0] + h * np.arange(n)))) > 1e-12 * scale:
        raise ValueError("log-sum-exp kernels need uniform nodes t[0] + i*h")
    return h


def _block_width(n: int, spread: float) -> int:
    """Block width of ``n`` nodes for centred exponents of largest ``|s - m|
    h`` equal to ``spread``."""
    return min(n, math.isqrt(n - 1) + 1,
               n if spread == 0 else int(2.0 * CAP / spread) + 1)


def _blocks(t: np.ndarray, h: float, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Node offsets ``delta`` in a block of ``width`` and the block centres."""
    delta = (np.arange(width) - (width - 1) / 2) * h
    tau = t[0] + (np.arange(-(-t.size // width)) * width + (width - 1) / 2) * h
    return delta, tau


def _block_factor(delta: np.ndarray, centred: np.ndarray) -> np.ndarray:
    """``E[r, j] = exp(delta[r] * centred[j])``."""
    e = np.outer(delta, centred)
    np.exp(e, out=e)
    return e


def _frozen(layout: BlockLayout) -> BlockLayout:
    for a in layout[1:]:
        a.flags.writeable = False
    return layout


def _floored_exp(x: np.ndarray, low: Optional[np.ndarray] = None) -> np.ndarray:
    """``exp(x)`` in place, an exact 0 wherever ``x < FLOOR`` (the mask
    ``low``, if given), so that no subnormal number is computed."""
    if low is None:
        low = x < FLOOR
    np.maximum(x, FLOOR, out=x)
    np.exp(x, out=x)
    np.copyto(x, 0.0, where=low)
    return x


def _chunk_rows(k: int, n: int) -> int:
    """Rows of an ``(rows, k) @ (k, n)`` GEMM below ``GEMM_CELLS``."""
    return max(1, (GEMM_CELLS - 1) // (k * n))


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in row chunks small enough for a one-thread GEMM each, so
    that the result is bitwise the same at every BLAS thread count."""
    rows = _chunk_rows(a.shape[1], b.shape[1])
    out = np.empty((a.shape[0], b.shape[1]))
    for i in range(0, a.shape[0], rows):
        np.matmul(a[i:i + rows], b, out=out[i:i + rows])
    return out


def _bands(low: np.ndarray, rows: int) -> list[slice]:
    """Per chunk of ``rows`` rows, the columns from the first to the last
    one with an entry outside ``low``; every row has one."""
    n, k = low.shape
    whole = n // rows * rows
    dropped = low[:whole].reshape(-1, rows, k).all(axis=1)
    if whole < n:
        dropped = np.concatenate([dropped, low[whole:].all(axis=0, keepdims=True)])
    lo = np.argmin(dropped, axis=1).tolist()
    hi = (k - np.argmin(dropped[:, ::-1], axis=1)).tolist()
    return [slice(a, b) for a, b in zip(lo, hi)]


def affine_lse_profile(t: np.ndarray, slopes: np.ndarray,
                       offsets: np.ndarray, *,
                       layout: Optional[BlockLayout] = None) -> np.ndarray:
    layout = layout or block_layout(t, slopes)
    c = layout.ts + offsets
    mx = c.max(axis=1, keepdims=True)
    c -= mx
    e_t = layout.e.T
    rows = _chunk_rows(*e_t.shape)
    if rows >= c.shape[0]:  # one chunk: a band search would cost more than it saves
        out = _floored_exp(c) @ e_t
    else:
        low = c < FLOOR
        out = np.empty((c.shape[0], e_t.shape[1]))
        for i, band in zip(range(0, c.shape[0], rows), _bands(low, rows)):
            x = _floored_exp(c[i:i + rows, band], low[i:i + rows, band])
            np.matmul(x, e_t[band], out=out[i:i + rows])
    np.log(out, out=out)
    out += mx
    out += layout.shift
    return out.ravel()[:t.size]


def affine_lse_quadrature(t: np.ndarray, logw: np.ndarray,
                          slopes: np.ndarray, offsets: np.ndarray,
                          base: np.ndarray, *,
                          layout: Optional[BlockLayout] = None) -> np.ndarray:
    width, tau, e, ts, shift = layout or block_layout(t, slopes)
    g = np.full(tau.size * width, -np.inf)
    np.add(base, logw, out=g[:t.size])
    g = g.reshape(tau.size, width)
    g += shift
    gx = g.max(axis=1, keepdims=True)
    gx[gx == -np.inf] = 0.0  # a block of zero weights adds nothing
    g -= gx
    lb = _matmul(_floored_exp(g), e)
    with np.errstate(divide="ignore"):
        np.log(lb, out=lb)
    lb += gx
    lb += ts
    mx = lb.max(axis=0)
    lb -= mx
    return offsets + mx + np.log(_floored_exp(lb).sum(axis=0))


def logsumexp(values: np.ndarray) -> float | np.ndarray:
    """Stable ``log(sum(exp(values)))``: a float for a 1-d array, one value
    per row for a 2-d C-contiguous one.

    A non-finite maximum is returned as it is.  Each row's value is bitwise
    the 1-d result on that row: numpy sums a contiguous row in the same
    pairwise order whether it stands alone or in a matrix.
    """
    mx = np.max(values, axis=-1)
    finite = np.isfinite(mx)
    e = np.exp(values - np.where(finite, mx, 0.0)[..., None])
    with np.errstate(divide="ignore", over="ignore"):  # only non-finite rows warn
        out = np.where(finite, mx + np.log(np.sum(e, axis=-1)), mx)
    return float(out) if values.ndim == 1 else out
