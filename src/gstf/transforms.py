"""Discrete approximations of the continuum Fourier transform, STFT and
adjoint STFT, plus defect meters for the exact identities they satisfy.

Conventions (frozen):

* forward sign -1, unitary continuum normalization: the forward transform
  approximates (2*pi)^(-1/2) * integral f(x) exp(-i x xi) dx by a Riemann
  sum with the grid step folded in, so outputs approximate continuum
  integrals rather than bare DFT values;
* window shifts are realized by integer index shifts with zero fill, never
  periodic wrap-around.
"""

from __future__ import annotations

import os
from functools import lru_cache, partial

import numpy as np

from .errors import BoundaryMassError, GridError
from .grids import (_BLOCK_BYTES, _QUIET, Grid1D, SampledFunction, TFGrid,
                    TFR, _max_profiles)

__all__ = [
    "dft", "idft", "dft2", "stft", "adjoint_stft",
    "twisted_convolution_defect", "BOUNDARY_FLOOR",
]

# Relative boundary-mass threshold gating the defect operations.
BOUNDARY_FLOOR = 1e-10

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# The work buffers of the blocks in flight in stft and adjoint_stft take at
# most _ENGINE_BYTES together, each at most _BLOCK_BYTES: the engine's memory
# is bounded at any grid size and CPU count, and a block stays in the L2
# cache from its fill through both FFTs to its unpacking.
_ENGINE_BYTES = 3 << 20

# 2*pi to long-double precision, for reducing the chirp phases
_TWO_PI = 8 * np.arctan(np.longdouble(1))

# Chirp-z rows that the streamed max-profiles unpack at a time
_SUB_ROWS = 4


@_QUIET
def _phase_fft(vals: np.ndarray, grid: Grid1D, sign: int, axis: int,
               what: str) -> np.ndarray:
    """Unitary-continuum transform along ``axis`` of ``vals`` sampled on
    the symmetric power-of-two ``grid``: sign -1 is the forward transform
    (FFT), +1 the inverse (IFFT), in one working buffer.  The pre/post
    phases move the FFT's index origin to the grid centre on both sides."""
    n = grid.count
    if n & (n - 1):
        raise GridError(f"{what}: count {n} is not a power of two")
    if grid.center != 0.0:
        raise GridError(f"{what}: grid must be centered at 0")
    shape = (n,) + (1,) * (vals.ndim - 1 - axis)  # along axis
    pre, post = (p.reshape(shape) for p in _fft_phases(n, sign))
    fft, scale = (np.fft.fft, 1) if sign < 0 else (np.fft.ifft, n)
    buf = vals * pre
    fft(buf, axis=axis, out=buf)
    return np.multiply(scale * grid.step / _SQRT_2PI * post, buf, out=buf)


def dft(f: SampledFunction) -> SampledFunction:
    """Forward transform onto the dual grid (same count, step
    2*pi/(count*step)), computed once per f."""
    return f._memoised("dft", lambda: SampledFunction(
        f.grid.dual(), _phase_fft(f.values, f.grid, -1, 0, "dft")))


def idft(F: SampledFunction) -> SampledFunction:
    """Inverse transform; idft(dft(f)) recovers f on the original grid."""
    vals = _phase_fft(F.values, F.grid, 1, 0, "idft")
    return SampledFunction(F.grid.dual(), vals)


def dft2(a: TFR) -> TFR:
    """2-D transform of a time-frequency symbol: axis 0 (x -> eta) and
    axis 1 (xi -> y), each with the unitary continuum convention."""
    vals = _phase_fft(a.values, a.tfgrid.xgrid, -1, 0, "dft2")
    vals = _phase_fft(vals, a.tfgrid.xigrid, -1, 1, "dft2")
    return TFR(TFGrid(a.tfgrid.xgrid.dual(), a.tfgrid.xigrid.dual()), vals)


def _fft_length(n: int) -> int:
    """Smallest 2^a * 3^b >= n: gstf's one FFT length, that of the chirp-z
    rows of _stft_plan and of the x-convolutions of _twisted_sum."""
    best, p3 = 1 << (n - 1).bit_length(), 3
    while p3 < best:
        best = min(best, p3 << ((n - 1) // p3).bit_length())
        p3 *= 3
    return best


def _unit(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) for long-double phases, reduced mod 2*pi before the
    float64 exp so that phases of thousands of radians keep their digits."""
    return np.exp(1j * np.mod(phase, _TWO_PI).astype(float))


@lru_cache(maxsize=16)
def _fft_phases(n: int, sign: int) -> tuple:
    """The pre- and post-phases of the transform of ``sign`` at n points.
    The forward transform's pre-phases are exp(i*pi*(n-1)*j/n), j < n,
    and its post-phases the pre-phases times exp(-i*pi*(n-1)^2/(2n)); the
    inverse uses conjugates.  The multiples of pi are reduced exactly in
    integers, so the phases keep full precision at every n."""
    j = np.arange(n, dtype=np.int64)
    pre = _unit(_TWO_PI * ((n - 1) * j % (2 * n)) / (2 * n))
    factor = complex(_unit(-_TWO_PI * ((n - 1) ** 2 % (4 * n)) / (4 * n)))
    if sign > 0:
        pre, factor = pre.conj(), factor.conjugate()
    post = pre * factor
    pre.flags.writeable = post.flags.writeable = False
    return pre, post


@lru_cache(maxsize=8)
def _stft_plan(grid: Grid1D, tfgrid: TFGrid) -> tuple:
    """Bluestein (chirp-z) factors of the STFT kernel on a grid pair, and
    the window shifts of its x positions.

    With t_j = t0 + j*h and xi_k = xi0 + k*d,
    exp(-i t_j xi_k) = a_k * b_j * c(k - j) with c(m) = exp(i h d m^2 / 2),
    so a row sum over j is a linear convolution with the chirp c.  Returns
    (a, b, spectrum, starts): spectrum is the FFT of c laid out for lags
    k - j (stft), of the length L = 2^a 3^b >= N + M - 1 that keeps the
    circular convolution linear; conj(c) for lags j - k (adjoint_stft) is
    that layout reversed and conjugated, so its FFT is spectrum.conj().
    starts[c] is the row of _window_rows that holds the window shifted to
    x_c.  The arrays are O(N + M) and read-only.
    """
    xigrid = tfgrid.xigrid
    n, m = grid.count, xigrid.count
    shift = grid.shift_index(tfgrid.xgrid.coords)
    size = _fft_length(n + m - 1)
    ld = np.longdouble
    h, d = ld(grid.step), ld(xigrid.step)
    t0 = ld(grid.center) - ld((n - 1) / 2) * h
    xi0 = ld(xigrid.center) - ld((m - 1) / 2) * d
    hd2 = h * d / 2
    j = np.arange(n, dtype=ld)
    k = np.arange(m, dtype=ld)
    lag = np.arange(max(n, m), dtype=ld)
    a = _unit(-(t0 * xi0 + t0 * d * k + hd2 * k * k))
    b = _unit(-(xi0 * h * j + hd2 * j * j))
    c = _unit(hd2 * lag * lag)
    # lags 0..m-1 at the front, -1..-(n-1) wrapped to the back
    z = np.zeros(size, dtype=complex)
    z[:m] = c[:m]
    z[size - n + 1:] = c[n - 1:0:-1]
    starts = n - np.clip(shift, -n, n)
    plan = (a, b, np.fft.fft(z), starts)
    for arr in plan:
        arr.flags.writeable = False
    return plan


def _window_rows(window: np.ndarray) -> np.ndarray:
    """Row s is a length-N view of a 3N zero-padded copy of ``window``, so
    that row starts[c] of the plan is window(t - x_c) by index shift with
    zero fill."""
    n = window.size
    padded = np.zeros(3 * n, dtype=window.dtype)
    padded[n:2 * n] = window
    return np.lib.stride_tricks.sliding_window_view(padded, n)


def _chirp_rows(count: int, width: int, spectrum: np.ndarray, fill, use):
    """``count`` rows of length ``width``, zero-padded and convolved with
    the chirp whose FFT is ``spectrum``, in blocks of at most _BLOCK_BYTES.
    fill(sl, blk) writes the rows sl into the (rows, width) view ``blk``;
    use(sl, conv) reads their convolutions, and its results come in block
    order.  With workers = min(CPUs, blocks // 2, R - 1) >= 2, where R
    rows fill _ENGINE_BYTES, at most workers + 1 blocks run on the thread
    pool at a time, each in its own buffer until its result is taken;
    otherwise all run inline in one buffer.  The buffers take at most
    _ENGINE_BYTES together: with more than two workers, the blocks are
    smaller."""
    size = spectrum.size
    rows = max(1, _BLOCK_BYTES // (16 * size))
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else 1)
    workers = min(cpus, -(-count // rows) // 2,  # blocks of _BLOCK_BYTES
                  _ENGINE_BYTES // (16 * size) - 1)  # a row or more each
    nbufs = workers + 1 if workers > 1 else 1
    rows = min(count, max(1, min(_BLOCK_BYTES, _ENGINE_BYTES // nbufs)
                          // (16 * size)))
    blocks = [slice(lo, min(count, lo + rows)) for lo in range(0, count, rows)]
    bufs = [np.empty((rows, size), dtype=complex) for _ in range(nbufs)]

    def run(k):
        sl = blocks[k]
        blk = bufs[k % len(bufs)][:sl.stop - sl.start]
        fill(sl, blk[:, :width])
        blk[:, width:] = 0.0
        np.fft.fft(blk, axis=-1, out=blk)
        blk *= spectrum
        np.fft.ifft(blk, axis=-1, out=blk)
        return use(sl, blk)

    if len(bufs) == 1:
        yield from map(run, range(len(blocks)))
        return
    # numpy's error state is per thread: the workers' is set here
    submit = partial(_pool(os.getpid(), cpus).submit, _QUIET(run))
    futures = [submit(k) for k in range(len(bufs))]
    for k in range(len(blocks)):
        yield futures[k].result()
        if k + len(bufs) < len(blocks):  # into block k's buffer
            futures.append(submit(k + len(bufs)))


@lru_cache(maxsize=1)
def _pool(pid: int, cpus: int):
    """A thread pool of ``cpus`` threads for process ``pid``: a forked child,
    which has none of its parent's threads, makes its own.  A pool that is
    replaced lets its threads go once no call uses it."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(cpus)


def _stft_blocks(f: SampledFunction, window: SampledFunction, tfgrid: TFGrid,
                 vals: np.ndarray | None = None) -> tuple:
    """(paired, blocks) for V = stft(f, window, tfgrid).  With ``vals``,
    each block taken from blocks writes its rows of V into it.  Without,
    blocks yields V's rows in row order as (sl, V[sl]) pairs, for
    _max_profiles: each block is unpacked as it is taken, _SUB_ROWS
    chirp-z rows at a time into one scratch that each pair views, so that
    the only scratch is a few rows of V whatever the CPU count.
    ``paired`` says real rows ran two window shifts per chirp-z row, which
    makes V exactly Hermitian in xi."""
    if f.grid != window.grid:
        raise GridError("stft: f and window must share a grid")
    a, b, spectrum, starts = _stft_plan(f.grid, tfgrid)
    count, n, m = starts.size, b.size, a.size
    a = a * (f.grid.step / _SQRT_2PI)
    paired = not (tfgrid.xigrid.center != 0.0 or f.values.imag.any()
                  or window.values.imag.any())
    per = 2 if paired else 1  # V's rows per chirp-z row

    if not paired:
        rows, fb = _window_rows(np.conj(window.values)), f.values * b

        def fill(sl, blk):
            for r, c in enumerate(range(sl.start, sl.stop)):
                np.multiply(rows[starts[c]], fb, out=blk[r])

        def unpack(z, v):  # chirp-z rows z into V's rows v
            np.multiply(z, a, out=v)

    else:
        # Real rows: one chirp row carries the shifts c = 2p and c' = 2p + 1
        # as (w_c + i w_c') f b.  Its output Z = V_c + i V_c' unpacks by
        # V(x, -xi) = conj V(x, xi) into V_c = (Z + conj Z[::-1]) / 2 and
        # V_c' = (Z - conj Z[::-1]) / 2i; f is halved here, so the
        # unpacking only adds.  An odd last row goes in alone.
        rows, half_f = _window_rows(window.values.real), f.values.real / 2

        def fill(sl, blk):
            for r, c in enumerate(range(2 * sl.start, 2 * sl.stop, 2)):
                np.multiply(rows[starts[c]], half_f, out=blk.real[r])
                np.multiply(rows[starts[c + 1]] if c + 1 < count else 0.0,
                            half_f, out=blk.imag[r])
                blk[r] *= b  # while the row is in cache

        def unpack(z, v):
            z *= a
            even, odd = v[0::2], v[1::2]
            p, q, k = z.real, z.imag, len(odd)
            np.add(p, p[:, ::-1], out=even.real)
            np.subtract(q, q[:, ::-1], out=even.imag)
            np.add(q[:k], q[:k, ::-1], out=odd.real)
            np.subtract(p[:k, ::-1], p[:k], out=odd.imag)

    def rows_of(sl):  # V's rows from the chirp-z rows sl
        return slice(per * sl.start, min(per * sl.stop, count))

    def write(sl, conv):
        unpack(conv[:, :m], vals[rows_of(sl)])

    def unpacked(blocks):  # each block before the engine reuses its buffer
        v = np.empty((per * _SUB_ROWS, m), dtype=complex)
        for sl, conv in blocks:
            for lo in range(0, len(conv), _SUB_ROWS):
                z = conv[lo:lo + _SUB_ROWS, :m]
                out = rows_of(slice(sl.start + lo, sl.start + lo + len(z)))
                part = v[:out.stop - out.start]
                unpack(z, part)
                yield out, part

    chirp_rows = (count + per - 1) // per
    if vals is not None:
        return paired, _chirp_rows(chirp_rows, n, spectrum, fill, write)
    return paired, unpacked(_chirp_rows(chirp_rows, n, spectrum, fill,
                                        lambda sl, conv: (sl, conv)))


@_QUIET
def stft(f: SampledFunction, window: SampledFunction, tfgrid: TFGrid) -> TFR:
    """Short-time Fourier transform V(x, xi) = F[f * conj(w(. - x))](xi).

    Every x in tfgrid.xgrid must be an integer multiple of the sample step
    so the window translate is exact by index shifting; xi is free (the
    windowed Riemann sum is evaluated at each xi by a chirp-z transform).
    For real f and window on a xi grid centred at 0 the output is exactly
    Hermitian in xi, V(x, -xi) = conj V(x, xi).

    f keeps the read-only TFR of its last window object and tfgrid
    (_Memo._kept), as it keeps dft(f).
    """
    def make():
        vals = np.empty((tfgrid.xgrid.count, tfgrid.xigrid.count),
                        dtype=complex)
        paired, blocks = _stft_blocks(f, window, tfgrid, vals)
        for _ in blocks:
            pass
        v = TFR(tfgrid, vals)
        if paired:
            v._memoised("hermitian", lambda: True)  # exactly, by the unpacking
        return v

    return f._kept("stft", (window, tfgrid), make)


@_QUIET
def _stft_profiles(f: SampledFunction, window: SampledFunction,
                   tfgrid: TFGrid) -> tuple:
    """stft(f, window, tfgrid).max_profiles(), bit for bit, kept as stft
    keeps V: those of a V that f keeps, or else reduced from the engine's
    row blocks as they come, so that neither V nor |V| is held."""
    def make():
        if (v := f._kept("stft", (window, tfgrid))) is not None:
            return v.max_profiles()
        return _max_profiles(_stft_blocks(f, window, tfgrid)[1], tfgrid)

    return f._kept("stft_profiles", (window, tfgrid), make)


def _is_hermitian(F: TFR) -> bool:
    """_hermitian of F, tested once per TFR; stft's real path marks its
    output Hermitian when it builds it."""
    return F._memoised("hermitian",
                       lambda: _hermitian(F.values, F.tfgrid.xigrid))


def _hermitian(values: np.ndarray, xigrid: Grid1D) -> bool:
    """values(x, -xi) == conj values(x, xi) exactly, xi grid centred at 0.

    The outermost mirror pair of columns goes first, so that most inputs
    that are not Hermitian are turned down without the full test."""
    k = (values.shape[1] + 1) // 2  # each mirror pair of columns once
    return (xigrid.center == 0.0
            and np.array_equal(values[:, 0], values[:, -1].conj())
            and np.array_equal(values[:, :k], values[:, ::-1][:, :k].conj()))


@_QUIET
def adjoint_stft(F: TFR, window: SampledFunction) -> SampledFunction:
    """Adjoint of the STFT against the 2-D Riemann inner product:

    g(t) = (2*pi)^(-1/2) * iint F(x, xi) w(t - x) exp(i t xi) dxi dx.

    Satisfies adjoint_stft(stft(f, w), w) ~ ||w||^2 f on well-covered grids.
    """
    a, b, spectrum, starts = _stft_plan(window.grid, F.tfgrid)
    count, n, ca, cb = starts.size, b.size, np.conj(a), np.conj(b)
    w = F._cell / _SQRT_2PI
    if window.values.imag.any() or not _is_hermitian(F):
        rows, out = _window_rows(window.values), np.zeros(n, dtype=complex)
        chirp_rows, post = count, cb * w

        def fill(sl, blk):
            np.multiply(F.values[sl], ca, out=blk)

        def weigh(sl, conv):
            terms = conv[:, :n]
            for r, c in enumerate(range(sl.start, sl.stop)):
                terms[r] *= rows[starts[c]]
            return terms
    else:
        # Hermitian F: each row's xi sum G_c is real, so one chirp row gives
        # G_c + i G_c+1 from (F_c + i F_c+1) conj(a), times conj(b); even and
        # odd rows add up each in row order.  An odd last row goes in alone.
        rows, out = _window_rows(window.values.real), np.zeros(2 * n)
        chirp_rows, post = (count + 1) // 2, w

        def fill(sl, blk):
            even = F.values[2 * sl.start:2 * sl.stop:2]
            odd = F.values[2 * sl.start + 1:2 * sl.stop:2]
            k = len(odd)
            np.subtract(even.real[:k], odd.imag, out=blk.real[:k])
            np.add(even.imag[:k], odd.real, out=blk.imag[:k])
            blk[k:] = even[k:]
            blk *= ca

        def weigh(sl, conv):
            z = conv[:, :n]
            terms = z.view(float)  # re, im, ...
            for r, c in enumerate(range(2 * sl.start, 2 * sl.stop, 2)):
                z[r] *= cb  # while the row is in cache
                terms[r, ::2] *= rows[starts[c]]
                terms[r, 1::2] *= rows[starts[c + 1]] if c + 1 < count else 0.0
            return terms

    for terms in _chirp_rows(chirp_rows, a.size, spectrum.conj(), fill, weigh):
        # carry the running sum in the first row, so that the rows add up
        # in one order whatever the block size or the worker count
        terms[0] += out
        np.sum(terms, axis=0, out=out)
    if out.size > n:  # the even rows' sums interleaved with the odd rows'
        out = out[0::2] + out[1::2]
    return SampledFunction(window.grid, post * out)


def _require_decayed(v: TFR, name: str):
    """BoundaryMassError if |V|'s largest value on the edges of its grid,
    read from V's max-profiles, exceeds BOUNDARY_FLOOR times its peak (an
    all-zero V passes)."""
    px, pxi = (p.values.real for p in v.max_profiles())
    peak = px.max()
    mass = float(max(px[0], px[-1], pxi[0], pxi[-1]) / peak) if peak else 0.0
    if mass > BOUNDARY_FLOOR:
        raise BoundaryMassError(f"{name} has relative boundary mass "
                                f"{mass:.2e}; enlarge the time-frequency grid")


def _rel_defect(got, ref) -> float:
    """The identity meters' relative defect max|got - ref| / max|ref|,
    over 1 where ref is zero."""
    return float(np.max(np.abs(got - ref)) / (np.max(np.abs(ref)) or 1.0))


def _require_odd_centered(grid: Grid1D, what: str):
    if grid.center != 0.0 or grid.count % 2 == 0:
        raise GridError(f"{what}: needs an odd-count grid centered at 0 "
                        "so coordinate differences stay on the grid")


def _twisted_sum(v1f: TFR, v23: TFR) -> np.ndarray:
    """(2*pi)^(-1/2) * iint v1f(x-y, xi-eta) v23(y, eta) exp(-i (x-y) eta)
    dy deta as a Riemann sum on the odd, centred grid both share."""
    tfgrid = v1f.tfgrid
    nx, nxi = tfgrid.xgrid.count, tfgrid.xigrid.count
    mx, mxi = (nx - 1) // 2, (nxi - 1) // 2
    u, eta = tfgrid.xgrid.coords, tfgrid.xigrid.coords
    # Linear convolution over x as a circular one of length L >= nx+mx: the
    # kept outputs mx .. mx+nx-1 stay clear of the wrapped tail.
    # With exp(-i (x-y) eta) = exp(-i x eta) exp(i y eta), both operands
    # are transformed once and each eta takes one product and one IFFT,
    # in one work buffer, summed in (xi, x) rows.
    L = _fft_length(nx + mx)
    turn = np.exp(1j * np.outer(eta, u))  # exp(i y eta), one row per eta
    a_hat = np.fft.fft(v1f.values.T, L, axis=-1)  # (xi, x) rows
    b_hat = np.fft.fft(v23.values.T * turn, L, axis=-1)
    np.conj(turn, out=turn)  # now exp(-i x eta), the post-modulation
    acc = np.zeros((nxi, nx), dtype=complex)
    work = np.empty((nxi, L), dtype=complex)
    # Hermitian operands give a Hermitian sum (eta -> -eta): fill xi >= 0.
    half = mxi if _is_hermitian(v1f) and _is_hermitian(v23) else 0
    for jeta in range(nxi):
        # xi - eta maps xi index jxi to v1f column jxi - jeta + mxi
        lo = max(half, jeta - mxi)
        hi = min(nxi, nxi + jeta - mxi)
        conv = work[:hi - lo]
        np.multiply(a_hat[lo - jeta + mxi : hi - jeta + mxi], b_hat[jeta],
                    out=conv)
        np.fft.ifft(conv, axis=-1, out=conv)
        kept = conv[:, mx : mx + nx]
        kept *= turn[jeta]
        acc[lo:hi] += kept
    acc[:half] = np.conj(acc[::-1][:half])  # the xi < 0 mirror
    return v1f._cell / _SQRT_2PI * acc.T


def twisted_convolution_defect(
    f: SampledFunction,
    phi1: SampledFunction,
    phi2: SampledFunction,
    phi3: SampledFunction,
    tfgrid: TFGrid,
) -> float:
    """Max-norm relative defect of the twisted-convolution identity

    (phi3, phi1) V_{phi2} f(x, xi)
      = (2*pi)^(-1/2) * iint V_{phi1} f(x-y, xi-eta) V_{phi2} phi3(y, eta)
                             exp(-i (x-y) eta) dy deta,

    with the right side evaluated by a Riemann-sum double convolution on
    tfgrid.  BoundaryMassError unless V_phi1 f and V_phi2 phi3, which the
    double convolution sums over, have decayed below the boundary floor.
    """
    _require_odd_centered(tfgrid.xgrid, "twisted_convolution_defect (x axis)")
    _require_odd_centered(tfgrid.xigrid, "twisted_convolution_defect (xi axis)")

    v1f = stft(f, phi1, tfgrid)  # first: f may already keep it (Moyal's V)
    v2f = stft(f, phi2, tfgrid)
    v23 = stft(phi3, phi2, tfgrid)
    _require_decayed(v1f, "V_phi1 f")
    _require_decayed(v23, "V_phi2 phi3")

    inner = phi1.grid.step * np.sum(phi3.values * np.conj(phi1.values))
    lhs = inner * v2f.values

    return _rel_defect(_twisted_sum(v1f, v23), lhs)
