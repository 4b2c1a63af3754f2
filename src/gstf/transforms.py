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

from functools import lru_cache

import numpy as np

from .errors import BoundaryMassError, GridError
from .grids import Grid1D, SampledFunction, TFGrid, TFR

__all__ = [
    "dft", "idft", "dft2", "stft", "adjoint_stft",
    "twisted_convolution_defect", "BOUNDARY_FLOOR",
]

# Relative boundary-mass threshold gating the defect operations.
BOUNDARY_FLOOR = 1e-10

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# Largest work buffer of one row block in stft and adjoint_stft.  With it,
# the engine's memory is bounded at any grid size.
_BLOCK_BYTES = 8 << 20

# 2*pi to long-double precision, for reducing the chirp phases
_TWO_PI = 8 * np.arctan(np.longdouble(1))

# Overflow gives non-finite results, which SampledFunction and TFR reject.
_QUIET = np.errstate(over="ignore", invalid="ignore")


@_QUIET
def _phase_fft(vals: np.ndarray, grid: Grid1D, sign: int, axis: int,
               what: str) -> np.ndarray:
    """Unitary-continuum transform along ``axis`` of ``vals`` sampled on
    the symmetric power-of-two ``grid``: sign -1 is the forward transform
    (FFT), +1 the inverse (IFFT).  The pre/post phases move the FFT's
    index origin to the grid centre on both sides."""
    n = grid.count
    if n & (n - 1):
        raise GridError(f"{what}: count {n} is not a power of two")
    if grid.center != 0.0:
        raise GridError(f"{what}: grid must be centered at 0")
    pre, factor = _fft_phases(n)
    if sign > 0:
        pre, factor = pre.conj(), factor.conjugate()
    shape = [1] * vals.ndim
    shape[axis] = n
    pre = pre.reshape(shape)
    post = pre * factor
    if sign < 0:
        return grid.step / _SQRT_2PI * post * np.fft.fft(vals * pre, axis=axis)
    return n * grid.step / _SQRT_2PI * post * np.fft.ifft(vals * pre, axis=axis)


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
    """Smallest 2^a * 3^b >= n."""
    best, p3 = 1 << (n - 1).bit_length(), 3
    while p3 < best:
        best = min(best, p3 << ((n - 1) // p3).bit_length())
        p3 *= 3
    return best


def _unit(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) for long-double phases, reduced mod 2*pi before the
    float64 exp so that phases of thousands of radians keep their digits."""
    return np.exp(1j * np.mod(phase, _TWO_PI).astype(float))


@lru_cache(maxsize=8)
def _fft_phases(n: int) -> tuple:
    """The forward transform's pre-phases exp(i*pi*(n-1)*j/n), j < n, and
    its post-phase factor exp(-i*pi*(n-1)^2/(2n)); the post-phases are
    the pre-phases times that factor, and the inverse uses conjugates.
    The multiples of pi are reduced exactly in integers, so the phases
    keep full precision at every n."""
    j = np.arange(n, dtype=np.int64)
    pre = _unit(_TWO_PI * ((n - 1) * j % (2 * n)) / (2 * n))
    pre.flags.writeable = False
    return pre, complex(_unit(-_TWO_PI * ((n - 1) ** 2 % (4 * n)) / (4 * n)))


@lru_cache(maxsize=8)
def _stft_plan(grid: Grid1D, tfgrid: TFGrid) -> tuple:
    """Bluestein (chirp-z) factors of the STFT kernel on a grid pair, and
    the window shifts of its x positions.

    With t_j = t0 + j*h and xi_k = xi0 + k*d,
    exp(-i t_j xi_k) = a_k * b_j * c(k - j) with c(m) = exp(i h d m^2 / 2),
    so a row sum over j is a linear convolution with the chirp c.  Returns
    (a, b, fwd, adj, starts): fwd is the FFT of c laid out for lags k - j
    (stft), adj that of conj(c) for lags j - k (adjoint_stft), both of the
    length L = 2^a 3^b >= N + M - 1 that keeps the circular convolution
    linear; starts[c] is the row of _window_rows that holds the window
    shifted to x_c.  The arrays are O(N + M) and read-only.
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

    def spectrum(chirp, ahead, behind):
        # lags 0..ahead-1 at the front, -1..-(behind-1) wrapped to the back
        z = np.zeros(size, dtype=complex)
        z[:ahead] = chirp[:ahead]
        z[size - behind + 1:] = chirp[behind - 1:0:-1]
        return np.fft.fft(z)

    starts = n - np.clip(shift, -n, n)
    plan = (a, b, spectrum(c, m, n), spectrum(np.conj(c), n, m), starts)
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


def _chirp_rows(count: int, width: int, spectrum: np.ndarray, fill):
    """``count`` rows of length ``width``, zero-padded and convolved with
    the chirp whose FFT is ``spectrum``, in blocks of at most _BLOCK_BYTES.
    fill(sl, blk) writes the rows sl into the (rows, width) view ``blk``.
    Yields (sl, conv) for the rows sl; every block reuses one buffer, so
    use ``conv`` before taking the next."""
    size = spectrum.size
    rows = max(1, _BLOCK_BYTES // (16 * size))
    buf = np.empty((min(rows, count), size), dtype=complex)
    for lo in range(0, count, rows):
        sl = slice(lo, min(count, lo + rows))
        blk = buf[:sl.stop - lo]
        fill(sl, blk[:, :width])
        blk[:, width:] = 0.0
        np.fft.fft(blk, axis=-1, out=blk)
        blk *= spectrum
        np.fft.ifft(blk, axis=-1, out=blk)
        yield sl, blk


@_QUIET
def stft(f: SampledFunction, window: SampledFunction, tfgrid: TFGrid) -> TFR:
    """Short-time Fourier transform V(x, xi) = F[f * conj(w(. - x))](xi).

    Every x in tfgrid.xgrid must be an integer multiple of the sample step
    so the window translate is exact by index shifting; xi is free (the
    windowed Riemann sum is evaluated at each xi by a chirp-z transform).
    For real f and window on a xi grid centred at 0 the output is exactly
    Hermitian in xi, V(x, -xi) = conj V(x, xi).
    """
    if f.grid != window.grid:
        raise GridError("stft: f and window must share a grid")
    a, b, fwd, _, starts = _stft_plan(f.grid, tfgrid)
    count, n = starts.size, b.size
    a = a * (f.grid.step / _SQRT_2PI)
    vals = np.empty((count, a.size), dtype=complex)
    if (tfgrid.xigrid.center != 0.0 or f.values.imag.any()
            or window.values.imag.any()):
        rows, fb = _window_rows(np.conj(window.values)), f.values * b

        def fill(sl, blk):
            for r, c in enumerate(range(sl.start, sl.stop)):
                np.multiply(rows[starts[c]], fb, out=blk[r])

        for sl, conv in _chirp_rows(count, n, fwd, fill):
            np.multiply(conv[:, :a.size], a, out=vals[sl])
        return TFR(tfgrid, vals)

    # Real rows: one chirp row carries the shifts c = 2p and c' = 2p + 1 as
    # (w_c + i w_c') f b.  Its output Z = V_c + i V_c' unpacks by
    # V(x, -xi) = conj V(x, xi) into V_c = (Z + conj Z[::-1]) / 2 and
    # V_c' = (Z - conj Z[::-1]) / 2i; f is halved here, so the unpacking
    # only adds.  An odd last row goes in alone.
    rows, half_f = _window_rows(window.values.real), f.values.real / 2

    def fill_pairs(sl, blk):
        for r, c in enumerate(range(2 * sl.start, 2 * sl.stop, 2)):
            np.multiply(rows[starts[c]], half_f, out=blk.real[r])
            np.multiply(rows[starts[c + 1]] if c + 1 < count else 0.0,
                        half_f, out=blk.imag[r])
        blk *= b

    for sl, conv in _chirp_rows((count + 1) // 2, n, fwd, fill_pairs):
        z = conv[:, :a.size]
        z *= a
        even = vals[2 * sl.start:2 * sl.stop:2]
        odd = vals[2 * sl.start + 1:2 * sl.stop:2]
        p, q, k = z.real, z.imag, len(odd)
        np.add(p, p[:, ::-1], out=even.real)
        np.subtract(q, q[:, ::-1], out=even.imag)
        np.add(q[:k], q[:k, ::-1], out=odd.real)
        np.subtract(p[:k, ::-1], p[:k], out=odd.imag)
    return TFR(tfgrid, vals)


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
    a, b, _, adj, starts = _stft_plan(window.grid, F.tfgrid)
    count, n, ca = starts.size, b.size, np.conj(a)
    w = F.tfgrid.xgrid.step * F.tfgrid.xigrid.step / _SQRT_2PI
    if window.values.imag.any() or not _hermitian(F.values, F.tfgrid.xigrid):
        rows, out = _window_rows(window.values), np.zeros(n, dtype=complex)
        for sl, conv in _chirp_rows(
                count, a.size, adj,
                lambda sl, blk: np.multiply(F.values[sl], ca, out=blk)):
            terms = conv[:, :n]
            for r, c in enumerate(range(sl.start, sl.stop)):
                terms[r] *= rows[starts[c]]
            # carry the running sum in the first row, so that the rows add
            # up in one order whatever the block size
            terms[0] += out
            np.sum(terms, axis=0, out=out)
        return SampledFunction(window.grid, np.conj(b) * w * out)

    # Hermitian F: each row's xi sum G_c is real, so one chirp row carries
    # (F_c + i F_c+1) conj(a) and, times conj(b), gives G_c + i G_c+1; even
    # and odd rows add up each in row order.  An odd last row goes in alone.
    rows, out = _window_rows(window.values.real), np.zeros(2 * n)

    def fill_pairs(sl, blk):
        pair = F.values[2 * sl.start:2 * sl.stop]
        blk[:] = pair[::2]
        blk.real[:len(pair) // 2] -= pair[1::2].imag
        blk.imag[:len(pair) // 2] += pair[1::2].real
        blk *= ca

    for sl, conv in _chirp_rows((count + 1) // 2, a.size, adj, fill_pairs):
        z = conv[:, :n]
        terms = np.multiply(z, np.conj(b), out=z).view(float)  # re, im, ...
        for r, c in enumerate(range(2 * sl.start, 2 * sl.stop, 2)):
            terms[r, ::2] *= rows[starts[c]]
            terms[r, 1::2] *= rows[starts[c + 1]] if c + 1 < count else 0.0
        terms[0] += out
        np.sum(terms, axis=0, out=out)
    return SampledFunction(window.grid, w * (out[0::2] + out[1::2]))


def edge_mass(values: np.ndarray) -> float:
    """Largest magnitude on the edges of a 1-D or 2-D array relative to
    its peak (0 for an all-zero array)."""
    a = np.abs(values)
    peak = a.max()
    if peak == 0.0:
        return 0.0
    edge = max(np.take(a, (0, -1), axis=k).max() for k in range(a.ndim))
    return float(edge / peak)


def _require_odd_centered(grid: Grid1D, what: str):
    if grid.center != 0.0 or grid.count % 2 == 0:
        raise GridError(f"{what}: needs an odd-count grid centered at 0 "
                        "so coordinate differences stay on the grid")


def _twisted_sum(v1f: np.ndarray, v23: np.ndarray,
                 tfgrid: TFGrid) -> np.ndarray:
    """(2*pi)^(-1/2) * iint v1f(x-y, xi-eta) v23(y, eta) exp(-i (x-y) eta)
    dy deta as a Riemann sum on the odd, centred tfgrid."""
    nx, nxi = tfgrid.xgrid.count, tfgrid.xigrid.count
    mx, mxi = (nx - 1) // 2, (nxi - 1) // 2
    u, eta = tfgrid.xgrid.coords, tfgrid.xigrid.coords
    # Linear convolution over x as a circular one of length L: the kept
    # outputs mx .. mx+nx-1 stay clear of the wrapped tail when L >= nx+mx.
    # With exp(-i (x-y) eta) = exp(-i x eta) exp(i y eta), both operands
    # are transformed once and each eta takes one product and one IFFT,
    # in one work buffer, summed in (xi, x) rows.
    L = 1 << (nx + mx - 1).bit_length()
    turn = np.exp(1j * np.outer(eta, u))  # exp(i y eta), one row per eta
    a_hat = np.fft.fft(v1f.T, L, axis=-1)  # (xi, x) rows
    b_hat = np.fft.fft(v23.T * turn, L, axis=-1)
    np.conj(turn, out=turn)  # now exp(-i x eta), the post-modulation
    acc = np.zeros((nxi, nx), dtype=complex)
    work = np.empty((nxi, L), dtype=complex)
    # Hermitian operands give a Hermitian sum (eta -> -eta): fill xi >= 0.
    half = mxi if (_hermitian(v1f, tfgrid.xigrid)
                   and _hermitian(v23, tfgrid.xigrid)) else 0
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
    weight = tfgrid.xgrid.step * tfgrid.xigrid.step / _SQRT_2PI
    return weight * acc.T


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
    tfgrid.  The grid must be large enough that all three STFTs have
    decayed below the boundary floor.
    """
    _require_odd_centered(tfgrid.xgrid, "twisted_convolution_defect (x axis)")
    _require_odd_centered(tfgrid.xigrid, "twisted_convolution_defect (xi axis)")

    v2f = stft(f, phi2, tfgrid)
    v1f = stft(f, phi1, tfgrid)
    v23 = stft(phi3, phi2, tfgrid)
    for tfr, name in ((v1f, "V_phi1 f"), (v23, "V_phi2 phi3")):
        mass = edge_mass(tfr.values)
        if mass > BOUNDARY_FLOOR:
            raise BoundaryMassError(
                f"{name} has relative boundary mass {mass:.2e}")

    inner = phi1.grid.step * np.sum(phi3.values * np.conj(phi1.values))
    lhs = inner * v2f.values

    rhs = _twisted_sum(v1f.values, v23.values, tfgrid)
    scale = np.max(np.abs(lhs))
    if scale == 0.0:
        return float(np.max(np.abs(rhs)))
    return float(np.max(np.abs(lhs - rhs)) / scale)
