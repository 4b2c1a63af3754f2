"""Discrete approximations of the continuum Fourier transform, STFT and
adjoint STFT, plus defect meters for the exact identities they satisfy.

Conventions (frozen):

* forward sign -1, unitary continuum normalization: the forward transform
  approximates (2*pi)^(-1/2) * integral f(x) exp(-i x xi) dx by a Riemann
  sum with the grid step folded in, so outputs approximate continuum
  integrals rather than bare DFT values;
* D means -i * d/dx, so D^k f = (-i)^k f^(k);
* window shifts are realized by integer index shifts with zero fill, never
  periodic wrap-around.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BoundaryMassError, GridError
from .grids import Grid1D, SampledFunction, TFGrid, TFR

__all__ = [
    "dft", "idft", "dft2", "stft", "adjoint_stft", "spectral_derivative",
    "twisted_convolution_defect", "BOUNDARY_FLOOR",
]

# Relative boundary-mass threshold gating derivative and defect operations.
BOUNDARY_FLOOR = 1e-10

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# Largest work buffer of one row block in stft and adjoint_stft.  With it,
# the engine's memory is bounded at any grid size.
_BLOCK_BYTES = 8 << 20

# 2*pi to long-double precision, for reducing the chirp phases
_TWO_PI = 8 * np.arctan(np.longdouble(1))


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
    m = (n - 1) / 2.0
    alpha = 2.0 * np.pi * m / n
    shape = [1] * vals.ndim
    shape[axis] = n
    pre = np.exp(-sign * 1j * alpha * np.arange(n)).reshape(shape)
    post = pre * np.exp(sign * 2j * np.pi * m * m / n)
    if sign < 0:
        return grid.step / _SQRT_2PI * post * np.fft.fft(vals * pre, axis=axis)
    return n * grid.step / _SQRT_2PI * post * np.fft.ifft(vals * pre, axis=axis)


def dft(f: SampledFunction) -> SampledFunction:
    """Forward transform onto the dual grid (same count, step 2*pi/(count*step))."""
    vals = _phase_fft(f.values, f.grid, -1, 0, "dft")
    return SampledFunction(f.grid.dual(), vals)


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


@lru_cache(maxsize=4)
def _chirp_plan(tgrid: Grid1D, xigrid: Grid1D) -> tuple:
    """Bluestein (chirp-z) factors of the STFT kernel on a grid pair.

    With t_j = t0 + j*h and xi_k = xi0 + k*d,
    exp(-i t_j xi_k) = a_k * b_j * c(k - j) with c(m) = exp(i h d m^2 / 2),
    so a row sum over j is a linear convolution with the chirp c.  Returns
    (a, b, fwd, adj): fwd is the FFT of c laid out for lags k - j (stft),
    adj that of conj(c) for lags j - k (adjoint_stft), both of the length
    L = 2^a 3^b >= N + M - 1 that keeps the circular convolution linear.
    The arrays are O(N + M) and read-only.
    """
    n, m = tgrid.count, xigrid.count
    size = _fft_length(n + m - 1)
    ld = np.longdouble
    h, d = ld(tgrid.step), ld(xigrid.step)
    t0 = ld(tgrid.center) - ld((n - 1) / 2) * h
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

    plan = (a, b, spectrum(c, m, n), spectrum(np.conj(c), n, m))
    for arr in plan:
        arr.flags.writeable = False
    return plan


def _window_rows(grid: Grid1D, xgrid: Grid1D, window: np.ndarray):
    """(rows, starts): row s of ``rows`` is a length-N view of a 3N
    zero-padded copy of ``window``, so that rows[starts[c]] is
    window(t - x_c) by index shift with zero fill."""
    n = grid.count
    shifts = np.array([grid.shift_index(x) for x in xgrid.coords])
    padded = np.zeros(3 * n, dtype=complex)
    padded[n:2 * n] = window
    starts = n - np.clip(shifts, -n, n)
    return np.lib.stride_tricks.sliding_window_view(padded, n), starts


def _chirp_rows(src: np.ndarray, index: np.ndarray, scale: np.ndarray,
                spectrum: np.ndarray):
    """The rows src[index[c]] * scale, zero-padded and convolved with the
    chirp whose FFT is ``spectrum``, in blocks of at most _BLOCK_BYTES.
    Yields (sl, conv) for the rows sl; every block reuses one buffer, so
    use ``conv`` before taking the next."""
    count, width, size = index.size, scale.size, spectrum.size
    rows = max(1, _BLOCK_BYTES // (16 * size))
    buf = np.empty((min(rows, count), size), dtype=complex)
    for lo in range(0, count, rows):
        sl = slice(lo, min(count, lo + rows))
        blk = buf[:sl.stop - lo]
        np.multiply(src[index[sl]], scale, out=blk[:, :width])
        blk[:, width:] = 0.0
        np.fft.fft(blk, axis=-1, out=blk)
        blk *= spectrum
        np.fft.ifft(blk, axis=-1, out=blk)
        yield sl, blk


def stft(f: SampledFunction, window: SampledFunction, tfgrid: TFGrid) -> TFR:
    """Short-time Fourier transform V(x, xi) = F[f * conj(w(. - x))](xi).

    Every x in tfgrid.xgrid must be an integer multiple of the sample step
    so the window translate is exact by index shifting; xi is free (the
    windowed Riemann sum is evaluated at each xi by a chirp-z transform).
    """
    if f.grid != window.grid:
        raise GridError("stft: f and window must share a grid")
    a, b, fwd, _ = _chirp_plan(f.grid, tfgrid.xigrid)
    rows, starts = _window_rows(f.grid, tfgrid.xgrid, np.conj(window.values))
    a = a * (f.grid.step / _SQRT_2PI)
    vals = np.empty((starts.size, a.size), dtype=complex)
    for sl, conv in _chirp_rows(rows, starts, f.values * b, fwd):
        np.multiply(conv[:, :a.size], a, out=vals[sl])
    return TFR(tfgrid, vals)


def adjoint_stft(F: TFR, window: SampledFunction) -> SampledFunction:
    """Adjoint of the STFT against the 2-D Riemann inner product:

    g(t) = (2*pi)^(-1/2) * iint F(x, xi) w(t - x) exp(i t xi) dxi dx.

    Satisfies adjoint_stft(stft(f, w), w) ~ ||w||^2 f on well-covered grids.
    """
    a, b, _, adj = _chirp_plan(window.grid, F.tfgrid.xigrid)
    rows, starts = _window_rows(window.grid, F.tfgrid.xgrid, window.values)
    out = np.zeros(b.size, dtype=complex)
    for sl, conv in _chirp_rows(F.values, np.arange(starts.size), np.conj(a),
                                adj):
        terms = conv[:, :b.size]
        terms *= rows[starts[sl]]
        # carry the running sum in the first row, so that the rows add up
        # in one order whatever the block size
        terms[0] += out
        np.sum(terms, axis=0, out=out)
    w = F.tfgrid.xgrid.step * F.tfgrid.xigrid.step / _SQRT_2PI
    return SampledFunction(window.grid, np.conj(b) * w * out)


def edge_mass(values: np.ndarray) -> float:
    """Largest magnitude on the edges of a 1-D or 2-D array relative to
    its peak (0 for an all-zero array)."""
    a = np.abs(values)
    peak = a.max()
    if peak == 0.0:
        return 0.0
    edge = max(np.take(a, (0, -1), axis=k).max() for k in range(a.ndim))
    return float(edge / peak)


def spectral_derivative(f: SampledFunction, order: int) -> SampledFunction:
    """D^order f with D = -i d/dx, computed in the Fourier domain as
    idft(xi^order * dft(f))."""
    if not (0 <= order <= 8):
        raise GridError("order must be between 0 and 8")
    if order == 0:
        return f
    mass = edge_mass(f.values)
    if mass > BOUNDARY_FLOOR:
        raise BoundaryMassError(
            "spectral_derivative: boundary samples carry relative mass "
            f"{mass:.2e} (threshold {BOUNDARY_FLOOR:.0e})")
    F = dft(f)
    xi = F.grid.coords
    return idft(SampledFunction(F.grid, xi**order * F.values))


def _require_odd_centered(grid: Grid1D, what: str):
    if grid.center != 0.0 or grid.count % 2 == 0:
        raise GridError(f"{what}: needs an odd-count grid centered at 0 "
                        "so coordinate differences stay on the grid")


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

    nx = tfgrid.xgrid.count
    nxi = tfgrid.xigrid.count
    mx = (nx - 1) // 2
    mxi = (nxi - 1) // 2
    u = tfgrid.xgrid.coords
    eta = tfgrid.xigrid.coords
    # Linear convolution over x as a circular one of length L: the kept
    # outputs mx .. mx+nx-1 stay clear of the wrapped tail when L >= nx+mx.
    # With exp(-i (x-y) eta) = exp(-i x eta) exp(i y eta), both operands
    # are transformed once and each eta takes one product and one IFFT.
    L = 1 << (nx + mx - 1).bit_length()
    turn = np.exp(1j * np.outer(eta, u))  # exp(i y eta), one row per eta
    a_hat = np.fft.fft(v1f.values.T, L, axis=-1)  # (xi, x) rows
    b_hat = np.fft.fft(v23.values.T * turn, L, axis=-1)
    acc = np.zeros_like(lhs)
    for jeta in range(nxi):
        # xi - eta maps xi index jxi to v1f column jxi - jeta + mxi
        lo = max(0, jeta - mxi)
        hi = min(nxi, nxi + jeta - mxi)
        conv = np.fft.ifft(a_hat[lo - jeta + mxi : hi - jeta + mxi]
                           * b_hat[jeta], axis=-1)
        acc[:, lo:hi] += (conv[:, mx : mx + nx] * np.conj(turn[jeta])).T
    weight = tfgrid.xgrid.step * tfgrid.xigrid.step / _SQRT_2PI
    rhs = weight * acc

    scale = np.max(np.abs(lhs))
    if scale == 0.0:
        return float(np.max(np.abs(rhs)))
    return float(np.max(np.abs(lhs - rhs)) / scale)
