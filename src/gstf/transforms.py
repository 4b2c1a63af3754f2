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

# Largest STFT kernel kept between calls.  It covers every grid pair of the
# verify suites and the CLI defaults (2048 x 1001 complex is 32 MB); larger
# kernels are rebuilt on each call.  With at most _KERNEL_CACHE_SIZE kernels
# kept, the cache never holds more than 256 MiB.
_KERNEL_CACHE_BYTES = 64 << 20
_KERNEL_CACHE_SIZE = 4


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


def _shifted_window(window: np.ndarray, k: int) -> np.ndarray:
    """window values index-shifted by k samples (w(t - k*step)), zero fill."""
    out = np.zeros_like(window)
    n = window.shape[0]
    if k >= n or k <= -n:
        return out
    if k >= 0:
        out[k:] = window[: n - k]
    else:
        out[: n + k] = window[-k:]
    return out


def _build_kernel(tgrid: Grid1D, xigrid: Grid1D) -> np.ndarray:
    """exp(-i t xi) on the (t, xi) grids, built in place in one complex
    array: the bits equal ``np.exp(-1j * np.outer(t, xi))`` without its
    float and complex temporaries."""
    k = np.empty((tgrid.count, xigrid.count), dtype=complex)
    np.multiply.outer(tgrid.coords, xigrid.coords, out=k.imag)
    np.negative(k.imag, out=k.imag)
    k.real = 0.0
    return np.exp(k, out=k)


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _cached_kernel(tgrid: Grid1D, xigrid: Grid1D) -> np.ndarray:
    k = _build_kernel(tgrid, xigrid)
    k.flags.writeable = False
    return k


def _kernel(tgrid: Grid1D, xigrid: Grid1D) -> np.ndarray:
    """The STFT kernel exp(-i t xi) shared by stft and adjoint_stft,
    cached per grid pair up to _KERNEL_CACHE_BYTES (read-only when
    cached)."""
    if 16 * tgrid.count * xigrid.count > _KERNEL_CACHE_BYTES:
        return _build_kernel(tgrid, xigrid)
    return _cached_kernel(tgrid, xigrid)


def stft(f: SampledFunction, window: SampledFunction, tfgrid: TFGrid) -> TFR:
    """Short-time Fourier transform V(x, xi) = F[f * conj(w(. - x))](xi).

    Every x in tfgrid.xgrid must be an integer multiple of the sample step
    so the window translate is exact by index shifting; xi is free (the
    windowed Riemann sum is evaluated directly at each xi).
    """
    if f.grid != window.grid:
        raise GridError("stft: f and window must share a grid")
    shifts = [f.grid.shift_index(x) for x in tfgrid.xgrid.coords]
    # columns of G are the windowed slices f(t) conj(w(t - x))
    g = np.empty((f.grid.count, len(shifts)), dtype=complex)
    wconj = np.conj(window.values)
    for c, k in enumerate(shifts):
        g[:, c] = f.values * _shifted_window(wconj, k)
    vals = g.T @ _kernel(f.grid, tfgrid.xigrid)
    vals *= f.grid.step / _SQRT_2PI
    return TFR(tfgrid, vals)


def adjoint_stft(F: TFR, window: SampledFunction) -> SampledFunction:
    """Adjoint of the STFT against the 2-D Riemann inner product:

    g(t) = (2*pi)^(-1/2) * iint F(x, xi) w(t - x) exp(i t xi) dxi dx.

    Satisfies adjoint_stft(stft(f, w), w) ~ ||w||^2 f on well-covered grids.
    """
    shifts = [window.grid.shift_index(x) for x in F.tfgrid.xgrid.coords]
    # F @ conj(kernel).T, with the conjugations moved onto the small factors
    phases = np.conj(F.values) @ _kernel(window.grid, F.tfgrid.xigrid).T
    np.conj(phases, out=phases)  # (Nx, Nt)
    out = np.zeros(window.grid.count, dtype=complex)
    for c, k in enumerate(shifts):
        out += phases[c] * _shifted_window(window.values, k)
    w = F.tfgrid.xgrid.step * F.tfgrid.xigrid.step / _SQRT_2PI
    return SampledFunction(window.grid, w * out)


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
    L = 1 << (nx + mx - 1).bit_length()
    v1t = v1f.values.T  # (xi, x): one convolution over x per xi row
    b_hat = np.fft.fft(v23.values.T, L, axis=-1)
    acc = np.zeros_like(lhs)
    for jeta in range(nxi):
        # xi - eta maps xi index jxi to v1f column jxi - jeta + mxi
        lo = max(0, jeta - mxi)
        hi = min(nxi, nxi + jeta - mxi)
        w = v1t[lo - jeta + mxi : hi - jeta + mxi]
        w = w * np.exp(-1j * u * eta[jeta])
        conv = np.fft.ifft(np.fft.fft(w, L, axis=-1) * b_hat[jeta], axis=-1)
        acc[:, lo:hi] += conv[:, mx : mx + nx].T
    weight = tfgrid.xgrid.step * tfgrid.xigrid.step / _SQRT_2PI
    rhs = weight * acc

    scale = np.max(np.abs(lhs))
    if scale == 0.0:
        return float(np.max(np.abs(rhs)))
    return float(np.max(np.abs(lhs - rhs)) / scale)
