import gc
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from gstf import checks, grids, toeplitz, transforms
from gstf import (BoundaryMassError, Gaussian, Grid1D, GridError, Hermite,
                  Modulate, SampledFunction, TFGrid, Translate, adjoint_stft,
                  apply_toeplitz, build_grid, catalog_eval, classify_stft,
                  dft, dft2, idft, stft, stft_product_transform_defect,
                  twisted_convolution_defect)
from gstf.grids import TFR, gaussian_symbol, phase_space_grid

from conftest import rel_max_err, roumieu


class TestDft:
    def test_gaussian_is_fixed_point(self, grid10):
        # exp(-x^2/2) is its own unitary Fourier transform.
        f = catalog_eval(Gaussian(1.0), grid10)
        F = dft(f)
        ref = np.exp(-0.5 * F.x**2)
        assert rel_max_err(F.values, ref) < 1e-13

    @pytest.mark.parametrize("log2n", [10, 11, 13])
    def test_noise_floor_does_not_grow_with_points(self, log2n):
        # the phases are reduced exactly, so the error stays at rounding
        # level at every n, far under the classifier's FLOOR of 1e-13
        F = dft(catalog_eval(Gaussian(1.0), build_grid(12.0, log2n)))
        assert rel_max_err(F.values, np.exp(-0.5 * F.x**2)) < 2e-15

    def test_scaled_gaussian_oracle(self, grid10):
        # F[exp(-a x^2/2)](xi) = a^(-1/2) exp(-xi^2/(2a))
        a = 2.0
        F = dft(catalog_eval(Gaussian(a), grid10))
        ref = a**-0.5 * np.exp(-F.x**2 / (2 * a))
        assert rel_max_err(F.values, ref) < 1e-13

    def test_translation_modulation_exchange(self, grid10):
        # F[f(. - x0)](xi) = exp(-i x0 xi) F[f](xi)
        x0 = 1.5
        F_shifted = dft(catalog_eval(Translate(Gaussian(1.0), x0), grid10))
        F = dft(catalog_eval(Gaussian(1.0), grid10))
        ref = np.exp(-1j * x0 * F.x) * F.values
        assert rel_max_err(F_shifted.values, ref) < 1e-12

    def test_modulation_becomes_translation(self, grid10):
        xi0 = 2.0
        F_mod = dft(catalog_eval(Modulate(Gaussian(1.0), xi0), grid10))
        ref = np.exp(-0.5 * (F_mod.x - xi0) ** 2)
        assert rel_max_err(F_mod.values, ref) < 1e-12

    def test_round_trip(self, grid10):
        f = catalog_eval(Hermite(3), grid10)
        g = idft(dft(f))
        assert rel_max_err(g.values, f.values) < 1e-12
        assert g.grid.step == pytest.approx(grid10.step)

    def test_double_transform_is_reflection(self, grid10):
        # F^2 f(x) = f(-x); on a symmetric grid that is index reversal.
        f = catalog_eval(Translate(Gaussian(1.0), 2.0), grid10)
        ff = dft(dft(f))
        assert rel_max_err(ff.values, f.values[::-1]) < 1e-11

    def test_unitarity(self, grid10):
        f = catalog_eval(Hermite(2), grid10)
        assert dft(f).norm2() == pytest.approx(f.norm2(), rel=1e-12)

    def test_rejects_non_pow2(self):
        g = Grid1D(0.0, 0.1, 100)
        with pytest.raises(GridError):
            dft(SampledFunction(g, np.zeros(100)))

    def test_rejects_off_center(self):
        g = Grid1D(1.0, 0.1, 64)
        with pytest.raises(GridError):
            dft(SampledFunction(g, np.zeros(64)))


class TestStft:
    def test_matches_direct_quadrature(self, grid10, tf_small):
        # Independent oracle: brute-force windowed Riemann sum at a few points.
        f = catalog_eval(Hermite(1), grid10)
        w = catalog_eval(Gaussian(1.0), grid10)
        v = stft(f, w, tf_small)
        t = grid10.coords
        for i in (10, 64, 100):
            for j in (5, 64, 120):
                x = tf_small.xgrid.coords[i]
                xi = tf_small.xigrid.coords[j]
                direct = grid10.step / np.sqrt(2 * np.pi) * np.sum(
                    f.values * np.conj(np.interp(t - x, t, w.values.real))
                    * np.exp(-1j * xi * t))
                assert abs(v.values[i, j] - direct) < 1e-12

    def test_gaussian_pair_closed_form(self, grid10, tf_small):
        f = catalog_eval(Gaussian(1.0), grid10)
        v = stft(f, f, tf_small)
        x = tf_small.xgrid.coords[:, None]
        xi = tf_small.xigrid.coords[None, :]
        ref = 2**-0.5 * np.exp(-(x**2 + xi**2) / 4.0)
        assert np.max(np.abs(np.abs(v.values) - ref)) < 1e-12

    def test_moyal_energy_identity(self, grid10, tf_small):
        f = catalog_eval(Hermite(2), grid10)
        w = catalog_eval(Gaussian(1.0), grid10)
        v = stft(f, w, tf_small)
        assert v.norm2() ** 2 == pytest.approx((f.norm2() * w.norm2()) ** 2,
                                               rel=1e-8)

    def test_inversion(self, grid10, tf_small):
        f = catalog_eval(Hermite(2), grid10)
        w = catalog_eval(Gaussian(1.0), grid10)
        rec = adjoint_stft(stft(f, w, tf_small), w)
        assert rel_max_err(rec.values / w.norm2() ** 2, f.values) < 1e-9

    def test_adjointness_inner_products(self, grid10, tf_small):
        # <stft(f), F>_{2d} = <f, adjoint_stft(F)>_{1d}
        rng = np.random.default_rng(3)
        f = catalog_eval(Hermite(1), grid10)
        w = catalog_eval(Gaussian(1.0), grid10)
        F = TFR(tf_small, rng.standard_normal((129, 129))
                + 1j * rng.standard_normal((129, 129)))
        v = stft(f, w, tf_small)
        lhs = tf_small.xgrid.step * tf_small.xigrid.step * np.sum(
            v.values * np.conj(F.values))
        rhs = grid10.step * np.sum(f.values * np.conj(adjoint_stft(F, w).values))
        scale = v.norm2() * F.norm2()
        assert abs(lhs - rhs) < 1e-12 * scale

    def test_rejects_off_step_x_positions(self, grid10):
        f = catalog_eval(Gaussian(1.0), grid10)
        bad = TFGrid(Grid1D(0.0, 1.0001 * grid10.step, 9), Grid1D(0.0, 1.0, 9))
        # the message names the first off-step x, as shift_index words it
        with pytest.raises(GridError) as want:
            grid10.shift_index(bad.xgrid.coords[0])
        with pytest.raises(GridError) as got:
            stft(f, f, bad)
        assert str(got.value) == str(want.value)

    def test_rejects_mismatched_grids(self, grid10, grid11, tf_small):
        f = catalog_eval(Gaussian(1.0), grid10)
        w = catalog_eval(Gaussian(1.0), grid11)
        with pytest.raises(GridError):
            stft(f, w, tf_small)


def _shifted(v, k):
    """v(t - k*step) with zero fill."""
    out = np.zeros_like(v)
    if k >= 0:
        out[k:] = v[: len(v) - k]
    else:
        out[:k] = v[-k:]
    return out


def _dense_kernel(tgrid, xigrid, sign):
    """exp(sign * i t xi) over two grids.  Each phase t * xi, some 3000 rad
    at 513x1001, is formed from the grid definitions and reduced mod 2*pi
    in long double: float64 coordinates or a float64 exp of the unreduced
    phase would each be off by 1e-13 of the peak."""
    ld = np.longdouble

    def coords(g):
        j = np.arange(g.count, dtype=ld)
        return ld(g.center) + (j - ld((g.count - 1) / 2)) * ld(g.step)

    phase = np.mod(np.outer(coords(tgrid), coords(xigrid)),
                   8 * np.arctan(ld(1)))
    return np.exp(sign * 1j * phase.astype(float))


def _reference_stft(f, w, tf):
    """stft as a product with the dense kernel exp(-i t xi)."""
    shifts = [f.grid.shift_index(x) for x in tf.xgrid.coords]
    g = f.values[:, None] * np.stack(
        [_shifted(np.conj(w.values), k) for k in shifts], axis=1)
    kernel = _dense_kernel(f.grid, tf.xigrid, -1)
    return (f.grid.step / np.sqrt(2 * np.pi)) * (g.T @ kernel)


def _reference_adjoint(F, w):
    """adjoint_stft as a product with the dense kernel exp(+i xi t)."""
    phases = F.values @ _dense_kernel(F.tfgrid.xigrid, w.grid, 1)
    out = np.zeros(w.grid.count, dtype=complex)
    for c, x in enumerate(F.tfgrid.xgrid.coords):
        out += phases[c] * _shifted(w.values, w.grid.shift_index(x))
    step = F.tfgrid.xgrid.step * F.tfgrid.xigrid.step / np.sqrt(2 * np.pi)
    return step * out


def _case_grids(request, name):
    """(grid, TFGrid) of a named STFT test case."""
    grid10, grid11, tf_small, tf_classify = (
        request.getfixturevalue(n)
        for n in ("grid10", "grid11", "tf_small", "tf_classify"))
    h = grid10.step
    return {
        "129x129": (grid10, tf_small),
        # the product-transform grid of the identity suite
        "128x128": (grid10, TFGrid(Grid1D(0.0, 8 * h, 128),
                                   Grid1D(0.0, 2 * np.pi / (1024 * h), 128))),
        "513x1001": (grid11, tf_classify),
        # odd time count, off-centre time and frequency grids
        "odd-t": (Grid1D(0.25, 0.024, 1001),
                  TFGrid(Grid1D(0.0, 3 * 0.024, 77), Grid1D(1.7, 0.31, 150))),
    }[name]


# Block sizes the bit tests sweep: the module constant (None), one chirp-z
# row per block (1), seven rows, so that one-shift blocks end at odd shift
# counts and most cases end on a short block, and the former 8 MiB.
BLOCK_SWEEP = [None, 1, "seven-rows", 8 << 20]


def _set_block_bytes(monkeypatch, block_bytes, grid, tf):
    """Set transforms._BLOCK_BYTES to an entry of BLOCK_SWEEP."""
    if block_bytes == "seven-rows":
        block_bytes = 7 * 16 * transforms._stft_plan(grid, tf)[2].size
    if block_bytes is not None:
        monkeypatch.setattr(transforms, "_BLOCK_BYTES", block_bytes)


def _one_shift_stft(f, w, tf):
    """stft with one window shift per chirp-z row, the rows gathered by
    fancy indexing and the shifts found one x at a time: the engine as it
    ran before real rows were paired."""
    a, b, fwd = transforms._stft_plan(f.grid, tf)[:3]
    n, size = f.grid.count, fwd.size
    shifts = np.array([f.grid.shift_index(x) for x in tf.xgrid.coords])
    padded = np.zeros(3 * n, dtype=complex)
    padded[n:2 * n] = np.conj(w.values)
    rows = np.lib.stride_tricks.sliding_window_view(padded, n)
    starts = n - np.clip(shifts, -n, n)
    a = a * (f.grid.step / np.sqrt(2 * np.pi))
    step = max(1, transforms._BLOCK_BYTES // (16 * size))
    vals = np.empty((starts.size, a.size), dtype=complex)
    for lo in range(0, starts.size, step):
        sl = slice(lo, min(starts.size, lo + step))
        blk = np.zeros((sl.stop - lo, size), dtype=complex)
        blk[:, :n] = rows[starts[sl]] * (f.values * b)
        np.fft.fft(blk, axis=-1, out=blk)
        blk *= fwd
        np.fft.ifft(blk, axis=-1, out=blk)
        vals[sl] = blk[:, :a.size] * a
    return vals


class TestStftChirpZ:
    """stft and adjoint_stft run as a Bluestein chirp-z transform; they
    stay within 1e-14 of the peak of the dense-kernel references."""

    @pytest.fixture(params=["129x129", "128x128", "513x1001", "odd-t"])
    def case(self, request):
        grid, tf = _case_grids(request, request.param)
        return (catalog_eval(Hermite(2), grid),
                catalog_eval(Gaussian(1.0), grid), tf)

    def test_matches_dense_reference(self, case):
        f, w, tf = case
        v = stft(f, w, tf)
        ref = _reference_stft(f, w, tf)
        assert np.max(np.abs(v.values - ref)) <= 1e-14 * np.max(np.abs(ref))
        ref = _reference_adjoint(v, w)
        assert (np.max(np.abs(adjoint_stft(v, w).values - ref))
                <= 1e-14 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("name", ["129x129", "513x1001"])
    def test_full_band_random_input_matches_dense_reference(self, request,
                                                            name):
        # Random samples fill the whole band, so the largest phases t * xi
        # carry full weight: the real and the complex stft, and the
        # one-row adjoint (TestAdjointPacked holds the packed one).
        grid, tf = _case_grids(request, name)
        w = catalog_eval(Gaussian(2.0), grid)
        rng = np.random.default_rng(17)
        z = rng.standard_normal((2, grid.count))
        for f in (z[0], z[0] + 1j * z[1]):
            f = SampledFunction(grid, f)
            ref = _reference_stft(f, w, tf)
            assert (np.max(np.abs(stft(f, w, tf).values - ref))
                    <= 1e-14 * np.max(np.abs(ref)))
        shape = (tf.xgrid.count, tf.xigrid.count)
        F = TFR(tf, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        ref = _reference_adjoint(F, w)
        assert (np.max(np.abs(adjoint_stft(F, w).values - ref))
                <= 1e-14 * np.max(np.abs(ref)))

    def test_block_size_does_not_change_bits(self, case, monkeypatch):
        f, w, tf = case
        passes = _count_passes(monkeypatch)
        v = stft(f, w, tf)
        g = adjoint_stft(v, w)
        for block_bytes in BLOCK_SWEEP[1:]:
            with monkeypatch.context() as m:
                _set_block_bytes(m, block_bytes, f.grid, tf)
                fresh = SampledFunction(f.grid, f.values)  # an empty memo
                assert np.array_equal(stft(fresh, w, tf).values, v.values)
                assert np.array_equal(adjoint_stft(v, w).values, g.values)
        assert len(passes) == len(BLOCK_SWEEP)  # each stft ran the engine

    @pytest.mark.parametrize("name", ["129x129", "128x128", "513x1001",
                                      "odd-t"])
    def test_adjoint_spectrum_is_the_conjugate(self, request, name):
        # adjoint_stft convolves with conj(c) laid out for lags j - k: the
        # forward layout reversed and conjugated, so its FFT is the
        # conjugate of the plan's one spectrum
        grid, tf = _case_grids(request, name)
        a, b, spectrum, _ = transforms._stft_plan(grid, tf)
        n, m, size = b.size, a.size, spectrum.size
        ld = np.longdouble
        lag = np.arange(max(n, m), dtype=ld)
        c = transforms._unit(ld(grid.step) * ld(tf.xigrid.step) / 2
                             * lag * lag)
        z = np.zeros(size, dtype=complex)
        z[:n] = np.conj(c[:n])  # lags 0 .. n-1
        z[size - m + 1:] = np.conj(c[m - 1:0:-1])  # lags -1 .. -(m-1)
        adj = np.fft.fft(z)
        assert (np.max(np.abs(spectrum.conj() - adj))
                <= 1e-15 * np.max(np.abs(adj)))

    def test_cached_plan_is_read_only(self, case):
        f, w, tf = case
        stft(f, w, tf)
        for arr in transforms._stft_plan(f.grid, tf):
            assert not arr.flags.writeable

    def test_memory_bounded_at_large_points(self):
        # A dense kernel on this grid pair would take 1.05 GB.
        grid = build_grid(12.0, 16)
        tf = TFGrid(Grid1D(0.0, 4096 * grid.step, 9), Grid1D(0.0, 0.5, 1001))
        f = catalog_eval(Hermite(2), grid)
        w = catalog_eval(Gaussian(1.0), grid)
        tracemalloc.start()
        try:
            adjoint_stft(stft(f, w, tf), w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


class TestStftRealPath:
    """Real f and window on a xi grid centred at 0 run two window shifts
    per chirp-z row; every other input keeps one shift per row."""

    @pytest.mark.parametrize("name", ["129x129", "128x128", "513x1001"])
    def test_exactly_hermitian_and_matches_dense_reference(self, request,
                                                           name):
        # 129 and 513 shifts are odd counts: the last row goes in alone.
        # An odd, off-centre f: V has no symmetry in x to hide a swapped pair.
        grid, tf = _case_grids(request, name)
        f = catalog_eval(Translate(Hermite(1), 1.5), grid)
        w = catalog_eval(Gaussian(2.0), grid)
        v = stft(f, w, tf).values
        ref = _reference_stft(f, w, tf)
        assert np.max(np.abs(v - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(v[:, ::-1], v.conj())

    @pytest.mark.parametrize("f_spec, w_spec, name", [
        (Modulate(Gaussian(1.0), 1.0), Gaussian(1.0), "129x129"),
        (Hermite(2), Modulate(Gaussian(1.0), 2.0), "513x1001"),
        (Hermite(2), Gaussian(1.0), "odd-t"),
        (Modulate(Hermite(1), 0.5), Gaussian(2.0), "128x128"),
    ])
    @pytest.mark.parametrize("block_bytes", BLOCK_SWEEP)
    def test_other_inputs_keep_their_bits(self, request, monkeypatch, f_spec,
                                          w_spec, name, block_bytes):
        grid, tf = _case_grids(request, name)
        _set_block_bytes(monkeypatch, block_bytes, grid, tf)
        f, w = catalog_eval(f_spec, grid), catalog_eval(w_spec, grid)
        assert np.array_equal(stft(f, w, tf).values, _one_shift_stft(f, w, tf))


def _one_row_adjoint(F, w):
    """adjoint_stft with one x row per chirp-z row: the engine as it ran
    before Hermitian rows were paired."""
    a, b, spectrum, starts = transforms._stft_plan(w.grid, F.tfgrid)
    adj = spectrum.conj()
    n, size = b.size, adj.size
    padded = np.zeros(3 * n, dtype=complex)
    padded[n:2 * n] = w.values
    rows = np.lib.stride_tricks.sliding_window_view(padded, n)
    ca = np.conj(a)
    step = max(1, transforms._BLOCK_BYTES // (16 * size))
    out = np.zeros(n, dtype=complex)
    for lo in range(0, starts.size, step):
        sl = slice(lo, min(starts.size, lo + step))
        blk = np.zeros((sl.stop - lo, size), dtype=complex)
        np.multiply(F.values[sl], ca, out=blk[:, :a.size])
        np.fft.fft(blk, axis=-1, out=blk)
        blk *= adj
        np.fft.ifft(blk, axis=-1, out=blk)
        terms = blk[:, :n]
        for r, c in enumerate(range(sl.start, sl.stop)):
            terms[r] *= rows[starts[c]]
        terms[0] += out
        np.sum(terms, axis=0, out=out)
    weight = F.tfgrid.xgrid.step * F.tfgrid.xigrid.step / np.sqrt(2 * np.pi)
    return np.conj(b) * weight * out


class TestAdjointPacked:
    """An exactly Hermitian F (in xi, on a xi grid centred at 0) with a
    real window runs two x rows per chirp-z row; every other input keeps
    one row per chirp-z row and its bits."""

    @pytest.mark.parametrize("source", ["stft", "random"])
    @pytest.mark.parametrize("name", ["129x129", "128x128", "513x1001"])
    def test_hermitian_input_matches_reference(self, request, name,
                                                 source):
        # 129 and 513 x rows are odd counts: the last row goes in alone.
        # An odd, off-centre f and a random F have no symmetry in x to hide
        # a swapped pair.  A random F fills the whole xi band.
        grid, tf = _case_grids(request, name)
        w = catalog_eval(Gaussian(2.0), grid)
        if source == "stft":
            F = stft(catalog_eval(Translate(Hermite(1), 1.5), grid), w, tf)
        else:
            rng = np.random.default_rng(11)
            shape = (tf.xgrid.count, tf.xigrid.count)
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            F = TFR(tf, (z + np.conj(z[:, ::-1])) / 2)
        assert transforms._hermitian(F.values, tf.xigrid)
        got = adjoint_stft(F, w).values
        for ref in (_reference_adjoint(F, w), _one_row_adjoint(F, w)):
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", ["random-symbol", "modulated-f",
                                      "odd-t", "complex-window"])
    @pytest.mark.parametrize("block_bytes", BLOCK_SWEEP)
    def test_other_inputs_keep_their_bits(self, request, monkeypatch, name,
                                          block_bytes):
        grid, tf = _case_grids(request, {"random-symbol": "129x129",
                                         "modulated-f": "513x1001",
                                         "odd-t": "odd-t",
                                         "complex-window": "128x128"}[name])
        _set_block_bytes(monkeypatch, block_bytes, grid, tf)
        f = catalog_eval(Modulate(Gaussian(1.0), 1.0) if name == "modulated-f"
                         else Hermite(2), grid)
        w = catalog_eval(Gaussian(1.0), grid)
        F = stft(f, w, tf)
        if name == "random-symbol":
            rng = np.random.default_rng(5)
            F = TFR(tf, F.values * (rng.standard_normal(F.values.shape)
                                    + 1j * rng.standard_normal(F.values.shape)))
        if name == "complex-window":  # F stays Hermitian
            w = catalog_eval(Modulate(Gaussian(1.0), 2.0), grid)
        assert np.array_equal(adjoint_stft(F, w).values, _one_row_adjoint(F, w))

    def test_hermitian_predicate_is_exact(self, tf_small):
        rng = np.random.default_rng(2)
        z = (rng.standard_normal((129, 129))
             + 1j * rng.standard_normal((129, 129)))
        v = z + np.conj(z[:, ::-1])
        assert transforms._hermitian(v, tf_small.xigrid)
        off = Grid1D(0.25, tf_small.xigrid.step, tf_small.xigrid.count)
        assert not transforms._hermitian(v, off)
        for k in (0, 64, 128):  # either end and the real centre column
            bent = v.copy()
            bent.imag[3, k] = np.nextafter(bent.imag[3, k], np.inf)
            assert not transforms._hermitian(bent, tf_small.xigrid)


def _set_cpus(monkeypatch, cpus):
    """Let the STFT engine see ``cpus`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


def _count_passes(monkeypatch, name="_stft_blocks"):
    """A list that gains the arguments of each call to transforms.<name>:
    one per STFT engine pass for _stft_blocks, and one per pass of the
    stft or the adjoint for _chirp_rows."""
    passes, real = [], getattr(transforms, name)
    monkeypatch.setattr(transforms, name,
                        lambda *a: passes.append(a) or real(*a))
    return passes


def _engine_outputs(grid, tf):
    """Both stft paths and both adjoints on one grid pair: the real stft
    (paired rows on a xi grid centred at 0) and its packed adjoint, the
    complex stft, and the one-row adjoint of a random-symbol product."""
    w = catalog_eval(Gaussian(1.0), grid)
    real = stft(catalog_eval(Hermite(2), grid), w, tf)
    cplx = stft(catalog_eval(Modulate(Gaussian(1.0), 1.0), grid), w, tf)
    rng = np.random.default_rng(3)
    shape = real.values.shape
    F = TFR(tf, real.values * (rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape)))
    return [real.values, cplx.values, adjoint_stft(real, w).values,
            adjoint_stft(F, w).values]


class TestWorkerCounts:
    """With two blocks or more per worker the engine's blocks run on a
    thread pool; every output keeps the bits of the inline run."""

    @pytest.mark.parametrize("name", ["129x129", "128x128", "513x1001",
                                      "odd-t"])
    @pytest.mark.parametrize("block_bytes", BLOCK_SWEEP)
    def test_same_bits_at_every_cpu_count(self, request, monkeypatch, name,
                                          block_bytes):
        grid, tf = _case_grids(request, name)
        _set_block_bytes(monkeypatch, block_bytes, grid, tf)
        _set_cpus(monkeypatch, 1)
        inline = _engine_outputs(grid, tf)
        for cpus in (2, 3, 8):
            _set_cpus(monkeypatch, cpus)
            for got, want in zip(_engine_outputs(grid, tf), inline):
                assert np.array_equal(got, want)

    def test_eight_workers_one_row_per_block(self, request, monkeypatch):
        # more workers than cores, and the GIL handed over every microsecond
        grid, tf = _case_grids(request, "513x1001")
        _set_block_bytes(monkeypatch, 1, grid, tf)
        _set_cpus(monkeypatch, 1)
        inline = _engine_outputs(grid, tf)
        _set_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            shared = _engine_outputs(grid, tf)
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(shared, inline):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name, cpus, shared", [
        ("129x129", 8, False),   # 2 or 3 blocks per call
        ("128x128", 8, False),
        ("513x1001", 1, False),
        ("513x1001", 2, True),   # 13 blocks of paired rows, 25 of one row
        ("513x1001", 8, True),
    ])
    def test_pool_only_for_two_blocks_per_worker(self, request, monkeypatch,
                                                 name, cpus, shared):
        grid, tf = _case_grids(request, name)
        _set_cpus(monkeypatch, cpus)
        calls, real = [], transforms._pool

        def spy(pid, cpus):
            calls.append(cpus)
            return real(pid, cpus)

        monkeypatch.setattr(transforms, "_pool", spy)
        _engine_outputs(grid, tf)
        assert calls == ([cpus] * 4 if shared else [])

    @pytest.mark.parametrize("exponent", [15, 16])
    def test_buffers_keep_the_budget_at_every_cpu_count(self, monkeypatch,
                                                         exponent):
        # Chirp-z rows of 0.53 and 1.07 MiB: a block never holds less than
        # one, so the count of buffers in flight has to keep the budget.
        grid = build_grid(12.0, exponent)
        tf = grids.phase_space_grid(grid)
        f = catalog_eval(Hermite(2), grid)
        w = catalog_eval(Gaussian(1.0), grid)
        stft(f, w, tf)  # the plan is made

        def peak(cpus):
            _set_cpus(monkeypatch, cpus)
            fresh = SampledFunction(f.grid, f.values)  # an empty memo
            tracemalloc.start()
            try:
                stft(fresh, w, tf)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        inline = peak(1)
        for cpus in (2, 3, 8):
            assert peak(cpus) - inline <= transforms._ENGINE_BYTES, cpus

    def test_import_starts_no_thread(self):
        code = ("import sys, threading, gstf.cli; "
                "print(threading.active_count(), "
                "'concurrent.futures' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             timeout=60).stdout
        assert out == "1 False\n"

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_forked_child_makes_its_own_pool(self, request, monkeypatch):
        grid, tf = _case_grids(request, "513x1001")
        _set_cpus(monkeypatch, 2)
        passes = _count_passes(monkeypatch)
        f = catalog_eval(Hermite(2), grid)
        w = catalog_eval(Gaussian(1.0), grid)
        want = stft(f, w, tf).values.tobytes()
        assert transforms._pool.cache_info().currsize == 1  # the pool exists

        def run():  # a fresh carrier of f: the child runs the engine
            v = stft(SampledFunction(f.grid, f.values), w, tf)
            send.send((len(passes), v.values.tobytes()))

        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=run)
        with recv, send:
            child.start()
            try:
                assert recv.poll(60), "the forked child's stft did not return"
                assert recv.recv() == (2, want)
                child.join(60)
                assert not child.is_alive()
            finally:
                if child.is_alive():
                    child.kill()
                    child.join()
        assert child.exitcode == 0


def _profile_case(request, name):
    """(f, window, TFGrid) of a streamed-profile test case."""
    real = (Translate(Hermite(1), 1.5), Gaussian(2.0))
    specs, grids = {
        "real-odd-rows": (real, "513x1001"),
        "real-even-rows": (real, "128x128"),
        "complex-f": ((Modulate(Gaussian(1.0), 1.0), Gaussian(1.0)),
                      "513x1001"),
        "complex-window": ((Hermite(2), Modulate(Gaussian(1.0), 2.0)),
                           "129x129"),
        "off-centre-xi": ((Hermite(2), Gaussian(1.0)), "odd-t"),
        "wide-x": (real, "129x129"),
    }[name]
    grid, tf = _case_grids(request, grids)
    if name == "wide-x":  # x up to 1536 steps out, on a 1024-point grid
        tf = TFGrid(Grid1D(0.0, 96 * grid.step, 33), tf.xigrid)
    return catalog_eval(specs[0], grid), catalog_eval(specs[1], grid), tf


class TestStreamedProfiles:
    """_stft_profiles reduces V's row blocks as the engine makes them, and
    TFR.max_profiles reduces |V| in row chunks; both give the profiles of
    the whole |V| bit for bit."""

    @pytest.mark.parametrize("name", ["real-odd-rows", "real-even-rows",
                                      "complex-f", "complex-window",
                                      "off-centre-xi", "wide-x"])
    @pytest.mark.parametrize("block_bytes", BLOCK_SWEEP)
    def test_same_bits_as_the_whole_reduction(self, request, monkeypatch,
                                              name, block_bytes):
        f, w, tf = _profile_case(request, name)
        _set_block_bytes(monkeypatch, block_bytes, f.grid, tf)
        _set_cpus(monkeypatch, 1)
        mag = np.abs(stft(f, w, tf).values)
        for cpus in (1, 2, 3, 8):
            _set_cpus(monkeypatch, cpus)
            fresh = SampledFunction(f.grid, f.values)  # an empty memo
            x, xi = transforms._stft_profiles(fresh, w, tf)
            assert x.grid == tf.xgrid and xi.grid == tf.xigrid
            assert np.array_equal(x.values, mag.max(axis=1))
            assert np.array_equal(xi.values, mag.max(axis=0))

    @pytest.mark.parametrize("sub_rows", [1, 3, 64])
    @pytest.mark.parametrize("name", ["real-odd-rows", "real-even-rows",
                                      "complex-f"])
    def test_sub_chunks_keep_the_bits(self, request, monkeypatch, name,
                                      sub_rows):
        # seven-row blocks: sub-chunks that split them unevenly, or one
        # sub-chunk larger than a block
        f, w, tf = _profile_case(request, name)
        _set_block_bytes(monkeypatch, "seven-rows", f.grid, tf)
        monkeypatch.setattr(transforms, "_SUB_ROWS", sub_rows)
        mag = np.abs(stft(f, w, tf).values)
        for cpus in (1, 3):
            _set_cpus(monkeypatch, cpus)
            fresh = SampledFunction(f.grid, f.values)  # an empty memo
            x, xi = transforms._stft_profiles(fresh, w, tf)
            assert np.array_equal(x.values, mag.max(axis=1))
            assert np.array_equal(xi.values, mag.max(axis=0))

    def test_eight_workers_one_row_per_block(self, request, monkeypatch):
        # more workers than cores, and the GIL handed over every microsecond
        for name in ("real-odd-rows", "complex-f"):
            f, w, tf = _profile_case(request, name)
            _set_block_bytes(monkeypatch, 1, f.grid, tf)
            _set_cpus(monkeypatch, 1)
            mag = np.abs(stft(f, w, tf).values)
            _set_cpus(monkeypatch, 8)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            fresh = SampledFunction(f.grid, f.values)  # an empty memo
            try:
                x, xi = transforms._stft_profiles(fresh, w, tf)
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(x.values, mag.max(axis=1))
            assert np.array_equal(xi.values, mag.max(axis=0))

    @pytest.mark.parametrize("chunk_rows", [None, 1, 7])
    def test_tfr_max_profiles_in_row_chunks(self, request, monkeypatch,
                                            chunk_rows):
        _, tf = _case_grids(request, "513x1001")
        shape = (tf.xgrid.count, tf.xigrid.count)
        if chunk_rows is not None:
            monkeypatch.setattr(grids, "_BLOCK_BYTES",
                                chunk_rows * 8 * shape[1])
        rng = np.random.default_rng(23)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x, xi = TFR(tf, vals).max_profiles()
        assert np.array_equal(x.values, np.abs(vals).max(axis=1))
        assert np.array_equal(xi.values, np.abs(vals).max(axis=0))

    def test_a_v_that_is_not_finite_is_rejected_as_stft_rejects_it(
            self, grid10, tf_small):
        huge = SampledFunction(grid10, np.full(grid10.count, 1e300))
        for run in (stft, transforms._stft_profiles):
            with pytest.raises(GridError, match="TFR values must be finite"):
                run(huge, huge, tf_small)
        assert not huge._memo

    def test_kept_per_window_object_and_tfgrid(self, grid10, tf_small):
        f = catalog_eval(Hermite(2), grid10)
        w = catalog_eval(Gaussian(1.0), grid10)
        first = transforms._stft_profiles(f, w, tf_small)
        assert transforms._stft_profiles(f, w, tf_small) is first
        twin = SampledFunction(grid10, w.values)  # equal, another object
        other = transforms._stft_profiles(f, twin, tf_small)
        assert other is not first
        assert all(a == b for a, b in zip(other, first))
        wide = TFGrid(tf_small.xgrid, Grid1D(0.0, 0.5, 129))
        assert transforms._stft_profiles(f, w, wide) is not first


class TestStftMemo:
    """f keeps the TFR of its last window object and TFGrid, as dft keeps
    its transform: the checks that transform one function twice in a row
    run the engine once, and f holds one V whatever the windows."""

    @staticmethod
    def pair(grid):
        return catalog_eval(Hermite(2), grid), catalog_eval(Gaussian(1.0), grid)

    def test_same_objects_give_the_same_tfr(self, monkeypatch, grid10,
                                            tf_small):
        passes = _count_passes(monkeypatch)
        f, w = self.pair(grid10)
        v = stft(f, w, tf_small)
        assert stft(f, w, tf_small) is v and len(passes) == 1
        assert not v.values.flags.writeable

    def test_each_other_object_costs_one_pass(self, monkeypatch, grid10,
                                              tf_small):
        passes = _count_passes(monkeypatch)
        f, w = self.pair(grid10)
        v = stft(f, w, tf_small)
        twin = SampledFunction(grid10, w.values)  # equal, another object
        wide = TFGrid(tf_small.xgrid, Grid1D(0.0, 0.5, 129))
        fresh = SampledFunction(grid10, f.values)
        for k, args in enumerate([(f, twin, tf_small), (f, w, wide),
                                  (fresh, w, tf_small)], start=2):
            other = stft(*args)
            assert other is not v and len(passes) == k
            assert stft(*args) is other and len(passes) == k
        assert stft(f, twin, tf_small) == v == stft(fresh, w, tf_small)

    def test_entry_holds_the_window_and_goes_with_f(self, grid10, tf_small):
        f, w = self.pair(grid10)
        v = stft(f, w, tf_small)
        (window_kept, tf_kept), v_kept = f._memo["stft"]
        assert window_kept is w and tf_kept is tf_small and v_kept is v
        window, tfr = weakref.ref(w), weakref.ref(v)
        del w, v, window_kept, v_kept
        gc.collect()
        # no other object can take the window's place while V is kept
        assert window() is f._memo["stft"][0][0]
        del f
        gc.collect()
        assert window() is None and tfr() is None

    def test_ten_windows_hold_one_v(self):
        # 2048 points onto 513x1001: each V is 8.2 MB, and f keeps one
        g = build_grid(12.0, 11)
        tf = grids.classify_tfgrid(g)
        f = catalog_eval(Hermite(2), g)
        stft(f, catalog_eval(Gaussian(1.0), g), tf)  # the plan, cached
        one = 16 * tf.xgrid.count * tf.xigrid.count
        tracemalloc.start()
        try:
            for _ in range(10):
                stft(f, catalog_eval(Gaussian(1.0), g), tf)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one V held, and never two at once (the peak is about 12.2 MB)
        assert held < 1.1 * one and peak < 2 * one

    def test_streamed_profiles_stay_after_a_later_stft(self, grid10,
                                                        tf_small):
        # streamed profiles, then V: f keeps one set of profiles, and the
        # critical scales kept on their carriers are not made again
        f, w = self.pair(grid10)
        first = transforms._stft_profiles(f, w, tf_small)
        v = stft(f, w, tf_small)
        again = transforms._stft_profiles(f, w, tf_small)
        assert again[0] is first[0] and again[1] is first[1]
        assert "max_profiles" not in v._memo
        for kept, made in zip(first, v.max_profiles()):
            assert np.array_equal(kept.values, made.values)

    @pytest.mark.parametrize("take", [
        lambda f, w, tf: stft(f, w, tf).values,
        lambda f, w, tf: np.stack([p.values for p in
                                   transforms._stft_profiles(f, w, tf)])],
        ids=["stft", "profiles"])
    def test_window_a_b_a_gives_a_fresh_carriers_bits(self, grid10,
                                                      tf_small, take):
        f, a = self.pair(grid10)
        b = catalog_eval(Gaussian(2.0), grid10)
        got = [take(f, w, tf_small) for w in (a, b, a)]
        for w, v in zip((a, b, a), got):
            assert np.array_equal(
                v, take(SampledFunction(grid10, f.values), w, tf_small))

    @pytest.mark.parametrize("take", [
        stft, lambda f, w, tf: transforms._stft_profiles(f, w, tf)[0]],
        ids=["stft", "profiles"])
    def test_f_as_its_own_window_is_freed_without_the_collector(
            self, grid10, tf_small, take):
        # an entry holding f itself would keep f and its V in a cycle
        f = catalog_eval(Hermite(2), grid10)
        gc.disable()
        try:
            ref = weakref.ref(take(f, f, tf_small))
            del f
            assert ref() is None
        finally:
            gc.enable()

    def test_a_v_that_is_not_finite_leaves_no_entry(self, monkeypatch,
                                                    grid10, tf_small):
        passes = _count_passes(monkeypatch)
        huge = SampledFunction(grid10, np.full(grid10.count, 1e300))
        w = SampledFunction(grid10, huge.values)  # f w overflows
        for k in (1, 2):  # a second call runs and raises again
            with pytest.raises(GridError, match="TFR values must be finite"):
                stft(huge, w, tf_small)
            assert not huge._memo and len(passes) == k

    def test_toeplitz_then_stft_runs_two_passes(self, monkeypatch, grid10,
                                                tf_small):
        # the adjoint-symmetry check: T f, then V f on the same objects
        passes = _count_passes(monkeypatch, "_chirp_rows")
        f, w = self.pair(grid10)
        rng = np.random.default_rng(7)
        shape = (tf_small.xgrid.count, tf_small.xigrid.count)
        sym = TFR(tf_small, rng.standard_normal(shape)
                  + 1j * rng.standard_normal(shape))
        apply_toeplitz(sym, w, w, f)
        stft(f, w, tf_small)
        assert len(passes) == 2  # the stft and the adjoint, not a 2nd stft

    @pytest.mark.parametrize("suite, stfts, passes", [
        ("identities", 51, 52), ("classification", 12, 12),
        ("toeplitz", 7, 16)],
        ids=["identities-51", "classification-12", "toeplitz-7"])
    def test_suite_engine_passes(self, monkeypatch, suite, stfts, passes):
        # Moyal's V is the twisted check's V_phi1 f; the STFT verdicts
        # stream.  The Toeplitz suite samples each function once, so its
        # adjoint, positivity and probe checks share V f and T f: 7 stft
        # and 9 adjoint passes, where fresh functions took 13 and 12.
        blocks = _count_passes(monkeypatch)
        rows = _count_passes(monkeypatch, "_chirp_rows")
        checks.run_suite(suite)
        assert (len(blocks), len(rows)) == (stfts, passes)


class TestToeplitzMemo:
    """f keeps T f of its last symbol and window objects, as it keeps V:
    the checks that apply one operator to one function twice in a row run
    the stft and the adjoint once."""

    @staticmethod
    def operands(grid, tf):
        f = catalog_eval(Hermite(2), grid)
        w = catalog_eval(Gaussian(1.0), grid)
        rng = np.random.default_rng(7)
        shape = (tf.xgrid.count, tf.xigrid.count)
        return f, w, TFR(tf, rng.standard_normal(shape)
                         + 1j * rng.standard_normal(shape))

    def test_same_objects_give_the_same_output(self, monkeypatch, grid10,
                                               tf_small):
        passes = _count_passes(monkeypatch, "_chirp_rows")
        f, w, a = self.operands(grid10, tf_small)
        out = apply_toeplitz(a, w, w, f)
        assert len(passes) == 2  # the stft and the adjoint
        assert apply_toeplitz(a, w, w, f) is out and len(passes) == 2

    def test_each_other_object_runs_a_new_pass(self, monkeypatch, grid10,
                                               tf_small):
        passes = _count_passes(monkeypatch, "_chirp_rows")
        f, w, a = self.operands(grid10, tf_small)
        out = apply_toeplitz(a, w, w, f)
        twin_a = TFR(tf_small, a.values)  # equal, other objects
        twin_w = SampledFunction(grid10, w.values)
        # f keeps one V: a new phi1 runs a new stft, and phi1 = w after
        # it runs the stft of w again; back to (a, w, w), T f runs again
        for args, more in (((twin_a, w, w, f), 1), ((a, twin_w, w, f), 2),
                           ((a, w, twin_w, f), 2), ((a, w, w, f), 1)):
            before = len(passes)
            other = apply_toeplitz(*args)
            assert other is not out and other == out
            assert len(passes) == before + more
            assert apply_toeplitz(*args) is other  # kept for these objects
            assert len(passes) == before + more

    def test_symbol_a_b_a_gives_a_fresh_carriers_bits(self, grid10,
                                                      tf_small):
        f, w, a = self.operands(grid10, tf_small)
        b = gaussian_symbol(tf_small)
        got = [apply_toeplitz(s, w, w, f) for s in (a, b, a)]
        for s, out in zip((a, b, a), got):
            fresh = SampledFunction(grid10, f.values)
            assert np.array_equal(out.values,
                                  apply_toeplitz(s, w, w, fresh).values)

    def test_entry_holds_its_operands_and_goes_with_f(self, grid10,
                                                      tf_small):
        f, w, a = self.operands(grid10, tf_small)
        phi2 = SampledFunction(grid10, w.values)
        out = apply_toeplitz(a, w, phi2, f)
        ops, kept = f._memo["toeplitz"]
        assert all(x is y for x, y in zip((*ops, kept), (a, w, phi2, out)))
        refs = [weakref.ref(x) for x in (a, w, phi2, out)]
        del a, w, phi2, out, ops, kept
        gc.collect()
        # no other object can take an operand's place while T f is kept
        assert all(r() is not None for r in refs)
        del f
        gc.collect()
        assert all(r() is None for r in refs)

    def test_f_as_both_windows_is_freed_without_the_collector(self, grid10,
                                                              tf_small):
        # an entry holding f itself would keep f and T f in a cycle
        f = catalog_eval(Gaussian(1.0), grid10)
        a = TFR(tf_small, np.ones((tf_small.xgrid.count,
                                   tf_small.xigrid.count)))
        gc.disable()
        try:
            out = apply_toeplitz(a, f, f, f)
            assert f._memo["toeplitz"] == ((a, None, None), out)
            ref = weakref.ref(f)
            del f, out
            assert ref() is None
        finally:
            gc.enable()


class TestHermitianMark:
    """stft's real path marks its output exactly Hermitian in the TFR's
    memo; adjoint_stft and the twisted sum read the mark and run the exact
    test only on a TFR without one."""

    @staticmethod
    def spy(monkeypatch, name):
        """Record the arguments of each call to transforms.<name>."""
        calls, real = [], getattr(transforms, name)

        def wrapper(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(transforms, name, wrapper)
        return calls

    @pytest.mark.parametrize("name", ["129x129", "128x128", "513x1001"])
    @pytest.mark.parametrize("f_spec, w_spec", [
        (Hermite(2), Gaussian(1.0)),
        (Translate(Hermite(1), 1.5), Gaussian(2.0)),
        ("random", Gaussian(0.5)),
    ])
    def test_real_path_output_is_marked(self, request, name, f_spec, w_spec):
        grid, tf = _case_grids(request, name)
        f = (SampledFunction(grid, np.random.default_rng(9).standard_normal(
                 grid.count)) if f_spec == "random"
             else catalog_eval(f_spec, grid))
        v = stft(f, catalog_eval(w_spec, grid), tf)
        assert v._memo["hermitian"] is True
        assert transforms._hermitian(v.values, tf.xigrid)

    @pytest.mark.parametrize("f_spec, w_spec, name", [
        (Modulate(Gaussian(1.0), 1.0), Gaussian(1.0), "129x129"),
        (Hermite(2), Modulate(Gaussian(1.0), 2.0), "513x1001"),
        (Hermite(2), Gaussian(1.0), "odd-t"),
    ])
    def test_other_outputs_are_unmarked(self, request, f_spec, w_spec, name):
        grid, tf = _case_grids(request, name)
        v = stft(catalog_eval(f_spec, grid), catalog_eval(w_spec, grid), tf)
        assert "hermitian" not in v._memo

    def test_marked_input_is_not_retested(self, monkeypatch, grid10,
                                          tf_small):
        calls = self.spy(monkeypatch, "_hermitian")
        rows = self.spy(monkeypatch, "_chirp_rows")
        w = catalog_eval(Gaussian(1.0), grid10)
        v = stft(catalog_eval(Hermite(2), grid10), w, tf_small)
        adjoint_stft(v, w)
        assert calls == []
        assert [r[0] for r in rows] == [65, 65]  # packed: 129 x rows in 65

    def test_derived_tfr_is_tested_and_keeps_its_bits(self, monkeypatch,
                                                      grid10, tf_small):
        # the product with a complex symbol, as in apply_toeplitz
        w = catalog_eval(Gaussian(1.0), grid10)
        v = stft(catalog_eval(Hermite(2), grid10), w, tf_small)
        rng = np.random.default_rng(5)
        sym = (rng.standard_normal(v.values.shape)
               + 1j * rng.standard_normal(v.values.shape))
        F = TFR(tf_small, sym * v.values)
        assert "hermitian" not in F._memo
        calls = self.spy(monkeypatch, "_hermitian")
        got = adjoint_stft(F, w).values
        assert np.array_equal(got, _one_row_adjoint(F, w))
        assert F._memo["hermitian"] is False and len(calls) == 1
        adjoint_stft(F, w)
        assert len(calls) == 1  # the answer is kept in F's memo

    @pytest.mark.parametrize("name", ["129x129", "513x1001"])
    def test_unmarked_hermitian_tfr_takes_the_packed_path(
            self, request, monkeypatch, name):
        grid, tf = _case_grids(request, name)
        w = catalog_eval(Gaussian(2.0), grid)
        rng = np.random.default_rng(13)
        shape = (tf.xgrid.count, tf.xigrid.count)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        F = TFR(tf, (z + np.conj(z[:, ::-1])) / 2)
        assert "hermitian" not in F._memo
        rows = self.spy(monkeypatch, "_chirp_rows")
        got = adjoint_stft(F, w).values
        assert F._memo["hermitian"] is True
        assert [r[0] for r in rows] == [(shape[0] + 1) // 2]
        ref = _reference_adjoint(F, w)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_twisted_sum_reads_the_marks(self, monkeypatch, grid10, tf_small):
        calls = self.spy(monkeypatch, "_hermitian")
        phis = [catalog_eval(Gaussian(a), grid10) for a in (1.0, 2.0, 0.5)]
        d = twisted_convolution_defect(catalog_eval(Hermite(2), grid10),
                                       *phis, tf_small)
        assert d < 1e-10 and calls == []


class TestDft2:
    def test_separable_gaussian(self):
        g = Grid1D(0.0, 24.0 / 127, 128)
        tf = TFGrid(g, g)
        x = g.coords[:, None]
        xi = g.coords[None, :]
        a = TFR(tf, np.exp(-(x**2 + xi**2) / 2.0))
        ahat = dft2(a)
        u = ahat.tfgrid.xgrid.coords[:, None]
        v = ahat.tfgrid.xigrid.coords[None, :]
        ref = np.exp(-(u**2 + v**2) / 2.0)
        assert np.max(np.abs(ahat.values - ref)) < 1e-12


class TestTwistedConvolution:
    def test_identity_holds_for_gaussian_windows(self, grid10):
        h = grid10.step
        tf = TFGrid(Grid1D(0.0, 8 * h, 129), Grid1D(0.0, 0.25, 129))
        d = twisted_convolution_defect(
            catalog_eval(Hermite(2), grid10),
            catalog_eval(Gaussian(1.0), grid10),
            catalog_eval(Gaussian(2.0), grid10),
            catalog_eval(Gaussian(0.5), grid10),
            tf)
        assert d < 1e-10

    @staticmethod
    def per_eta_defect(f, phi1, phi2, phi3, tf):
        """The defect with both forward FFTs taken inside the eta loop, as
        the identity was first metered."""
        v1f, v23 = stft(f, phi1, tf), stft(phi3, phi2, tf)
        inner = phi1.grid.step * np.sum(phi3.values * np.conj(phi1.values))
        lhs = inner * stft(f, phi2, tf).values
        nx, nxi = tf.xgrid.count, tf.xigrid.count
        mx, mxi = (nx - 1) // 2, (nxi - 1) // 2
        u, eta = tf.xgrid.coords, tf.xigrid.coords
        L = 1 << (nx + mx - 1).bit_length()
        v1t = v1f.values.T
        b_hat = np.fft.fft(v23.values.T, L, axis=-1)
        acc = np.zeros_like(lhs)
        for jeta in range(nxi):
            lo, hi = max(0, jeta - mxi), min(nxi, nxi + jeta - mxi)
            w = v1t[lo - jeta + mxi:hi - jeta + mxi]
            w = w * np.exp(-1j * u * eta[jeta])
            conv = np.fft.ifft(np.fft.fft(w, L, axis=-1) * b_hat[jeta],
                               axis=-1)
            acc[:, lo:hi] += conv[:, mx:mx + nx].T
        rhs = tf.xgrid.step * tf.xigrid.step / np.sqrt(2 * np.pi) * acc
        return float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)))

    @pytest.mark.parametrize("spec, windows", [
        (Hermite(2), (1.0, 2.0, 0.5)),
        (Modulate(Gaussian(1.0), 1.0), (2.0, 0.5, 1.0)),
        (Translate(Gaussian(1.0), 1.5), (1.0, 0.5, 2.0)),
    ])
    def test_hoisted_ffts_match_per_eta_loop(self, grid10, tf_small, spec,
                                             windows):
        f = catalog_eval(spec, grid10)
        phis = [catalog_eval(Gaussian(a), grid10) for a in windows]
        got = twisted_convolution_defect(f, *phis, tf_small)
        want = self.per_eta_defect(f, *phis, tf_small)
        assert got <= 1e-14 and want <= 1e-14
        assert abs(got - want) <= 1e-15

    @staticmethod
    def fresh_array_loop(v1f, v23, tf):
        """The eta loop as it ran before the shared work buffer: fresh
        product and IFFT arrays, conj(turn) per eta, (x, xi) rows."""
        nx, nxi = tf.xgrid.count, tf.xigrid.count
        mx, mxi = (nx - 1) // 2, (nxi - 1) // 2
        u, eta = tf.xgrid.coords, tf.xigrid.coords
        L = 1 << (nx + mx - 1).bit_length()
        turn = np.exp(1j * np.outer(eta, u))
        a_hat = np.fft.fft(v1f.T, L, axis=-1)
        b_hat = np.fft.fft(v23.T * turn, L, axis=-1)
        acc = np.zeros((nx, nxi), dtype=complex)
        for jeta in range(nxi):
            lo, hi = max(0, jeta - mxi), min(nxi, nxi + jeta - mxi)
            conv = np.fft.ifft(a_hat[lo - jeta + mxi:hi - jeta + mxi]
                               * b_hat[jeta], axis=-1)
            acc[:, lo:hi] += (conv[:, mx:mx + nx] * np.conj(turn[jeta])).T
        return tf.xgrid.step * tf.xigrid.step / np.sqrt(2 * np.pi) * acc

    @pytest.mark.parametrize("spec, windows", [
        (Hermite(2), (1.0, 2.0, 0.5)),
        (Modulate(Gaussian(1.0), 1.0), (2.0, 0.5, 1.0)),
        (Translate(Gaussian(1.0), 1.5), (1.0, 0.5, 2.0)),
    ])
    def test_work_buffer_loop_keeps_its_bits(self, grid10, tf_small, spec,
                                             windows):
        f = catalog_eval(spec, grid10)
        phi1, phi2, phi3 = (catalog_eval(Gaussian(a), grid10) for a in windows)
        v1f, v23 = stft(f, phi1, tf_small), stft(phi3, phi2, tf_small)
        got = transforms._twisted_sum(v1f, v23)
        want = self.fresh_array_loop(v1f.values, v23.values, tf_small)
        if f.values.imag.any():  # V_phi1 f is not Hermitian: every bit kept
            assert np.array_equal(got, want)
            return
        # Real f and windows: both operands are Hermitian in xi, the loop
        # fills the xi >= 0 columns, which keep their bits, and the xi < 0
        # columns are their exact mirror.  The centre column keeps its
        # rounding-level imaginary part, as in the full loop.
        m = (tf_small.xigrid.count - 1) // 2
        assert np.array_equal(got[:, m:], want[:, m:])
        assert np.array_equal(got[:, :m], np.conj(got[:, :m:-1]))

    def test_zero_function_has_zero_defect(self, grid10, tf_small):
        # both sides vanish: the defect is max|rhs - lhs| over 1, not 0/0
        zero = SampledFunction(grid10, np.zeros(grid10.count))
        phis = [catalog_eval(Gaussian(a), grid10) for a in (1.0, 2.0, 0.5)]
        assert twisted_convolution_defect(zero, *phis, tf_small) == 0.0

    def test_requires_odd_centered_tfgrid(self, grid10):
        h = grid10.step
        tf = TFGrid(Grid1D(0.0, 8 * h, 128), Grid1D(0.0, 0.25, 129))
        f = catalog_eval(Gaussian(1.0), grid10)
        with pytest.raises(GridError):
            twisted_convolution_defect(f, f, f, f, tf)

    def test_rejects_undecayed_operand(self, grid10):
        # gaussian(0.001) is still about 0.93 at the grid's rim
        tf = phase_space_grid(grid10)
        wide = catalog_eval(Gaussian(0.001), grid10)
        sharp = catalog_eval(Gaussian(1.0), grid10)
        with pytest.raises(BoundaryMassError) as err:
            twisted_convolution_defect(wide, sharp, sharp, sharp, tf)
        assert str(err.value) == ("V_phi1 f has relative boundary mass "
                                  "4.70e-01; enlarge the time-frequency grid")
        with pytest.raises(BoundaryMassError) as err:
            twisted_convolution_defect(sharp, sharp, sharp, wide, tf)
        assert str(err.value) == ("V_phi2 phi3 has relative boundary mass "
                                  "4.70e-01; enlarge the time-frequency grid")


def _edge_ratio(values):
    """The largest |V| on the four edges of the grid over the peak of |V|,
    from np.abs of the whole array."""
    a = np.abs(values)
    edge = max(a[0].max(), a[-1].max(), a[:, 0].max(), a[:, -1].max())
    return float(edge / a.max())


class TestBoundaryGate:
    """_require_decayed reads the edge mass of |V| off V's max-profiles
    and raises exactly when it exceeds BOUNDARY_FLOOR."""

    @staticmethod
    def bump(tf, spots=()):
        """A Gaussian bump of peak 1 at the grid's centre, with the complex
        values ``spots`` at their (row, column) places."""
        vals = gaussian_symbol(tf).values.copy()
        for (i, j), z in spots:
            vals[i, j] = z
        return TFR(tf, vals)

    @staticmethod
    def assert_gate(v, name="V"):
        ratio = _edge_ratio(v.values)
        if ratio > transforms.BOUNDARY_FLOOR:
            with pytest.raises(BoundaryMassError) as err:
                transforms._require_decayed(v, name)
            assert str(err.value) == (
                f"{name} has relative boundary mass {ratio:.2e}; "
                "enlarge the time-frequency grid")
        else:
            transforms._require_decayed(v, name)
        return ratio

    @pytest.mark.parametrize("place", [(0, 40), (-1, 90), (70, 0), (20, -1)],
                             ids=["first-row", "last-row", "first-column",
                                  "last-column"])
    def test_peak_on_each_edge(self, tf_small, place):
        v = self.bump(tf_small, [(place, 3.0 - 4.0j)])
        assert self.assert_gate(v, "V_phi1 f") == 1.0

    def test_interior_peak(self, tf_small):
        # exp(-(x^2 + xi^2)/2) on x up to 12 and xi up to 16
        assert 0.0 < self.assert_gate(self.bump(tf_small)) < 1e-30

    def test_all_zero_passes(self, tf_small):
        zero = TFR(tf_small, np.zeros((129, 129)))
        transforms._require_decayed(zero, "STFT product")

    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    @pytest.mark.parametrize("peak", [1.0, 2.5 - 1.5j], ids=["real", "complex"])
    def test_ratios_beside_the_floor(self, tf_small, side, peak):
        # an edge value two to five ulps from the floor times the peak, on
        # a first-column sample, and times i on a last-row sample
        floor = transforms.BOUNDARY_FLOOR
        edge = np.nextafter(floor * abs(peak), side * np.inf)
        for k in range(4):
            edge = np.nextafter(edge, side * np.inf)
            for place, z in (((60, 0), edge), ((-1, 30), edge * 1j)):
                v = self.bump(tf_small, [((64, 64), peak), (place, z)])
                ratio = self.assert_gate(v)
                assert (ratio > floor) == (side > 0), (k, place)

    def test_twisted_convolution_leaves_its_profiles_for_the_verdict(
            self, monkeypatch, grid10, tf_small):
        # phi1 is phi2, so f keeps V_phi1 f, whose profiles the gate made;
        # classify_stft on f, phi1 and the grid reads those same carriers
        f = catalog_eval(Hermite(2), grid10)
        phi1 = catalog_eval(Gaussian(1.0), grid10)
        v1f = stft(f, phi1, tf_small)
        twisted_convolution_defect(f, phi1, phi1,
                                   catalog_eval(Gaussian(0.5), grid10),
                                   tf_small)
        profiles = v1f._memo["max_profiles"]
        reductions = []
        for module in (grids, transforms):
            real = module._max_profiles
            monkeypatch.setattr(module, "_max_profiles",
                                lambda *a, real=real: reductions.append(a)
                                or real(*a))
        passes = _count_passes(monkeypatch)
        classify_stft(f, phi1, roumieu(s=0.5), tf_small)
        assert transforms._stft_profiles(f, phi1, tf_small) is profiles
        assert not reductions and not passes

    def test_product_transform_gates_the_tfr_it_transforms(
            self, request, monkeypatch):
        # one product TFR: the gate's profiles are made on dft2's operand
        grid, tf = _case_grids(request, "128x128")
        seen, real = [], transforms.dft2
        monkeypatch.setattr(toeplitz, "dft2",
                            lambda a: seen.append(a) or real(a))
        f = catalog_eval(Hermite(1), grid)
        w = catalog_eval(Gaussian(1.0), grid)
        stft_product_transform_defect(f, f, w, w, tf)
        (product,) = seen
        assert "max_profiles" in product._memo
