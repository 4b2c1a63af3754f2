import tracemalloc

import numpy as np
import pytest

from gstf import transforms
from gstf import (BoundaryMassError, Gaussian, Grid1D, GridError, Hermite,
                  Modulate, SampledFunction, TFGrid, Translate, adjoint_stft,
                  build_grid, catalog_eval, dft, dft2, idft,
                  spectral_derivative, stft, twisted_convolution_defect)
from gstf.grids import TFR

from conftest import rel_max_err


class TestDft:
    def test_gaussian_is_fixed_point(self, grid10):
        # exp(-x^2/2) is its own unitary Fourier transform.
        f = catalog_eval(Gaussian(1.0), grid10)
        F = dft(f)
        ref = np.exp(-0.5 * F.x**2)
        assert rel_max_err(F.values, ref) < 1e-13

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


class TestSpectralDerivative:
    def test_matches_analytic_derivative(self, grid10):
        # D = -i d/dx on exp(-x^2/2): D f = i x f
        f = catalog_eval(Gaussian(1.0), grid10)
        df = spectral_derivative(f, 1)
        ref = 1j * f.x * f.values
        assert np.max(np.abs(df.values - ref)) < 1e-10

    def test_second_order(self, grid10):
        f = catalog_eval(Gaussian(1.0), grid10)
        d2 = spectral_derivative(f, 2)
        ref = -(f.x**2 - 1.0) * f.values  # (-i d/dx)^2 f = -f''
        assert np.max(np.abs(d2.values - ref)) < 1e-9

    def test_order_zero_is_identity(self, grid10):
        f = catalog_eval(Hermite(1), grid10)
        assert spectral_derivative(f, 0) is f

    def test_rejects_boundary_mass(self):
        g = build_grid(2.0, 8)  # gaussian not decayed at |x| = 2
        f = catalog_eval(Gaussian(0.1), g)
        with pytest.raises(BoundaryMassError):
            spectral_derivative(f, 1)


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
        with pytest.raises(GridError):
            stft(f, f, bad)

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


def _reference_stft(f, w, tf):
    """stft as a product with the dense kernel exp(-i t xi)."""
    shifts = [f.grid.shift_index(x) for x in tf.xgrid.coords]
    g = f.values[:, None] * np.stack(
        [_shifted(np.conj(w.values), k) for k in shifts], axis=1)
    kernel = np.exp(-1j * np.outer(f.grid.coords, tf.xigrid.coords))
    return (f.grid.step / np.sqrt(2 * np.pi)) * (g.T @ kernel)


def _reference_adjoint(F, w):
    """adjoint_stft as a product with the dense kernel exp(+i xi t)."""
    phases = F.values @ np.exp(1j * np.outer(F.tfgrid.xigrid.coords,
                                             w.grid.coords))
    out = np.zeros(w.grid.count, dtype=complex)
    for c, x in enumerate(F.tfgrid.xgrid.coords):
        out += phases[c] * _shifted(w.values, w.grid.shift_index(x))
    step = F.tfgrid.xgrid.step * F.tfgrid.xigrid.step / np.sqrt(2 * np.pi)
    return step * out


class TestStftChirpZ:
    """stft and adjoint_stft run as a Bluestein chirp-z transform; they
    stay within 1e-14 of the peak of the dense-kernel references."""

    @pytest.fixture(params=["129x129", "128x128", "513x1001", "odd-t"])
    def case(self, request, grid10, grid11, tf_small, tf_classify):
        h = grid10.step
        grid, tf = {
            "129x129": (grid10, tf_small),
            # the product-transform grid of the identity suite
            "128x128": (grid10, TFGrid(Grid1D(0.0, 8 * h, 128),
                                       Grid1D(0.0, 2 * np.pi / (1024 * h),
                                              128))),
            "513x1001": (grid11, tf_classify),
            # odd time count, off-centre time and frequency grids
            "odd-t": (Grid1D(0.25, 0.024, 1001),
                      TFGrid(Grid1D(0.0, 3 * 0.024, 77),
                             Grid1D(1.7, 0.31, 150))),
        }[request.param]
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

    def test_block_size_does_not_change_bits(self, case, monkeypatch):
        f, w, tf = case
        v = stft(f, w, tf)
        g = adjoint_stft(v, w)
        monkeypatch.setattr(transforms, "_BLOCK_BYTES", 1)  # one row a block
        assert np.array_equal(stft(f, w, tf).values, v.values)
        assert np.array_equal(adjoint_stft(v, w).values, g.values)

    def test_cached_plan_is_read_only(self, case):
        f, w, tf = case
        stft(f, w, tf)
        for arr in transforms._chirp_plan(f.grid, tf.xigrid):
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

    def test_requires_odd_centered_tfgrid(self, grid10):
        h = grid10.step
        tf = TFGrid(Grid1D(0.0, 8 * h, 128), Grid1D(0.0, 0.25, 129))
        f = catalog_eval(Gaussian(1.0), grid10)
        with pytest.raises(GridError):
            twisted_convolution_defect(f, f, f, f, tf)
