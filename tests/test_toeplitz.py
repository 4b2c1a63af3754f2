import math

import numpy as np
import pytest

from gstf import (MEMBER, BoundaryMassError, ClassifyOptions, GSIndex,
                  Gaussian, Grid1D, GridError, GstfError, Hermite, Modulate,
                  SampledFunction, TFGrid, apply_toeplitz, build_grid,
                  catalog_eval, continuity_probe, stft,
                  stft_product_transform_defect)
from gstf.grids import TFR


@pytest.fixture(scope="module")
def grid():
    return build_grid(12.0, 10)


@pytest.fixture(scope="module")
def tf(grid):
    return TFGrid(Grid1D(0.0, 8 * grid.step, 129), Grid1D(0.0, 0.25, 129))


@pytest.fixture(scope="module")
def unit_window(grid):
    w = catalog_eval(Gaussian(1.0), grid)
    return w * (1.0 / w.norm2())


def unit_symbol(tf):
    return TFR(tf, np.ones((tf.xgrid.count, tf.xigrid.count)))


class TestApplyToeplitz:
    def test_unit_symbol_reproduces_input(self, grid, tf, unit_window):
        for spec in (Gaussian(1.0), Hermite(2), Modulate(Gaussian(0.5), 2.0)):
            f = catalog_eval(spec, grid)
            out = apply_toeplitz(unit_symbol(tf), unit_window, unit_window, f)
            err = np.max(np.abs(out.values - f.values))
            assert err < 1e-5 * np.max(np.abs(f.values))

    def test_linearity(self, grid, tf, unit_window):
        x = tf.xgrid.coords[:, None]
        xi = tf.xigrid.coords[None, :]
        a = TFR(tf, np.exp(-(x**2 + xi**2) / 2.0))
        f = catalog_eval(Gaussian(1.0), grid)
        g = catalog_eval(Hermite(1), grid)
        lhs = apply_toeplitz(a, unit_window, unit_window,
                             SampledFunction(grid, f.values + 2.0 * g.values))
        rhs = (apply_toeplitz(a, unit_window, unit_window, f).values
               + 2.0 * apply_toeplitz(a, unit_window, unit_window, g).values)
        assert np.max(np.abs(lhs.values - rhs)) < 1e-14

    def test_adjoint_symmetry(self, grid, tf, unit_window):
        # <Op f, g> = <a, conj(V f) V g> for any symbol a.
        rng = np.random.default_rng(11)
        a = TFR(tf, rng.standard_normal((129, 129))
                + 1j * rng.standard_normal((129, 129)))
        f = catalog_eval(Hermite(1), grid)
        g = catalog_eval(Gaussian(2.0), grid)
        lhs = grid.step * np.sum(
            apply_toeplitz(a, unit_window, unit_window, f).values
            * np.conj(g.values))
        vf = stft(f, unit_window, tf)
        vg = stft(g, unit_window, tf)
        rhs = tf.xgrid.step * tf.xigrid.step * np.sum(
            a.values * np.conj(np.conj(vf.values) * vg.values))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1e-30)

    def test_nonnegative_symbol_gives_nonnegative_form(self, grid, tf,
                                                       unit_window):
        x = tf.xgrid.coords[:, None]
        xi = tf.xigrid.coords[None, :]
        a = TFR(tf, np.exp(-(x**2 + xi**2) / 2.0))
        for spec in (Gaussian(1.0), Hermite(1), Hermite(3),
                     Modulate(Gaussian(0.5), 2.0)):
            f = catalog_eval(spec, grid)
            q = grid.step * np.sum(
                apply_toeplitz(a, unit_window, unit_window, f).values
                * np.conj(f.values))
            assert q.real >= -1e-10
            assert abs(q.imag) < 1e-12 * max(q.real, 1e-30)

    def test_ball_indicator_symbol_near_reproduction(self, grid, tf,
                                                     unit_window):
        # An indicator of a large phase-space ball acts like the identity
        # on functions concentrated well inside it.
        x = tf.xgrid.coords[:, None]
        xi = tf.xigrid.coords[None, :]
        a = TFR(tf, (x**2 + xi**2 <= 8.0**2).astype(float))
        f = catalog_eval(Gaussian(1.0), grid)
        out = apply_toeplitz(a, unit_window, unit_window, f)
        assert np.max(np.abs(out.values - f.values)) < 1e-6

    def test_rejects_mismatched_grids(self, grid, tf, unit_window):
        other = build_grid(12.0, 9)
        f = catalog_eval(Gaussian(1.0), other)
        with pytest.raises(GridError):
            apply_toeplitz(unit_symbol(tf), unit_window, unit_window, f)


@pytest.fixture(scope="module")
def tf_pow2(grid):
    h = grid.step
    return TFGrid(Grid1D(0.0, 8 * h, 128),
                  Grid1D(0.0, 2 * np.pi / (1024 * h), 128))


class TestProductTransform:
    def test_factorization_holds_with_minus_phase(self, grid, tf_pow2):
        f = catalog_eval(Hermite(1), grid)
        g = catalog_eval(Gaussian(1.0), grid)
        p1 = catalog_eval(Gaussian(2.0), grid)
        p2 = catalog_eval(Gaussian(0.5), grid)
        d = stft_product_transform_defect(f, g, p1, p2, tf_pow2)
        assert d["defect_minus"] < 1e-10
        assert d["defect_plus"] > 1e-2  # the opposite phase is not a fit

    def test_minus_phase_wins_across_quadruples(self, grid, tf_pow2):
        pool = [Gaussian(1.0), Gaussian(2.0), Hermite(1), Hermite(2),
                Modulate(Gaussian(1.0), 1.0)]
        rng = np.random.default_rng(5)
        for _ in range(10):
            f, g, p1, p2 = (catalog_eval(pool[i], grid)
                            for i in rng.integers(0, len(pool), 4))
            d = stft_product_transform_defect(f, g, p1, p2, tf_pow2)
            assert d["defect_minus"] < 1e-10
            assert d["defect_minus"] < d["defect_plus"]

    @pytest.mark.parametrize("zero_at", [0, 1], ids=["zero_f", "zero_g"])
    def test_zero_function_has_zero_defects(self, grid, tf_pow2, zero_at):
        # both sides vanish: each sign's defect is max|rhs - lhs| over 1
        fg = [catalog_eval(Hermite(1), grid), catalog_eval(Gaussian(1.0), grid)]
        fg[zero_at] = SampledFunction(grid, np.zeros(grid.count))
        p1 = catalog_eval(Gaussian(2.0), grid)
        p2 = catalog_eval(Gaussian(0.5), grid)
        d = stft_product_transform_defect(*fg, p1, p2, tf_pow2)
        assert d == {"defect_plus": 0.0, "defect_minus": 0.0}

    def test_rejects_undecayed_product(self, tf_pow2):
        g = build_grid(12.0, 10)
        wide = catalog_eval(Gaussian(0.001), g)
        sharp = catalog_eval(Gaussian(1.0), g)
        with pytest.raises(BoundaryMassError) as err:
            stft_product_transform_defect(wide, wide, sharp, sharp, tf_pow2)
        assert str(err.value) == ("STFT product has relative boundary mass "
                                  "2.58e-01; enlarge the time-frequency grid")


class TestContinuityProbe:
    def test_all_outputs_stay_in_class(self, grid, tf, unit_window):
        x = tf.xgrid.coords[:, None]
        xi = tf.xigrid.coords[None, :]
        a = TFR(tf, np.exp(-(x**2 + xi**2) / 2.0))
        idx = GSIndex(1.0, math.inf, "beurling")
        opts = ClassifyOptions(n_max=4, r_scale=0.5)
        testset = [catalog_eval(s, grid) for s in
                   (Gaussian(1.0), Gaussian(0.5), Hermite(1), Hermite(2),
                    Hermite(3))]
        rep = continuity_probe(a, unit_window, unit_window, testset, idx, opts)
        assert rep.all_member
        assert len(rep.entries) == 5
        for e in rep.entries:
            assert e.verdict_in == MEMBER
            assert e.verdict_out == MEMBER

    def test_a_window_passed_twice_is_admitted_once(self, monkeypatch, grid,
                                                     tf, unit_window):
        from gstf import classify
        admitted, real = [], classify._admit_window
        monkeypatch.setattr(classify, "_admit_window",
                            lambda w, *a: admitted.append(w) or real(w, *a))
        twin = SampledFunction(grid, unit_window.values)  # equal, another
        f = catalog_eval(Gaussian(1.0), grid)
        idx = GSIndex(1.0, math.inf, "beurling")
        for phi2, count in ((unit_window, 1), (twin, 2)):
            admitted.clear()
            continuity_probe(unit_symbol(tf), unit_window, phi2, [f], idx)
            assert len(admitted) == count
            assert admitted[0] is unit_window and admitted[-1] is phi2

    def test_rejects_window_outside_class(self, grid, tf, unit_window):
        # the words of the STFT verdicts' refusal, naming the window
        wide = catalog_eval(Gaussian(0.001), grid)
        f = catalog_eval(Gaussian(1.0), grid)
        idx = GSIndex(1.0, math.inf, "beurling")
        for phis, name in (((wide, unit_window), "phi1"),
                           ((unit_window, wide), "phi2")):
            with pytest.raises(GstfError) as err:
                continuity_probe(unit_symbol(tf), *phis, [f], idx,
                                 ClassifyOptions(n_max=4, r_scale=0.5))
            assert str(err.value) == (
                f"{name} is NotMember for the requested class; "
                "pick a window inside the class")

    def test_rejects_zero_window(self, grid, tf, unit_window):
        # 0 lies in every class, yet analyses and synthesises nothing
        zero = unit_window * 0.0
        f = catalog_eval(Gaussian(1.0), grid)
        idx = GSIndex(1.0, math.inf, "beurling")
        for phis, name in (((zero, unit_window), "phi1"),
                           ((unit_window, zero), "phi2")):
            with pytest.raises(GstfError) as err:
                continuity_probe(unit_symbol(tf), *phis, [f], idx)
            assert str(err.value) == f"{name} is zero on the grid"
