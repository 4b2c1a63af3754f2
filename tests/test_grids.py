from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstf import (TFR, Grid1D, GridError, SampledFunction, TFGrid,
                  build_grid)


class TestGrid1D:
    def test_coords_are_symmetric_about_center(self):
        g = Grid1D(1.5, 0.25, 33)
        c = g.coords
        assert c.shape == (33,)
        np.testing.assert_allclose(c + c[::-1], 2 * 1.5 * np.ones(33), atol=1e-15)
        assert c[16] == 1.5  # odd count: center is a sample

    def test_even_count_straddles_center(self):
        g = Grid1D(0.0, 1.0, 4)
        np.testing.assert_allclose(g.coords, [-1.5, -0.5, 0.5, 1.5])

    def test_span(self):
        g = Grid1D(0.0, 0.5, 9)
        assert (g.coords[0], g.coords[-1]) == (-2.0, 2.0)

    def test_dual_step_matches_fft_bin_width(self):
        g = Grid1D(0.0, 0.1, 64)
        d = g.dual()
        assert d.count == g.count
        assert d.center == 0.0
        assert d.step == pytest.approx(2 * np.pi / (64 * 0.1))

    def test_dual_is_involutive_on_step(self):
        g = Grid1D(0.0, 0.37, 128)
        dd = g.dual().dual()
        assert dd.step == pytest.approx(g.step)
        assert dd.count == g.count

    def test_coords_are_computed_once_and_read_only(self):
        g = Grid1D(0.0, 0.25, 16)
        assert g.coords is g.coords
        with pytest.raises(ValueError):
            g.coords[0] = 1.0
        assert g == Grid1D(0.0, 0.25, 16) and "coords" not in repr(g)

    def test_shift_index(self):
        g = Grid1D(0.0, 0.25, 16)
        assert g.shift_index(0.75) == 3
        assert g.shift_index(-1.0) == -4
        with pytest.raises(GridError):
            g.shift_index(0.3)

    def test_shift_index_of_an_array(self):
        g = Grid1D(0.0, 0.25, 16)
        k = g.shift_index(np.array([0.75, -1.0, 0.0]))
        assert k.dtype == np.intp and k.tolist() == [3, -4, 0]
        assert type(g.shift_index(0.75)) is int
        # the message names the first off-step entry, as for a scalar
        with pytest.raises(GridError) as want:
            g.shift_index(0.3)
        with pytest.raises(GridError) as got:
            g.shift_index(np.array([0.5, 0.3, 0.7]))
        assert str(got.value) == str(want.value)

    def test_validation(self):
        with pytest.raises(GridError):
            Grid1D(0.0, 0.0, 8)
        with pytest.raises(GridError):
            Grid1D(0.0, -1.0, 8)
        with pytest.raises(GridError):
            Grid1D(0.0, 1.0, 1)
        with pytest.raises(GridError):
            Grid1D(np.inf, 1.0, 8)

    @given(step=st.floats(1e-6, 1e3), count=st.integers(2, 4096),
           center=st.floats(-1e3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_coords_uniform(self, step, count, center):
        g = Grid1D(center, step, count)
        diffs = np.diff(g.coords)
        np.testing.assert_allclose(diffs, step, rtol=1e-6)


class TestBuildGrid:
    def test_endpoints_and_count(self):
        g = build_grid(12.0, 10)
        assert g.count == 1024
        assert g.coords[0] == pytest.approx(-12.0)
        assert g.coords[-1] == pytest.approx(12.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(GridError):
            build_grid(-1.0, 8)
        with pytest.raises(GridError):
            build_grid(1.0, 0)
        with pytest.raises(GridError):
            build_grid(1.0, 25)


class TestSampledFunction:
    def test_shape_check(self):
        g = Grid1D(0.0, 1.0, 4)
        with pytest.raises(GridError):
            SampledFunction(g, np.zeros(5))

    def test_rejects_non_finite(self):
        g = Grid1D(0.0, 1.0, 4)
        with pytest.raises(GridError):
            SampledFunction(g, np.array([0.0, np.nan, 0.0, 0.0]))

    def test_norm2_oracle_gaussian(self):
        # integral of exp(-x^2) is sqrt(pi), so ||exp(-x^2/2)||_2 = pi^(1/4)
        g = build_grid(12.0, 12)
        f = SampledFunction(g, np.exp(-0.5 * g.coords**2))
        assert f.norm2() == pytest.approx(np.pi**0.25, rel=1e-12)

    def test_add_and_scalar_multiply(self):
        g = Grid1D(0.0, 1.0, 4)
        f = SampledFunction(g, np.ones(4))
        h = f + f * 2.0
        np.testing.assert_allclose(h.values, 3.0 * np.ones(4))
        np.testing.assert_allclose((0.5 * f).values, 0.5 * np.ones(4))

    def test_add_requires_same_grid(self):
        f = SampledFunction(Grid1D(0.0, 1.0, 4), np.ones(4))
        h = SampledFunction(Grid1D(0.0, 2.0, 4), np.ones(4))
        with pytest.raises(GridError):
            f + h

    def test_values_are_read_only(self):
        f = SampledFunction(Grid1D(0.0, 1.0, 4), np.ones(4))
        with pytest.raises(ValueError):
            f.values[0] = 2.0
        with pytest.raises(ValueError):
            f.values *= 2.0

    def test_a_view_is_copied(self):
        # writing through the view's base must not reach the samples
        base = np.zeros(8, dtype=complex)
        f = SampledFunction(Grid1D(0.0, 1.0, 4), base[::2])
        base[0] = 5.0
        assert f.values[0] == 0.0

    def test_memo_is_not_a_field(self):
        f = SampledFunction(Grid1D(0.0, 1.0, 4), np.ones(4))
        f._memoised("k", lambda: 1)
        assert [fl.name for fl in fields(f)] == ["grid", "values"]
        assert set(asdict(f)) == {"grid", "values"}
        assert repr(f) == ("SampledFunction(grid=Grid1D(center=0.0, step=1.0, "
                           "count=4))")

    def test_memo_computes_once_per_object(self):
        g = Grid1D(0.0, 1.0, 4)
        f, h = SampledFunction(g, np.ones(4)), SampledFunction(g, np.ones(4))
        calls = []
        for fn in (f, f, h):
            fn._memoised("k", lambda: calls.append(1) or len(calls))
        assert calls == [1, 1] and f._memoised("k", None) == 1


class TestTFR:
    def test_values_are_read_only(self):
        g = Grid1D(0.0, 1.0, 3)
        v = TFR(TFGrid(g, g), np.ones((3, 3)))
        with pytest.raises(ValueError):
            v.values[1, 1] = 0.0

    def test_max_profiles(self):
        g = Grid1D(0.0, 1.0, 3)
        vals = np.array([[1, -4j, 0], [2, 0, 0], [0, 0, 3]])
        v = TFR(TFGrid(g, g), vals)
        px, pxi = v.max_profiles()
        assert px.values.tolist() == [4, 2, 3]
        assert pxi.values.tolist() == [2, 4, 3]
        assert v.max_profiles()[0] is px
