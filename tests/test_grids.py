import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gstf
from gstf import (TFR, Grid1D, GridError, SampledFunction, TFGrid,
                  build_grid, dft, idft)


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

    def test_dual_is_kept_on_the_grid(self):
        g = Grid1D(0.0, 0.37, 128)
        seen = (g, hash(g), repr(g), g._asdict())
        d = g.dual()
        assert g.dual() is d
        assert d == Grid1D(0.0, 2.0 * np.pi / (128 * 0.37), 128)
        # the kept dual is no field: ==, hash, repr and _asdict ignore it
        assert (Grid1D(0.0, 0.37, 128), hash(g), repr(g), g._asdict()) == seen
        f = SampledFunction(build_grid(12.0, 7), np.ones(128))
        assert dft(f).grid is f.grid.dual()
        assert idft(dft(f)).grid is f.grid.dual().dual()

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

    def test_weight_base_is_kept_and_read_only(self):
        g = build_grid(12.0, 6)
        base, top = g._reach
        assert g._reach[0] is base and top == np.abs(g.coords).max()
        assert np.array_equal(base, np.abs(g.coords) / top)
        assert not base.flags.writeable
        with pytest.raises(ValueError):
            base[0] = 0.0
        # kept outside the record fields, like coords and the dual
        same = build_grid(12.0, 6)
        assert g == same and hash(g) == hash(same) and repr(g) == repr(same)
        assert g._asdict() == {"center": 0.0, "step": g.step, "count": 64}

    def test_validation(self):
        with pytest.raises(GridError):
            Grid1D(0.0, 0.0, 8)
        with pytest.raises(GridError):
            Grid1D(0.0, -1.0, 8)
        with pytest.raises(GridError):
            Grid1D(0.0, 1.0, 1)
        with pytest.raises(GridError):
            Grid1D(np.inf, 1.0, 8)

    @pytest.mark.parametrize("count", [4.0, 4.5, "4", None])
    def test_rejects_a_count_that_is_not_an_integer(self, count):
        # a float count once built a grid that dft or catalog_eval then
        # failed on with an unrelated TypeError or GridError
        with pytest.raises(GridError, match="count must be an integer"):
            Grid1D(0.0, 1.0, count)

    def test_accepts_a_numpy_integer_count(self):
        assert Grid1D(0.0, 1.0, np.int64(4)) == Grid1D(0.0, 1.0, 4)

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

    def test_scalar_multiply(self):
        g = Grid1D(0.0, 1.0, 4)
        f = SampledFunction(g, np.ones(4))
        h = f * 0.5
        assert h.grid == g
        np.testing.assert_allclose(h.values, 0.5 * np.ones(4))
        np.testing.assert_allclose(f.values, np.ones(4))  # f is unchanged

    def test_values_are_read_only(self):
        f = SampledFunction(Grid1D(0.0, 1.0, 4), np.ones(4))
        with pytest.raises(ValueError):
            f.values[0] = 2.0
        with pytest.raises(ValueError):
            f.values *= 2.0

    def test_an_owning_complex_array_is_frozen_not_copied(self):
        # the carrier keeps the caller's array: it is not the caller's to
        # write any more
        for a, make in ((np.zeros(4, dtype=complex),
                         lambda a: SampledFunction(Grid1D(0.0, 1.0, 4), a)),
                        (np.zeros((2, 3), dtype=complex),
                         lambda a: TFR(TFGrid(Grid1D(0.0, 1.0, 2),
                                              Grid1D(0.0, 1.0, 3)), a))):
            assert make(a).values is a
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_a_view_is_copied(self):
        # writing through the view's base must not reach the samples
        base = np.zeros(8, dtype=complex)
        f = SampledFunction(Grid1D(0.0, 1.0, 4), base[::2])
        base[0] = 5.0
        assert f.values[0] == 0.0

    def test_memo_is_not_a_field(self):
        f = SampledFunction(Grid1D(0.0, 1.0, 4), np.ones(4))
        f._memoised("k", lambda: 1)
        assert list(f._fields) == ["grid", "values"]
        assert set(f._asdict()) == {"grid", "values"}
        assert repr(f) == ("SampledFunction(grid=Grid1D(center=0.0, step=1.0, "
                           "count=4))")

    def test_memo_computes_once_per_object(self):
        g = Grid1D(0.0, 1.0, 4)
        f, h = SampledFunction(g, np.ones(4)), SampledFunction(g, np.ones(4))
        calls = []
        for fn in (f, f, h):
            fn._memoised("k", lambda: calls.append(1) or len(calls))
        assert calls == [1, 1] and f._memoised("k", None) == 1

    def test_kept_holds_one_entry_per_name(self):
        g = Grid1D(0.0, 1.0, 4)
        f = SampledFunction(g, np.ones(4))
        a, b = SampledFunction(g, np.ones(4)), SampledFunction(g, np.ones(4))
        seen = []

        def make():  # the old entry is gone before make runs
            seen.append("k" in f._memo)
            return object()

        first = f._kept("k", (a, TFGrid(g, g)), make)
        # the same objects, and a TFGrid equal to the kept one, match
        assert f._kept("k", (a, TFGrid(g, g)), make) is first
        assert f._kept("k", (a, TFGrid(g, g))) is first
        other = f._kept("k", (b, TFGrid(g, g)), make)  # equal, not the same
        assert other is not first and f._kept("k", (a, TFGrid(g, g))) is None
        assert f._kept("k", (a, TFGrid(g, g)), make) is not first
        assert seen == [False, False, False] and list(f._memo) == ["k"]

    def test_kept_leaves_no_entry_when_make_raises(self):
        f = SampledFunction(Grid1D(0.0, 1.0, 4), np.ones(4))
        f._kept("k", (1,), lambda: 1)
        with pytest.raises(ZeroDivisionError):
            f._kept("k", (2,), lambda: 1 / 0)
        assert "k" not in f._memo


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


class TestArrayRecordEquality:
    """SampledFunction and TFR compare their values by np.array_equal and
    their grids by ==, and stay unhashable."""

    @staticmethod
    def make(cls, grid, vals):
        return cls(TFGrid(grid, grid) if cls is TFR else grid, vals)

    @pytest.mark.parametrize("cls, shape", [(SampledFunction, (4,)),
                                            (TFR, (4, 4))])
    def test_equality_of_distinct_value_arrays(self, cls, shape):
        g = Grid1D(0.0, 1.0, 4)
        a = self.make(cls, g, np.ones(shape))
        assert a == self.make(cls, g, np.ones(shape))
        assert not a != self.make(cls, g, np.ones(shape))
        bent = np.ones(shape)
        bent.flat[-1] = np.nextafter(1.0, 2.0)
        assert a != self.make(cls, g, bent)
        assert a != self.make(cls, Grid1D(0.0, 0.5, 4), np.ones(shape))
        assert a.__eq__(g) is NotImplemented
        assert a != g and g != a
        with pytest.raises(TypeError):
            hash(a)

    def test_other_class_of_the_same_fields_is_unequal(self):
        g = Grid1D(0.0, 1.0, 4)
        twin = type("Twin", (SampledFunction,), {})
        a, b = SampledFunction(g, np.ones(4)), twin(g, np.ones(4))
        assert a.__eq__(b) is NotImplemented and a != b


def test_only_grids_touches_a_carriers_memo():
    # the memo's layout is grids.py's: the other modules read and write it
    # through _memoised and _kept
    src = pathlib.Path(gstf.__file__).parent
    touched = [f"{path.name}:{node.lineno}"
               for path in sorted(src.glob("*.py")) if path.name != "grids.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "_memo"]
    assert touched == []
