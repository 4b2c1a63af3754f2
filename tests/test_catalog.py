import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite as np_hermite

from gstf import (Bump, Const, Diff, Gaussian, GstfError, Hermite, Modulate,
                  Poly, Product, Scale, SubExp, Sum, Translate, build_grid,
                  catalog_eval, hermite_poly, parse_function_expr)

X = np.linspace(-6.0, 6.0, 241)


class TestPrimitives:
    def test_gaussian_oracle(self):
        np.testing.assert_allclose(Gaussian(2.0)._eval(X), np.exp(-(X**2)),
                                   rtol=1e-15)

    def test_gaussian_rejects_nonpositive_width(self):
        with pytest.raises(GstfError):
            Gaussian(0.0)
        with pytest.raises(GstfError):
            Gaussian(-1.0)

    @pytest.mark.parametrize("k", range(8))
    def test_hermite_poly_matches_numpy(self, k):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        np.testing.assert_allclose(hermite_poly(k, X),
                                   np_hermite.hermval(X, coeffs),
                                   rtol=1e-12, atol=1e-9)

    def test_hermite_poly_stops_once_no_sample_is_finite(self):
        # the full recurrence accepts and rejects the same orders, with the
        # same samples; both grids pass through 0
        def full(k, x):
            h_prev, h = np.ones_like(x), 2.0 * x
            for m in range(1, k):
                h, h_prev = 2.0 * x * h - 2.0 * m * h_prev, h
            return h_prev if k == 0 else h

        grids = (X, np.linspace(-60.0, 60.0, 241))
        with np.errstate(all="ignore"):
            for x in grids:
                for k in (0, 1, 2, 150, 151, 300, 301, 700):
                    got, want = hermite_poly(k, x), full(k, x)
                    if np.isfinite(want).all():
                        assert np.array_equal(got, want), k
                    else:
                        assert not np.isfinite(got).all(), k
            assert not np.isfinite(hermite_poly(10**308, X)).any()

    def test_hermite_function(self):
        f = Hermite(2)._eval(X)
        np.testing.assert_allclose(
            f, (4 * X**2 - 2) * np.exp(-0.5 * X**2), rtol=1e-13, atol=1e-15)

    def test_hermite_rejects_bad_order(self):
        with pytest.raises(GstfError):
            Hermite(-1)
        with pytest.raises(GstfError):
            Hermite(1.5)

    @pytest.mark.parametrize("node, arg", [
        (Hermite, True), (Hermite, -1), (Hermite, 1.5), (Poly, -1),
        (Poly, False), (Poly, 2.0)])
    def test_int_argument_is_a_non_negative_integer(self, node, arg):
        # a bool is refused too, though Python counts it an int
        with pytest.raises(GstfError) as err:
            node(arg)
        assert str(err.value) == (f"{node.call}: k must be a non-negative "
                                  "integer")

    @pytest.mark.parametrize("make, message", [
        (lambda: Gaussian(0), "gaussian: a must be positive"),
        (lambda: Gaussian(-1.0), "gaussian: a must be positive"),
        (lambda: SubExp(0.0, 1.0), "subexp: s must be positive"),
        (lambda: parse_function_expr("gaussian(0)"),
         "gaussian: a must be positive")])
    def test_positive_argument_is_checked_by_its_kind(self, make, message):
        with pytest.raises(GstfError) as err:
            make()
        assert str(err.value) == message

    def test_positive_argument_parses_to_the_constructed_spec(self):
        parsed, built = parse_function_expr("gaussian(2)"), Gaussian(2.0)
        assert parsed == built and hash(parsed) == hash(built)
        for spec in (parsed, built):
            assert repr(spec) == "Gaussian(a=2.0)"
            assert str(spec) == "gaussian(2.0)"
            assert type(spec.a) is float

    def test_int_argument_takes_numpy_integers(self):
        assert Poly(np.int64(2)) == Poly(2)
        assert Hermite(np.uint8(0)) == Hermite(0)

    def test_bump_support(self):
        v = Bump()._eval(X)
        inside = np.abs(X) < 1.0
        assert np.all(v[~inside] == 0.0)
        assert np.all(v[inside].real > 0.0)
        assert Bump()._eval(np.array([0.0]))[0] == pytest.approx(np.exp(-1.0))

    def test_subexp_oracle(self):
        np.testing.assert_allclose(
            SubExp(0.5, 3.0)._eval(X), np.exp(-3.0 * np.abs(X) ** 2),
            rtol=1e-14)
        with pytest.raises(GstfError):
            SubExp(0.0, 1.0)

    def test_poly_oracle(self):
        np.testing.assert_allclose(Poly(3)._eval(X), X**3)
        assert np.all(Poly(0)._eval(X) == 1.0)


class TestCombinators:
    def test_translate(self):
        f = Translate(Gaussian(1.0), 2.0)
        np.testing.assert_allclose(f._eval(X), np.exp(-0.5 * (X - 2.0) ** 2))

    def test_modulate(self):
        f = Modulate(Gaussian(1.0), 3.0)
        np.testing.assert_allclose(
            f._eval(X), np.exp(3j * X) * np.exp(-0.5 * X**2), rtol=1e-14)

    def test_scale_sum_diff_product(self):
        g, h = Gaussian(1.0), Hermite(1)
        np.testing.assert_allclose(Scale(g, -2.0)._eval(X), -2.0 * g._eval(X))
        np.testing.assert_allclose(Sum(g, h)._eval(X),
                                   g._eval(X) + h._eval(X))
        np.testing.assert_allclose(Diff(g, h)._eval(X),
                                   g._eval(X) - h._eval(X))
        np.testing.assert_allclose(Product(g, h)._eval(X),
                                   g._eval(X) * h._eval(X))

    def test_nonfinite_parameters_rejected(self):
        with pytest.raises(GstfError):
            Translate(Gaussian(1.0), np.nan)
        with pytest.raises(GstfError):
            Modulate(Gaussian(1.0), np.inf)
        with pytest.raises(GstfError):
            Const(np.nan)


class TestEvaluation:
    def test_catalog_eval_deterministic(self):
        g = build_grid(8.0, 8)
        spec = Sum(Modulate(Gaussian(0.5), 2.0), Scale(Hermite(3), 0.1))
        a = catalog_eval(spec, g).values
        b = catalog_eval(spec, g).values
        assert np.array_equal(a, b)

    def test_catalog_eval_rejects_non_spec(self):
        with pytest.raises(GstfError):
            catalog_eval(lambda x: x, build_grid(1.0, 2))


def spec_strategy():
    num = st.floats(-8.0, 8.0).map(lambda v: round(v, 3))
    pos = st.floats(0.05, 8.0).map(lambda v: round(v, 3))
    leaves = st.one_of(
        pos.map(Gaussian),
        st.integers(0, 6).map(Hermite),
        st.just(Bump()),
        st.tuples(pos, num).map(lambda t: SubExp(*t)),
        st.integers(0, 5).map(Poly),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, num).map(lambda t: Translate(*t)),
            st.tuples(children, num).map(lambda t: Modulate(*t)),
            st.tuples(children, num).map(lambda t: Scale(*t)),
            st.tuples(children, children).map(lambda t: Sum(*t)),
            st.tuples(children, children).map(lambda t: Diff(*t)),
            st.tuples(children, children).map(lambda t: Product(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=8)


class TestPrettyPrintRoundTrip:
    @given(spec=spec_strategy())
    @settings(max_examples=200, deadline=None)
    def test_parse_of_str_is_identity(self, spec):
        assert parse_function_expr(str(spec)) == spec

    def test_right_nested_sums_keep_shape(self):
        spec = Sum(Gaussian(1.0), Diff(Hermite(1), Bump()))
        assert str(spec) == "gaussian(1.0) + (hermite(1) - bump())"
        assert parse_function_expr(str(spec)) == spec

    def test_right_nested_product_keeps_shape(self):
        spec = Product(Poly(2), Product(Gaussian(1.0), Hermite(1)))
        assert parse_function_expr(str(spec)) == spec
