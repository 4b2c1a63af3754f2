import numpy as np
import pytest

from gstf import (ArityMismatch, Bump, Const, Diff, Gaussian, Hermite,
                  LexicalError, Modulate, ParseError, Poly, Product, Scale,
                  SubExp, Sum, Translate, UnbalancedParen, UnknownIdentifier,
                  build_grid, catalog_eval, parse_function_expr, tokenize)
from gstf.parse import MAX_DEPTH, MAX_EXPR_LEN

G = Gaussian(1.0)

VALID = [
    # primitives
    ("gaussian(1)", G),
    ("gaussian(0.5)", Gaussian(0.5)),
    ("gaussian(2.5e-1)", Gaussian(0.25)),
    ("gaussian(1e0)", G),
    ("hermite(0)", Hermite(0)),
    ("hermite(3)", Hermite(3)),
    ("bump()", Bump()),
    ("subexp(1, 2)", SubExp(1.0, 2.0)),
    ("subexp(0.5,3.5)", SubExp(0.5, 3.5)),
    ("poly(0)", Poly(0)),
    ("poly(4)", Poly(4)),
    ("3.5", Const(3.5)),
    # whitespace tolerance
    ("  gaussian( 1 )  ", G),
    ("subexp( 1 , 2 )", SubExp(1.0, 2.0)),
    # wrappers
    ("translate(gaussian(1), 1.5)", Translate(G, 1.5)),
    ("translate(gaussian(1), -2)", Translate(G, -2.0)),
    ("modulate(gaussian(1), 3)", Modulate(G, 3.0)),
    ("modulate(bump(), -0.5)", Modulate(Bump(), -0.5)),
    ("scale(hermite(1), 0.25)", Scale(Hermite(1), 0.25)),
    ("scale(gaussian(1), -1)", Scale(G, -1.0)),
    ("translate(modulate(gaussian(1), 2), 1.5)",
     Translate(Modulate(G, 2.0), 1.5)),
    # arithmetic and precedence
    ("gaussian(1) + hermite(1)", Sum(G, Hermite(1))),
    ("gaussian(1) - hermite(1)", Diff(G, Hermite(1))),
    ("poly(2) * gaussian(1)", Product(Poly(2), G)),
    ("poly(2) * gaussian(1) + bump()", Sum(Product(Poly(2), G), Bump())),
    ("bump() + poly(2) * gaussian(1)", Sum(Bump(), Product(Poly(2), G))),
    ("gaussian(1) + hermite(1) - bump()", Diff(Sum(G, Hermite(1)), Bump())),
    ("poly(1) * poly(2) * gaussian(1)",
     Product(Product(Poly(1), Poly(2)), G)),
    # parentheses regroup
    ("(gaussian(1) + hermite(1)) * bump()",
     Product(Sum(G, Hermite(1)), Bump())),
    ("gaussian(1) - (hermite(1) - bump())",
     Diff(G, Diff(Hermite(1), Bump()))),
    ("((bump()))", Bump()),
    # unary minus
    ("-gaussian(1)", Scale(G, -1.0)),
    ("-gaussian(1) + bump()", Sum(Scale(G, -1.0), Bump())),
    ("translate(gaussian(1), -1.5e1)", Translate(G, -15.0)),
    ("--2", Const(2.0)),
]

# (text, expected error class, expected byte offset)
INVALID = [
    ("", ParseError, 0),
    ("   ", ParseError, 0),
    ("gauss(1)", UnknownIdentifier, 0),
    ("bump() + spike(2)", UnknownIdentifier, 9),
    ("gaussian(1) @ bump()", LexicalError, 12),
    ("gaussian(1) + #", LexicalError, 14),
    ("gaussian(1", UnbalancedParen, 10),
    ("gaussian 1)", UnbalancedParen, 9),
    ("gaussian(1))", UnbalancedParen, 11),
    ("(gaussian(1)", UnbalancedParen, 12),
    ("translate(gaussian(1), 1.5", UnbalancedParen, 26),
    ("gaussian()", ArityMismatch, 0),
    ("gaussian(1, 2)", ArityMismatch, 0),
    ("bump(1)", ArityMismatch, 0),
    ("hermite(1.5)", ArityMismatch, 0),
    ("hermite(bump())", ArityMismatch, 0),
    ("translate(1.5, gaussian(1))", ArityMismatch, 0),
    ("subexp(1)", ArityMismatch, 0),
    ("gaussian(1) + ", ParseError, 14),
    ("* gaussian(1)", ParseError, 0),
    ("gaussian(1) bump()", ParseError, 12),
    ("gaussian(1e999)", ParseError, 9),     # the literal overflows
    ("-1e999", ParseError, 1),
]


class TestValidCorpus:
    @pytest.mark.parametrize("text,expected", VALID, ids=[t for t, _ in VALID])
    def test_expected_ast(self, text, expected):
        assert parse_function_expr(text) == expected

    @pytest.mark.parametrize("text,expected", VALID, ids=[t for t, _ in VALID])
    def test_round_trips_through_pretty_print(self, text, expected):
        # the canonical text form is str(spec)
        assert parse_function_expr(str(expected)) == expected


class TestInvalidCorpus:
    @pytest.mark.parametrize("text,err,offset", INVALID,
                             ids=[t or "<empty>" for t, _, _ in INVALID])
    def test_expected_error_kind_and_offset(self, text, err, offset):
        with pytest.raises(err) as exc:
            parse_function_expr(text)
        assert exc.value.offset == offset
        assert isinstance(exc.value, ParseError)  # common base

    def test_length_cap(self):
        text = "bump()" + " + bump()" * (MAX_EXPR_LEN // 9 + 1)
        with pytest.raises(ParseError) as exc:
            parse_function_expr(text)
        assert exc.value.offset == MAX_EXPR_LEN


class TestTokenizer:
    def test_offsets_are_byte_positions(self):
        toks = tokenize("gaussian( 1.5 ) + x")
        assert [(t.kind, t.offset) for t in toks] == [
            ("ident", 0), ("(", 8), ("number", 10), (")", 14), ("+", 16),
            ("ident", 18)]

    def test_scientific_notation_is_one_token(self):
        toks = tokenize("2.5e-3")
        assert len(toks) == 1 and toks[0].kind == "number"


def nested_parens(n):
    return "(" * n + "bump()" + ")" * n


def minus_chain(n):
    return "-" * n + "bump()"


def nested_scales(n):
    return "scale(" * n + "bump()" + ", 1)" * n


def flat_sum(n):
    return " + ".join(["bump()"] * n)


def flat_product(n):
    return " * ".join(["bump()"] * n)


# Each nesting shape with its size at the depth limit, and the offset of
# the first token past the limit in the shape one size larger.
DEPTH_SHAPES = {
    "parentheses": (nested_parens, MAX_DEPTH, MAX_DEPTH + 1),
    "unary_minus": (minus_chain, MAX_DEPTH, MAX_DEPTH + 1),
    "scale_calls": (nested_scales, MAX_DEPTH, 6 * (MAX_DEPTH + 1)),
    # n terms lie inside n - 1 operators; the offset is the last '+'
    "flat_sum": (flat_sum, MAX_DEPTH + 1, 9 * (MAX_DEPTH + 1) - 2),
    "flat_product": (flat_product, MAX_DEPTH + 1, 9 * (MAX_DEPTH + 1) - 2),
}


class TestDepthLimit:
    """Expressions at MAX_DEPTH work in every stage; one level deeper is a
    ParseError at the first token past the limit, not a RecursionError."""

    @pytest.mark.parametrize("shape", sorted(DEPTH_SHAPES))
    def test_at_the_limit(self, shape):
        make, size, _ = DEPTH_SHAPES[shape]
        spec = parse_function_expr(make(size))
        text = str(spec)
        again = parse_function_expr(text)
        assert again == spec and hash(again) == hash(spec)
        assert repr(again) == repr(spec)
        values = catalog_eval(spec, build_grid(2.0, 5)).values
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("shape", sorted(DEPTH_SHAPES))
    def test_one_level_past_the_limit(self, shape):
        make, size, offset = DEPTH_SHAPES[shape]
        text = make(size + 1)
        assert len(text) <= MAX_EXPR_LEN
        with pytest.raises(ParseError) as exc:
            parse_function_expr(text)
        assert type(exc.value) is ParseError
        assert exc.value.offset == offset
        assert "deeper than" in str(exc.value)

    def test_sign_of_a_number_adds_no_level(self):
        # the printed form of a unary-minus chain nests scale(..., -1.0)
        spec = parse_function_expr(minus_chain(MAX_DEPTH))
        assert str(spec).count("-1.0") == MAX_DEPTH
        assert parse_function_expr(str(spec)) == spec

    def test_number_in_an_argument_list_is_one_level_deeper(self):
        parse_function_expr("(" * (MAX_DEPTH - 1) + "gaussian(1)"
                            + ")" * (MAX_DEPTH - 1))
        with pytest.raises(ParseError):
            parse_function_expr("(" * MAX_DEPTH + "gaussian(1)"
                                + ")" * MAX_DEPTH)
