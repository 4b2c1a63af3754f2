"""Recursive-descent parser for function expressions.

Grammar (standard precedence, '*' binds tighter, left-associative):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | number | call | '(' expr ')'
    call   := ident '(' (arg (',' arg)*)? ')'
    arg    := expr

Every error carries the byte offset where it was detected.  Unary minus
is accepted in factor position (negated numbers become negative
constants, anything else is wrapped in scale(..., -1)).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .catalog import (Bump, Const, Diff, FunctionSpec, Gaussian, Hermite,
                      Modulate, Poly, Product, Scale, SubExp, Sum, Translate)
from .errors import (ArityMismatch, LexicalError, ParseError, UnbalancedParen,
                     UnknownIdentifier)

__all__ = ["Token", "tokenize", "parse_function_expr", "pretty_print"]

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>[()+\-*,])
""", re.VERBOSE)

MAX_EXPR_LEN = 4096


@dataclass(frozen=True)
class Token:
    kind: str  # "number", "ident", or the symbol itself
    text: str
    offset: int


def tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LexicalError(f"unexpected character {text[pos]!r}", offset=pos)
        if m.lastgroup == "number":
            tokens.append(Token("number", m.group(), pos))
        elif m.lastgroup == "ident":
            tokens.append(Token("ident", m.group(), pos))
        elif m.lastgroup == "sym":
            tokens.append(Token(m.group(), m.group(), pos))
        pos = m.end()
    return tokens


def _as_number(node, name: str, offset: int) -> float:
    if isinstance(node, Const):
        return node.value
    raise ArityMismatch(f"{name} expects a numeric argument", offset=offset)


def _as_int(node, name: str, offset: int) -> int:
    v = _as_number(node, name, offset)
    if v != int(v):
        raise ArityMismatch(f"{name} expects an integer argument", offset=offset)
    return int(v)


def _as_spec(node, name: str, offset: int) -> FunctionSpec:
    if isinstance(node, Const):
        raise ArityMismatch(
            f"{name} expects a function as its first argument", offset=offset)
    return node


# name -> (node class, converter of each argument)
_CALLS = {
    "gaussian": (Gaussian, (_as_number,)),
    "hermite": (Hermite, (_as_int,)),
    "bump": (Bump, ()),
    "subexp": (SubExp, (_as_number, _as_number)),
    "poly": (Poly, (_as_int,)),
    "translate": (Translate, (_as_spec, _as_number)),
    "modulate": (Modulate, (_as_spec, _as_number)),
    "scale": (Scale, (_as_spec, _as_number)),
}


def _build_call(name: str, args: list, offset: int) -> FunctionSpec:
    if name not in _CALLS:
        raise UnknownIdentifier(f"unknown function {name!r}", offset=offset)
    node, converters = _CALLS[name]
    if len(args) != len(converters):
        raise ArityMismatch(f"{name} takes {len(converters)} argument(s), "
                            f"got {len(args)}", offset=offset)
    return node(*(conv(arg, name, offset)
                  for conv, arg in zip(converters, args)))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            offset = tok.offset if tok else len(self.text)
            if kind in ("(", ")"):
                raise UnbalancedParen(f"expected {kind!r}", offset=offset)
            raise ParseError(f"expected {kind!r}", offset=offset)
        return self.advance()

    def parse(self) -> FunctionSpec:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            if tok.kind == ")":
                raise UnbalancedParen("unmatched ')'", offset=tok.offset)
            raise ParseError(f"unexpected {tok.text!r}", offset=tok.offset)
        return node

    def expr(self) -> FunctionSpec:
        node = self.term()
        while (tok := self.peek()) is not None and tok.kind in ("+", "-"):
            self.advance()
            right = self.term()
            node = Sum(node, right) if tok.kind == "+" else Diff(node, right)
        return node

    def term(self) -> FunctionSpec:
        node = self.factor()
        while (tok := self.peek()) is not None and tok.kind == "*":
            self.advance()
            node = Product(node, self.factor())
        return node

    def factor(self) -> FunctionSpec:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression",
                             offset=len(self.text))
        if tok.kind == "-":
            self.advance()
            inner = self.factor()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Scale(inner, -1.0)
        if tok.kind == "number":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "ident":
            return self.call()
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected {tok.text!r}", offset=tok.offset)

    def call(self) -> FunctionSpec:
        name_tok = self.advance()
        self.expect("(")
        args = []
        tok = self.peek()
        if tok is not None and tok.kind != ")":
            args.append(self.expr())
            while (tok := self.peek()) is not None and tok.kind == ",":
                self.advance()
                args.append(self.expr())
        self.expect(")")
        return _build_call(name_tok.text, args, name_tok.offset)


def parse_function_expr(text: str) -> FunctionSpec:
    """Parse a function expression into a FunctionSpec tree."""
    if not text or not text.strip():
        raise ParseError("empty expression", offset=0)
    if len(text) > MAX_EXPR_LEN:
        raise ParseError(f"expression longer than {MAX_EXPR_LEN} characters",
                         offset=MAX_EXPR_LEN)
    return _Parser(text).parse()


def pretty_print(spec: FunctionSpec) -> str:
    """Canonical text form; parse_function_expr(pretty_print(s)) == s."""
    return str(spec)
