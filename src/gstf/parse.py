"""Precedence-climbing parser for function expressions.

Grammar ('*' binds tighter than '+' and '-'; all are left-associative):

    expr   := factor (op factor)*     op is '+', '-' or '*', read by expr(prec)
    factor := '-' factor | number | call | '(' expr ')'
    call   := ident '(' (expr (',' expr)*)? ')'

The call names, argument kinds and operator precedences are the
declarations of the node classes in gstf.catalog.  Every error carries
the byte offset where it was detected.  Unary minus is accepted in factor
position (negated numbers become negative constants, anything else is
wrapped in scale(..., -1)).

Limits: MAX_EXPR_LEN characters, and MAX_DEPTH levels of parentheses,
unary minuses, argument lists and infix operators around any number or
call (a minus sign directly before a number is part of it, and a + b + c
is (a + b) + c).  Past one, ParseError at the first token past it.
"""

from __future__ import annotations

import math
import re

from .catalog import Const, FunctionSpec, Infix, Scale
from .errors import (ArityMismatch, LexicalError, ParseError, UnbalancedParen,
                     UnknownIdentifier)

__all__ = ["parse_function_expr"]

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>[()+\-*,])
""", re.VERBOSE)

MAX_EXPR_LEN = 4096
MAX_DEPTH = 100


def _lex(text: str) -> list:
    """The tokens of ``text`` as (kind, text, offset) tuples, kind being
    "number", "ident" or the symbol itself."""
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LexicalError(f"unexpected character {text[pos]!r}", offset=pos)
        if m.lastgroup != "ws":
            kind = m.group() if m.lastgroup == "sym" else m.lastgroup
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


def _convert(kind, node, name: str, offset: int):
    """Argument ``node`` of call ``name`` as a value of its field's kind."""
    if kind is FunctionSpec:
        if isinstance(node, Const):
            raise ArityMismatch(f"{name} expects a function as its first "
                                "argument", offset=offset)
        return node
    if not isinstance(node, Const):
        raise ArityMismatch(f"{name} expects a numeric argument", offset=offset)
    if kind is int and node.value != int(node.value):
        raise ArityMismatch(f"{name} expects an integer argument", offset=offset)
    return kind(node.value)


_CALLS = {node.call: node for node in FunctionSpec.__subclasses__()
          if node.call}
_INFIX = {node.op: node for node in Infix.__subclasses__()}


def _build_call(name: str, args: list, offset: int) -> FunctionSpec:
    node = _CALLS.get(name)
    if node is None:
        raise UnknownIdentifier(f"unknown function {name!r}", offset=offset)
    kinds = list(node._fields.values())
    if len(args) != len(kinds):
        raise ArityMismatch(f"{name} takes {len(kinds)} argument(s), "
                            f"got {len(args)}", offset=offset)
    return node(*(_convert(kind, arg, name, offset)
                  for kind, arg in zip(kinds, args)))


class _Parser:
    def __init__(self, text: str):
        # (kind, text, offset) of each token, then ("", "", len(text))
        self.tokens = [*_lex(text), ("", "", len(text))]
        self.i = 0

    def peek(self) -> tuple:
        return self.tokens[self.i]

    def advance(self) -> tuple:
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, kind: str) -> tuple:
        tok = self.peek()
        if tok[0] != kind:
            if kind in ("(", ")"):
                raise UnbalancedParen(f"expected {kind!r}", offset=tok[2])
            raise ParseError(f"expected {kind!r}", offset=tok[2])
        return self.advance()

    def limit(self, level: int, tok: tuple) -> int:
        if level > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} "
                             "levels", offset=tok[2])
        return level

    def parse(self) -> FunctionSpec:
        node, _ = self.expr(0)
        tok = self.peek()
        if tok[0]:
            if tok[0] == ")":
                raise UnbalancedParen("unmatched ')'", offset=tok[2])
            raise ParseError(f"unexpected {tok[1]!r}", offset=tok[2])
        return node

    # expr, factor and call parse at nesting ``depth`` and return the node
    # and its ``level``, the depth of its deepest number or call.

    def expr(self, depth: int, prec: int = 0) -> tuple:
        node, level = self.factor(depth)
        while (tok := self.peek())[0] in _INFIX and _INFIX[tok[0]].prec > prec:
            op = _INFIX[self.advance()[0]]
            right, right_level = self.expr(depth, op.prec)
            level = self.limit(max(level, right_level) + 1, tok)
            node = op(node, right)
        return node, level

    def factor(self, depth: int) -> tuple:
        kind, text, offset = tok = self.peek()
        if not kind:
            raise ParseError("unexpected end of expression", offset=offset)
        self.limit(depth, tok)
        if kind == "-":
            self.advance()
            sign = self.peek()[0] == "number"
            inner, level = self.factor(depth if sign else depth + 1)
            if isinstance(inner, Const):
                return Const(-inner.value), level
            return Scale(inner, -1.0), level
        if kind == "number":
            self.advance()
            value = float(text)
            if math.isinf(value):
                raise ParseError(f"number {text} overflows", offset=offset)
            return Const(value), depth
        if kind == "ident":
            return self.call(depth)
        if kind == "(":
            self.advance()
            node = self.expr(depth + 1)
            self.expect(")")
            return node
        raise ParseError(f"unexpected {text!r}", offset=offset)

    def call(self, depth: int) -> tuple:
        _, name, offset = self.advance()
        self.expect("(")
        args = []
        if self.peek()[0] not in ("", ")"):
            args.append(self.expr(depth + 1))
            while self.peek()[0] == ",":
                self.advance()
                args.append(self.expr(depth + 1))
        self.expect(")")
        node = _build_call(name, [arg for arg, _ in args], offset)
        return node, max((level for _, level in args), default=depth)


def parse_function_expr(text: str) -> FunctionSpec:
    """Parse a function expression into a FunctionSpec tree."""
    if not text or not text.strip():
        raise ParseError("empty expression", offset=0)
    if len(text) > MAX_EXPR_LEN:
        raise ParseError(f"expression longer than {MAX_EXPR_LEN} characters",
                         offset=MAX_EXPR_LEN)
    return _Parser(text).parse()
