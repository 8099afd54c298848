"""Recursive-descent parser for the expression grammar.

Grammar (one variable; `x` and `y` are interchangeable spellings of it):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := number | 'x' | 'y' | 'pi' | 'e' | ident '(' expr ')' | '(' expr ')'
    ident  ∈ {ln, exp, sin, cos, tan, sinh, cosh, abs, sqrt}

Precedence is therefore ^ (right-assoc, binding tighter than unary minus)
then unary minus, then * /, then + -; so "-x^2" is -(x^2) and "2^3^2" is
2^(3^2) = 512.  Numbers are decimals with an optional exponent part.
Syntax errors carry the byte offset of the offending input.

Parentheses, function calls, unary minus and the right operand of ``^``
each open one level of nesting, and input nested deeper than
``MAX_NESTING`` levels is a syntax error.  Sums and products are parsed by
loops, so a flat ``x+x+…+x`` has no length limit.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

from ._errors import ExprSyntaxError
from . import expr as E
from .expr import Expr

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)

_FUNCTIONS = {
    "ln": E.ln,
    "exp": E.exp,
    "sin": E.sin,
    "cos": E.cos,
    "tan": E.tan,
    "sinh": E.sinh,
    "cosh": E.cosh,
    "abs": E.absx,
    "sqrt": E.sqrt,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_VARIABLES = ("x", "y")

# Deepest nesting the parser accepts (see the module docstring).
MAX_NESTING = 100


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    byte_pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", byte_pos)
        kind = m.lastgroup
        raw = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, raw, byte_pos))
        pos = m.end()
        byte_pos += len(raw.encode("utf-8"))
    tokens.append(_Token("end", "", byte_pos))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.tok
        self.i += 1
        return t

    def expect_op(self, symbol: str):
        t = self.tok
        if t.kind != "op" or t.text != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}", t.offset)
        return self.advance()

    def at_op(self, *symbols: str) -> bool:
        t = self.tok
        return t.kind == "op" and t.text in symbols

    def nested(self, opener: _Token, parse_inner) -> Expr:
        """parse_inner() one level of nesting deeper; `opener` opens the level."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels", opener.offset)
        node = parse_inner()
        self.depth -= 1
        return node

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.at_op("+", "-"):
            op = self.advance().text
            rhs = self.parse_term()
            node = E.add(node, rhs) if op == "+" else E.sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.at_op("*", "/"):
            op = self.advance().text
            rhs = self.parse_factor()
            node = E.mul(node, rhs) if op == "*" else E.div(node, rhs)
        return node

    def parse_factor(self) -> Expr:
        if self.at_op("-"):
            return E.neg(self.nested(self.advance(), self.parse_factor))
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.at_op("^"):
            return E.powx(base, self.nested(self.advance(), self.parse_factor))
        return base

    def parse_atom(self) -> Expr:
        t = self.tok
        if t.kind == "number":
            self.advance()
            return E.const(float(t.text))
        if t.kind == "ident":
            self.advance()
            name = t.text
            if name in _VARIABLES:
                return E.var()
            if name in _CONSTANTS:
                return E.const(_CONSTANTS[name])
            if name in _FUNCTIONS:
                inner = self.nested(self.expect_op("("), self.parse_expr)
                self.expect_op(")")
                return _FUNCTIONS[name](inner)
            raise ExprSyntaxError(f"unknown identifier {name!r}", t.offset)
        if self.at_op("("):
            inner = self.nested(self.advance(), self.parse_expr)
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(
            f"expected a number, variable, function, or '(' but found {t.text!r}"
            if t.kind != "end"
            else "unexpected end of input",
            t.offset,
        )


@lru_cache(maxsize=128)
def parse(text: str) -> Expr:
    """Parse an expression string into an Expr tree.

    The same text gives the same tree, so the program and the derivative
    cached on its nodes are built once (the tree is immutable).
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    node = parser.parse_expr()
    if parser.tok.kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {parser.tok.text!r}", parser.tok.offset)
    return node
