"""Parser of the text form of Laurent polynomials, for writing test inputs.

Grammar (whitespace insensitive):

    expr   := ['-'] term (('+' | '-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := ident ('^' int)?
    coeff  := rational            e.g. 3, 1/2

parse(render(p)) == p for every polynomial p.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from heckekit.algebra import GaussRules, LaurentPoly

class ParseError(ValueError):
    """Syntax error with the offending offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class _Tokens:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        pos = self.pos
        while pos < len(self.src) and self.src[pos].isspace():
            pos += 1
        if pos >= len(self.src):
            return ("end", "", pos)
        ch = self.src[pos]
        if ch.isdigit():
            m = re.match(r"\d+(?:/\d+)?", self.src[pos:])
            return ("rational", m.group(0), pos)
        if ch.isalpha():
            m = re.match(r"[A-Za-z][A-Za-z0-9_]*", self.src[pos:])
            return ("ident", m.group(0), pos)
        if ch in "+-*^":
            return ("op", ch, pos)
        raise ParseError(f"unexpected character {ch!r}", pos)

    def next(self) -> tuple[str, str, int]:
        kind, text, pos = self.peek()
        self.pos = pos + len(text)
        return kind, text, pos


def parse_poly(
    src: str,
    symbols: Iterable[str] | None = None,
    rules: GaussRules | None = None,
) -> LaurentPoly:
    """Parse the canonical text form; unknown symbols rejected when a context is given."""
    known = set(symbols) if symbols is not None else None
    tokens = _Tokens(src)

    def parse_int() -> int:
        sign = 1
        kind, text, pos = tokens.peek()
        if kind == "op" and text == "-":
            tokens.next()
            sign = -1
        kind, text, pos = tokens.next()
        if kind != "rational" or "/" in text:
            raise ParseError("expected integer exponent", pos)
        return sign * int(text)

    def parse_factor() -> LaurentPoly:
        kind, text, pos = tokens.next()
        if kind != "ident":
            raise ParseError("expected symbol", pos)
        if known is not None and text not in known:
            raise ParseError(f"unknown symbol {text!r}", pos)
        exponent = 1
        kind, nxt, _ = tokens.peek()
        if kind == "op" and nxt == "^":
            tokens.next()
            exponent = parse_int()
        return LaurentPoly.monomial({text: exponent}, rules=rules)

    def parse_term(sign: int) -> LaurentPoly:
        kind, text, pos = tokens.peek()
        if kind == "rational":
            tokens.next()
            if "/" in text and int(text.partition("/")[2]) == 0:
                raise ParseError("zero denominator", pos)
            term = LaurentPoly.const(Fraction(text) * sign, rules)
        elif kind == "ident":
            term = LaurentPoly.const(sign, rules) * parse_factor()
        else:
            raise ParseError("expected term", pos)
        while tokens.peek()[:2] == ("op", "*"):
            tokens.next()
            term = term * parse_factor()
        return term

    sign = 1
    kind, text, _ = tokens.peek()
    if kind == "op" and text == "-":
        tokens.next()
        sign = -1
    result = parse_term(sign)
    while True:
        kind, text, pos = tokens.peek()
        if kind == "end":
            return result
        if kind != "op" or text not in "+-":
            raise ParseError(f"expected '+' or '-', got {text!r}", pos)
        tokens.next()
        result = result + parse_term(1 if text == "+" else -1)
