"""Textual ring and ideal expressions.

Grammar (whitespace insensitive):

    ring     := term { "x" term }
    term     := atom [ "/" idealLit ]
    atom     := "Z" digits
              | "LocalAlg(" digits ")"
              | "Loc(" ring "," elem {"," elem} ")"
              | "Idealize(" ring "," idealLit ")"
              | "(" ring ")"
    idealLit := "(" [ elem { "," elem } ] ")"
    elem     := digits | "(" elem "," elem ")"

Product chains are left associative and quotient binds tighter than
product, so "Z2 x Z3/(0)" is Z2 x (Z3/(0)). Parsing the printed form of
any expression yields an identical tree. Element literals are indices;
pair literals address product and idealization components.

Syntax errors carry the byte offset and the set of tokens that would
have been accepted at that point.
"""

from __future__ import annotations

from . import expr as ex
from .errors import ParseError
from .ideals import Ideal, ideal_gen
from .rings import (
    FiniteRing,
    element_literal,
    make_idealization,
    make_local_algebra,
    make_localization,
    make_product,
    make_quotient,
    make_zn,
    resolve_literal,
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _fail(self, *expected: str):
        found = self.text[self.pos:self.pos + 1]
        raise ParseError(self.pos, frozenset(expected), found)

    def _eat(self, lit: str) -> bool:
        self._ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def _expect(self, lit: str) -> None:
        if not self._eat(lit):
            self._fail(f"'{lit}'")

    def _digits(self) -> int:
        self._ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self._fail("digits")
        return int(self.text[start:self.pos])

    def at_end(self) -> bool:
        self._ws()
        return self.pos >= len(self.text)

    def ring(self) -> ex.RingExpr:
        node = self.term()
        while self._eat("x"):
            node = ex.Product(node, self.term())
        return node

    def term(self) -> ex.RingExpr:
        node = self.atom()
        if self._eat("/"):
            return ex.Quotient(node, self.ideal_literal())
        return node

    def atom(self) -> ex.RingExpr:
        self._ws()
        if self._eat("LocalAlg"):
            self._expect("(")
            p = self._digits()
            self._expect(")")
            return ex.LocalAlg(p)
        if self._eat("Loc"):
            self._expect("(")
            inner = self.ring()
            self._expect(",")
            elems = [self.elem()]
            while self._eat(","):
                elems.append(self.elem())
            self._expect(")")
            return ex.Localize(inner, tuple(elems))
        if self._eat("Idealize"):
            self._expect("(")
            inner = self.ring()
            self._expect(",")
            lit = self.ideal_literal()
            self._expect(")")
            return ex.Idealize(inner, lit)
        if self._eat("Z"):
            return ex.Zn(self._digits())
        if self._eat("("):
            inner = self.ring()
            self._expect(")")
            return inner
        self._fail("'Z'", "'LocalAlg'", "'Loc'", "'Idealize'", "'('")

    def ideal_literal(self) -> tuple:
        self._expect("(")
        if self._eat(")"):
            return ()
        lits = [self.elem()]
        while self._eat(","):
            lits.append(self.elem())
        self._expect(")")
        return tuple(lits)

    def elem(self) -> ex.Literal:
        self._ws()
        if self._eat("("):
            a = self.elem()
            self._expect(",")
            b = self.elem()
            self._expect(")")
            return (a, b)
        return self._digits()


def parse_ring(text: str) -> ex.RingExpr:
    p = _Parser(text)
    node = p.ring()
    if not p.at_end():
        p._fail("'x'", "'/'", "end of input")
    return node


def parse_ideal_literals(text: str) -> tuple:
    p = _Parser(text)
    lits = p.ideal_literal()
    if not p.at_end():
        p._fail("end of input")
    return lits


print_expr = ex.print_expr
print_ideal_literal = ex.print_ideal_literal


# ---------------------------------------------------------------------------
# elaboration


def build_ring(e: ex.RingExpr) -> FiniteRing:
    """Elaborate an expression into a verified ring."""
    if isinstance(e, ex.Zn):
        return make_zn(e.n)
    if isinstance(e, ex.LocalAlg):
        return make_local_algebra(e.p)
    if isinstance(e, ex.Product):
        return make_product(build_ring(e.left), build_ring(e.right))
    if isinstance(e, ex.Quotient):
        r = build_ring(e.ring)
        q = ideal_gen(r, [resolve_literal(r, lit) for lit in e.ideal])
        return make_quotient(r, q)[0]
    if isinstance(e, ex.Localize):
        r = build_ring(e.ring)
        s = [resolve_literal(r, lit) for lit in e.elems]
        return make_localization(r, s)[0]
    if isinstance(e, ex.Idealize):
        r = build_ring(e.ring)
        j = ideal_gen(r, [resolve_literal(r, lit) for lit in e.ideal])
        return make_idealization(r, j)
    raise TypeError(f"not a ring expression: {e!r}")


def build_ring_text(text: str) -> FiniteRing:
    return build_ring(parse_ring(text))


def parse_ideal(text: str, ring: FiniteRing) -> Ideal:
    """Parse an ideal literal like "(4)" against a built ring."""
    lits = parse_ideal_literals(text)
    return ideal_gen(ring, [resolve_literal(ring, lit) for lit in lits])


def ideal_text(p: Ideal) -> str:
    """Canonical literal form of an ideal's generators."""
    return ex.print_ideal_literal(
        tuple(element_literal(p.ring, g) for g in p.generators))
