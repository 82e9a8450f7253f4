"""Ring-expression DSL: parsing, printing, element resolution, builds.

parse and print must be exact inverses on the AST, and every malformed
input must fail with a ParseError carrying the offset and the set of
acceptable tokens at that point.
"""

import pytest

from conftest import capped
from idealis import (
    ElementOutOfRange,
    ParseError,
    build_ring,
    build_ring_text,
    ideal_gen,
    ideal_text,
    make_zn,
    parse_ideal,
    parse_ideal_literals,
    parse_ring,
    print_expr,
    resolve_literal,
    zn_isomorphism,
)
from idealis.expr import Idealize, LocalAlg, Localize, Product, Quotient, Zn

ROUND_TRIPS = [
    "Z2",
    "Z144",
    "LocalAlg(3)",
    "Z2 x Z3",
    "Z2 x Z3 x Z5",
    "Z12/(4)",
    "Z12/(4, 6)",
    "Z12/()",
    "Loc(Z12, 1, 3, 9)",
    "Idealize(Z4, (2))",
    "Idealize(Z2 x Z3, ((0, 1)))",
    "(Z2 x Z3)/((1, 0))",
    "Z2 x Z3/(0)",
    "Loc(Z6 x Z2, (1, 1), (5, 1))",
    "Idealize(Z8, (2, 4))",
]


def test_print_parse_round_trips():
    for text in ROUND_TRIPS:
        e = parse_ring(text)
        assert print_expr(e) == text
        assert parse_ring(print_expr(e)) == e


def test_whitespace_is_insignificant():
    assert parse_ring("Z2xZ3") == parse_ring("Z2 x Z3")
    assert parse_ring("  Z12 / ( 4 ,6 ) ") == parse_ring("Z12/(4, 6)")
    assert parse_ring("Loc( Z12,1 , 3,9 )") == parse_ring("Loc(Z12, 1, 3, 9)")


def test_product_is_left_associative():
    e = parse_ring("Z2 x Z3 x Z5")
    assert e == Product(Product(Zn(2), Zn(3)), Zn(5))


def test_quotient_binds_tighter_than_product():
    e = parse_ring("Z2 x Z3/(0)")
    assert e == Product(Zn(2), Quotient(Zn(3), (0,)))
    assert build_ring(e).size == 6
    grouped = parse_ring("(Z2 x Z3)/((1, 0))")
    assert build_ring(grouped).size == 3


def test_parse_tree_shapes():
    assert parse_ring("Z7") == Zn(7)
    assert parse_ring("LocalAlg(2)") == LocalAlg(2)
    assert parse_ring("Loc(Z12, 1, 3, 9)") == Localize(Zn(12), (1, 3, 9))
    assert parse_ring("Idealize(Z4, (2))") == Idealize(Zn(4), (2,))
    assert parse_ring("Z12/(4)") == Quotient(Zn(12), (4,))


MALFORMED = [
    ("", 0),
    ("Q8", 0),
    ("Z", 1),
    ("Zx", 1),
    ("Z6 x", 4),
    ("Z6 y Z2", 3),
    ("Z6/", 3),
    ("Z6/4", 3),
    ("Z6/(4", 5),
    ("Z6/(4,)", 6),
    ("(Z2", 3),
    ("(Z2))", 4),
    ("Loc(Z6)", 6),
    ("Loc(Z6,)", 7),
    ("LocalAlg()", 9),
    ("LocalAlg(2", 10),
    ("Idealize(Z4)", 11),
    ("Idealize(Z4, 2)", 13),
    ("Z6/((1,2)", 9),
    ("Z6/((1 2))", 7),
    ("Z-4", 1),
]


def test_malformed_inputs_have_positions():
    for text, offset in MALFORMED:
        with pytest.raises(ParseError) as info:
            parse_ring(text)
        err = info.value
        assert err.offset == offset, f"{text!r}: offset {err.offset} != {offset}"
        assert err.expected
        assert str(err.offset) in str(err)


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError) as info:
        parse_ring("Z6 Z7")
    assert info.value.offset == 3


def test_parse_ideal_literals():
    assert parse_ideal_literals("(4)") == (4,)
    assert parse_ideal_literals("()") == ()
    assert parse_ideal_literals("(4, 6)") == (4, 6)
    assert parse_ideal_literals("((1, 0), (0, 2))") == ((1, 0), (0, 2))
    assert parse_ideal_literals("(((1, 0), 2))") == (((1, 0), 2),)


def test_resolve_literal():
    r6 = build_ring_text("Z2 x Z3")
    assert resolve_literal(r6, (1, 2)) == 1 * 3 + 2
    assert resolve_literal(r6, 4) == 4
    with pytest.raises(ElementOutOfRange):
        resolve_literal(r6, (1, 3))
    with pytest.raises(ElementOutOfRange):
        resolve_literal(r6, 6)
    with pytest.raises(ElementOutOfRange):
        resolve_literal(make_zn(6), (1, 2))


def test_build_golden_rings():
    assert build_ring_text("Z6").size == 6
    assert zn_isomorphism(build_ring_text("Z2 x Z3")) is not None
    assert zn_isomorphism(build_ring_text("Z2 x Z2")) is None
    assert build_ring_text("Loc(Z12, 1, 3, 9)").size == 4
    assert build_ring_text("Z12/(4)").size == 4
    assert build_ring_text("Idealize(Z4, (2))").size == 8
    assert build_ring_text("LocalAlg(2)").size == 8


def test_build_respects_cap():
    from idealis import CapExceeded
    with pytest.raises(CapExceeded):
        capped(30, build_ring_text, "Z40")
    assert capped(40, build_ring_text, "Z40").size == 40


def test_parse_ideal_and_text():
    r = make_zn(12)
    p = parse_ideal("(4)", r)
    assert p.elements == (0, 4, 8)
    assert ideal_text(p) == "(4)"
    assert ideal_text(parse_ideal("()", r)) == "()"
    assert ideal_text(parse_ideal("(8, 4)", r)) == "(8, 4)"
    r2 = build_ring_text("Z2 x Z3")
    p2 = parse_ideal("((1, 0))", r2)
    assert p2.elements == (0, 3)
    assert ideal_text(p2) == "((1, 0))"


def test_ideal_text_matches_provenance_shape():
    r = build_ring_text("Idealize(Z4, (2))")
    p = ideal_gen(r, [2])      # element (1, 0): base 1, module coset 0
    assert ideal_text(p) == "((1, 0))"


def test_canonical_text_on_built_rings():
    for text in ("Z12", "Z2 x Z3", "Idealize(Z4, (2))", "LocalAlg(2)",
                 "Loc(Z12, 1, 3, 9)", "Z12/(4)"):
        assert build_ring_text(text).text == text
