"""IdealLattice against the brute-force reference in lattice_oracle.

On the default corpus, on Hypothesis-drawn rings of at most 64
elements and on LARGE_RINGS, both must give the same ideals in the same
order, the same generators, and the same containment matrix, covers,
maximal ideals and product table. The spanning sets the product table
reads must generate their ideals, and be 0 past their first column
exactly when the ideal is principal, and is_quasi_local must agree with
the maximal ideals. On LARGE_RINGS, the number of primitive idempotents is pinned,
and the lattice size is the product over them of the number of ideals
inside A*e. The radicals, the Jacobson radical, reducedness and the
squares and cubes that the checks read from the lattice must match the
power loop and repeated ideal_product.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import capped
from idealis import (
    all_ideals,
    build_corpus,
    build_ring,
    build_ring_text,
    ideal_gen,
    ideal_product,
    is_quasi_local,
    is_reduced,
    jacobson_radical,
    radical,
)
from idealis.expr import Idealize, LocalAlg, Localize, Product, Quotient, Zn
from idealis.ideals import _primitive_idempotents
from idealis.theorems import _power_is_zero
from lattice_oracle import oracle_lattice, oracle_radical

MAX_SIZE = 64


def assert_matches_oracle(ring):
    lat = all_ideals(ring)
    ref = oracle_lattice(ring)
    assert [p.elements for p in lat] == ref.elements, ring.text
    assert [p.generators for p in lat] == ref.generators, ring.text
    assert [ideal_gen(ring, g) for g in lat.spanning] == lat.ideals, ring.text
    principal = {tuple(np.unique(ring.mul[:, a]).tolist()) for a in range(ring.size)}
    assert ((lat.spanning[:, 1:] == ring.zero).all(axis=1).tolist()
            == [els in principal for els in ref.elements]), ring.text
    assert is_quasi_local(ring) == (len(ref.maximal_indices) == 1), ring.text
    assert np.array_equal(lat.le, ref.le), ring.text
    assert lat.covers == ref.covers, ring.text
    assert lat.maximal_indices == ref.maximal_indices, ring.text
    assert lat.product_table.dtype == ref.product_table.dtype
    assert np.array_equal(lat.product_table, ref.product_table), ring.text
    return ref


def test_default_corpus_matches_oracle():
    for ring in build_corpus():
        assert_matches_oracle(ring)


# The 8 rings of the classify_large benchmark workload and four larger
# rings, with their number of primitive idempotents: one local factor
# for each prime power of Z_n, and 1 for a local ring.
LARGE_RINGS = {
    "Z4 x Z60": 4,
    "Z240": 3,
    "Z16 x Z16": 2,
    "Z9 x Z27": 2,
    "Z2 x Z2 x Z2 x Z2 x Z2 x Z2": 6,
    "LocalAlg(5)": 1,
    "Idealize(Z64, (4))": 1,
    "Z720/(120)": 3,
    "Z720": 3,
    "Z1024": 1,
    "Z8 x Z90": 4,
    "Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z2": 8,
}


def test_large_rings_match_oracle():
    for text, count in LARGE_RINGS.items():
        ring = build_ring_text(text)
        elements = [set(els) for els in assert_matches_oracle(ring).elements]
        prims = _primitive_idempotents(ring)
        assert len(prims) == count, text
        local_sizes = [sum(els <= set(ring.mul[:, e].tolist()) for els in elements)
                       for e in prims]
        assert len(all_ideals(ring)) == np.prod(local_sizes), text


def assert_arithmetic_matches_oracle(ring):
    lat = all_ideals(ring)
    pt = lat.product_table
    for i, p in enumerate(lat.proper):
        rad = radical(p)
        assert rad is lat[lat.index(rad)], (ring.text, i)
        assert rad.elements == oracle_radical(p), (ring.text, i)
        square = ideal_product(p, p)
        cube = ideal_product(square, p)
        assert lat[pt[i, i]] == square, (ring.text, i)
        assert lat[pt[pt[i, i], i]] == cube, (ring.text, i)
        assert _power_is_zero(p, 2) == square.is_zero, (ring.text, i)
        assert _power_is_zero(p, 3) == cube.is_zero, (ring.text, i)
    nilradical = oracle_radical(lat[0])
    assert jacobson_radical(ring).elements == nilradical, ring.text
    assert is_reduced(ring) == (nilradical == (ring.zero,)), ring.text


def test_default_corpus_arithmetic_matches_oracle():
    for ring in build_corpus():
        if ring.size <= MAX_SIZE:
            assert_arithmetic_matches_oracle(ring)


def _powers(x: int, n: int) -> set[int]:
    """The multiplicative closure of {1, x} in Z_n."""
    powers = {1 % n}
    p = x
    while p not in powers:
        powers.add(p)
        p = p * x % n
    return powers


def _factor(family: str, a: int, b: int, c: int, budget: int):
    """(expr, size) of a ring with at most `budget` >= 2 elements, picked
    by the indices a, b, c: Z_n, LocalAlg, or a proper quotient, an
    idealization or a localization of Z_n. Each family fits any budget;
    LocalAlg falls back to Z_n below 8 elements."""
    def up_to(limit: int, k: int) -> int:
        return 2 + k % (limit - 1)

    def ideal(n: int, g: int) -> tuple[int, ...]:   # generators of (g), g | n
        return (g % n,) + ((g * c % n,) if c else ())

    if family == "localalg" and budget >= 8:
        p = 3 if budget >= 27 and a % 2 else 2
        return LocalAlg(p), p ** 3
    if family == "quotient":                # Z_n/(g) has g elements
        g = up_to(min(budget, 16), a)
        n = g * (1 + b % (16 // g))
        return Quotient(Zn(n), ideal(n, g)), g
    if family == "idealize":                # Z_n (+) Z_n/(g): n*g elements
        n = up_to(min(budget, 16), a)
        gs = [g for g in range(1, n + 1) if n % g == 0 and n * g <= budget]
        g = gs[b % len(gs)]
        return Idealize(Zn(n), ideal(n, g)), n * g
    n = up_to(budget, a)
    if family == "localize":                # S^-1 Z_n has at most n elements
        xs = [x for x in range(1, n) if 0 not in _powers(x, n)]
        return Localize(Zn(n), tuple(sorted(_powers(xs[b % len(xs)], n)))), n
    return Zn(n), n


MAX_FACTORS = 6
_INDEX = st.integers(0, 63)
_FACTOR = st.tuples(
    st.sampled_from(["zn", "quotient", "idealize", "localize", "localalg"]),
    _INDEX, _INDEX, st.integers(0, 3))


@st.composite
def _ring_expr(draw):
    """A ring expression that builds with at most MAX_SIZE elements: a
    product of up to MAX_FACTORS factors, bracketed at random. Every
    draw has a fixed range and the number of draws is fixed, so the
    mutations Hypothesis makes between draws of the same kind never run
    out of data; sizes are fitted to the budget left by taking indices
    modulo it, so every draw builds."""
    count = draw(st.integers(1, MAX_FACTORS))
    factors = draw(st.tuples(*[_FACTOR] * MAX_FACTORS))
    merges = draw(st.tuples(*[_INDEX] * (MAX_FACTORS - 1)))
    parts, budget = [], MAX_SIZE
    for factor in factors[:count]:
        if budget < 2:
            break
        expr, size = _factor(*factor, budget)
        parts.append(expr)
        budget //= size
    for m in merges[:len(parts) - 1]:
        i = m % (len(parts) - 1)
        parts[i:i + 2] = [Product(parts[i], parts[i + 1])]
    return parts[0]


EXPRS = _ring_expr()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(EXPRS)
def test_random_rings_match_oracle(expr):
    assert_matches_oracle(capped(MAX_SIZE, build_ring, expr))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(EXPRS)
def test_random_rings_arithmetic_matches_oracle(expr):
    assert_arithmetic_matches_oracle(capped(MAX_SIZE, build_ring, expr))
