"""IdealLattice against the brute-force reference in lattice_oracle.

On the default corpus and on Hypothesis-drawn rings of at most 64
elements, both must give the same ideals in the same order, the same
generators, and the same containment matrix, covers, maximal ideals and
product table. The spanning sets the product table reads must generate
their ideals.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from idealis import (
    CapExceeded,
    ImproperIdeal,
    NotMultClosed,
    ZeroInS,
    all_ideals,
    build_corpus,
    build_ring,
    ideal_gen,
)
from idealis.expr import Idealize, LocalAlg, Localize, Product, Quotient, Zn
from lattice_oracle import oracle_lattice

MAX_SIZE = 64


def assert_matches_oracle(ring):
    lat = all_ideals(ring)
    ref = oracle_lattice(ring)
    assert [p.elements for p in lat] == ref.elements, ring.text
    assert [p.generators for p in lat] == ref.generators, ring.text
    assert [ideal_gen(ring, g) for g in lat.spanning] == lat.ideals, ring.text
    assert np.array_equal(lat.le, ref.le), ring.text
    assert lat.covers == ref.covers, ring.text
    assert lat.maximal_indices == ref.maximal_indices, ring.text
    assert lat.product_table.dtype == ref.product_table.dtype
    assert np.array_equal(lat.product_table, ref.product_table), ring.text


def test_default_corpus_matches_oracle():
    for ring in build_corpus():
        assert_matches_oracle(ring)


@st.composite
def _zn_and_literals(draw, make):
    n = draw(st.integers(2, 16))
    lits = tuple(draw(st.lists(st.integers(0, n - 1), max_size=2)))
    return make(Zn(n), lits)


@st.composite
def _localization(draw):
    n = draw(st.integers(2, 36))
    x = draw(st.integers(1, n - 1))
    powers = {1 % n}
    p = x
    while p not in powers:
        powers.add(p)
        p = p * x % n
    return Localize(Zn(n), tuple(sorted(powers)))


LEAVES = st.one_of(
    st.integers(2, MAX_SIZE).map(Zn),
    st.sampled_from([LocalAlg(2), LocalAlg(3)]),
    _zn_and_literals(Quotient),
    _zn_and_literals(Idealize),
    _localization(),
)
EXPRS = st.recursive(LEAVES, lambda inner: st.builds(Product, inner, inner),
                     max_leaves=6)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(EXPRS)
def test_random_rings_match_oracle(expr):
    try:
        ring = build_ring(expr, cap=MAX_SIZE)
    except (CapExceeded, ImproperIdeal, NotMultClosed, ZeroInS):
        assume(False)
    assert_matches_oracle(ring)
