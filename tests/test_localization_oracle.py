"""make_localization against the pair-equivalence reference in
localization_oracle.

On every cyclic multiplicative set of the default-corpus rings of at
most 36 elements, and on Hypothesis-drawn rings and sets, both must give
the same addition and multiplication tables, zero, one, text and
canonical map, or raise the same exception type.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import capped
from idealis import (
    EngineError,
    build_corpus,
    build_ring,
    make_localization,
    make_zn,
    zn_isomorphism,
)
from idealis.theorems import _cyclic_mult_sets
from localization_oracle import oracle_localization
from test_lattice_oracle import EXPRS, MAX_SIZE


def _outcome(build, ring, s):
    try:
        return build(ring, s)
    except (EngineError, ValueError) as err:
        return type(err)


def assert_matches_oracle(ring, s):
    got = _outcome(make_localization, ring, s)
    want = _outcome(oracle_localization, ring, s)
    where = (ring.text, s)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want, where
        return
    (loc, can), (ref, ref_can) = got, want
    assert np.array_equal(loc.add, ref.add), where
    assert np.array_equal(loc.mul, ref.mul), where
    assert (loc.zero, loc.one, loc.text) == (ref.zero, ref.one, ref.text), where
    assert np.array_equal(can.mapping, ref_can.mapping), where


def test_default_corpus_matches_oracle():
    count = 0
    for ring in build_corpus():
        if ring.size <= 36:
            for s in _cyclic_mult_sets(ring):
                assert_matches_oracle(ring, s)
                count += 1
    assert count > 1000


def _closure(ring, gens):
    """The multiplicative closure of {1} and gens."""
    closed, frontier = {ring.one}, [ring.one]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = int(ring.mul[a, g])
            if b not in closed:
                closed.add(b)
                frontier.append(b)
    return closed


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(EXPRS, st.integers(0, 2), st.tuples(*[st.integers(0, MAX_SIZE - 1)] * 3))
def test_random_localizations_match_oracle(expr, gens, picks):
    """S is the multiplicative closure of `gens` picked elements that are
    not nilpotent or, for gens = 0, the picked elements as they are,
    which both constructions must reject alike when they lack 1, are
    not closed or contain 0."""
    ring = capped(MAX_SIZE, build_ring, expr)
    if gens == 0:
        s = {a % ring.size for a in picks}
    else:
        not_nilpotent = [a for a in range(ring.size)
                         if ring.zero not in _closure(ring, [a])]
        s = _closure(ring, [not_nilpotent[a % len(not_nilpotent)] for a in picks[:gens]])
    assert_matches_oracle(ring, s)


def test_localization_beyond_the_old_pair_cap():
    """Z1024 at the powers of 3, which are units: 1024 elements times 256
    denominators is far more pairs than the reference builds."""
    loc, can = make_localization(make_zn(1024), {pow(3, k, 1024) for k in range(256)})
    assert loc.size == 1024
    assert can.is_injective
    assert zn_isomorphism(loc) is not None
