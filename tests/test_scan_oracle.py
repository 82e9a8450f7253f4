"""The classifier scans against the definitional cubes in scan_oracle.

On every default-corpus ring of at most 64 elements and on Hypothesis-
drawn rings, every proper ideal must get the oracle's six witnesses
and, when it is weakly 1-absorbing prime, the oracle's 1-triple zeros.
The six conditions of tmm_characterize must all equal its w1ap verdict.
Above the cubes' 64 elements, the 2-absorbing scan and the 1-absorbing
table must agree with the per-x plane searches on rings of up to 256
elements. Quotients that share a live ring's tables, and equal ideals
built outside the lattice, read the witnesses of one shared scan.
"""

import importlib

import numpy as np
from hypothesis import HealthCheck, given, settings

from idealis import (
    Ideal,
    all_ideals,
    build_corpus,
    build_ring,
    build_ring_text,
    classify,
    find_one_triple_zeros,
    is_one_absorbing_prime,
    is_two_absorbing,
    is_weakly_one_absorbing_prime,
    is_weakly_two_absorbing,
    make_quotient,
    tmm_characterize,
)
from idealis.classify import _OneAbsorbingTable
from scan_oracle import (
    oracle_triple_zeros,
    oracle_witnesses,
    plane_one_absorbing,
    plane_triple_zeros,
    plane_two_absorbing,
)
from test_lattice_oracle import EXPRS, MAX_SIZE


def assert_scans_match_oracle(ring):
    for p in all_ideals(ring).proper:
        where = (ring.text, p.elements)
        rep = classify(p)
        assert rep.witnesses == oracle_witnesses(p), where
        w1ap = rep.verdicts["weaklyOneAbsorbingPrime"]
        if w1ap:
            assert find_one_triple_zeros(p) == oracle_triple_zeros(p), where
        assert set(tmm_characterize(p).values()) == {w1ap}, where


def test_default_corpus_matches_scan_oracle():
    rings = [r for r in build_corpus() if r.size <= MAX_SIZE]
    assert len(rings) > 150
    for ring in rings:
        assert_scans_match_oracle(ring)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(EXPRS)
def test_random_rings_match_scan_oracle(expr):
    assert_scans_match_oracle(build_ring(expr, cap=MAX_SIZE))


def test_quotient_twins_match_scan_oracle():
    """Most quotients of the small corpus rings have the exact tables of
    a live corpus ring, so their witnesses come from its scan memo."""
    corpus = [r for r in build_corpus() if r.size <= 36]
    memos = {id(r._scans) for r in corpus}
    quotients = shared = 0
    for ring in corpus:
        for q in all_ideals(ring).proper:
            rq, _ = make_quotient(ring, q)
            quotients += 1
            shared += id(rq._scans) in memos
            for p in all_ideals(rq).proper:
                assert classify(p).witnesses == oracle_witnesses(p), (rq.text, p.elements)
    assert shared > quotients // 2, (shared, quotients)


def test_equal_ideal_reuses_the_scan(monkeypatch):
    ring = build_ring_text("Z4 x Z6")
    witnesses = {p.elements: classify(p).witnesses for p in all_ideals(ring).proper}

    def no_scan(*_):
        raise AssertionError("an equal ideal was scanned again")
    scans = importlib.import_module("idealis.classify")
    monkeypatch.setattr(scans, "_SCAN_FAMILIES",
                        tuple((keys, no_scan) for keys, _ in scans._SCAN_FAMILIES))
    for r in (ring, build_ring_text("Z4 x Z6")):       # the ring and its twin
        for elements, wits in witnesses.items():
            assert classify(Ideal(r, elements)).witnesses == wits


# Rings of 120 to 256 elements, one of every family: the rings the
# classify_large benchmark workload classifies.
LARGE_RINGS = (
    "Z4 x Z60",
    "Z240",
    "Z16 x Z16",
    "Z9 x Z27",
    "Z2 x Z2 x Z2 x Z2 x Z2 x Z2",
    "LocalAlg(5)",
    "Idealize(Z64, (4))",
    "Z720/(120)",
)


def test_two_absorbing_scan_matches_planes_on_large_rings():
    ideals = 0
    for text in LARGE_RINGS:
        for p in all_ideals(build_ring_text(text)).proper:
            where = (text, p.elements)
            strict, weak = plane_two_absorbing(p)
            assert is_two_absorbing(p).witness == strict, where
            assert is_weakly_two_absorbing(p).witness == weak, where
            ideals += 1
    assert ideals == 207


def test_one_absorbing_table_matches_planes_on_large_rings():
    w1ap = triples = 0
    for text in LARGE_RINGS:
        ring = build_ring_text(text)
        for p in all_ideals(ring).proper:
            where = (text, p.elements)
            strict, weak = plane_one_absorbing(p)
            assert is_one_absorbing_prime(p).witness == strict, where
            assert is_weakly_one_absorbing_prime(p).witness == weak, where
            if weak is not None:
                continue
            w1ap += 1
            got = _OneAbsorbingTable.build(ring, p.mask).triple_zeros()
            want = plane_triple_zeros(p)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), where
            triples += len(want[0])
    assert (w1ap, triples) == (46, 8352882)
