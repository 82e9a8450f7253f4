"""The classifier scans against the definitional cubes in scan_oracle.

On every default-corpus ring of at most 64 elements and on Hypothesis-
drawn rings, every proper ideal must get the oracle's six witnesses
and, when it is weakly 1-absorbing prime, the oracle's 1-triple zeros.
The six conditions of tmm_characterize must all equal its w1ap verdict.
"""

from hypothesis import HealthCheck, given, settings

from idealis import (
    all_ideals,
    build_corpus,
    build_ring,
    classify,
    find_one_triple_zeros,
    tmm_characterize,
)
from scan_oracle import oracle_triple_zeros, oracle_witnesses
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
