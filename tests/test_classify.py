"""Ideal-class deciders: golden verdicts, witnesses, implications, and
the independent six-condition characterization.

Witnesses are pinned to the lexicographically least violating tuple, so
the expected values below were derived by hand from the definitions.
"""

import tracemalloc

import numpy as np
import pytest

from idealis import (
    IMPLICATIONS,
    VERDICT_KEYS,
    ImproperIdeal,
    NotW1AP,
    classify,
    find_one_triple_zeros,
    ideal_gen,
    is_one_absorbing_prime,
    is_prime,
    is_two_absorbing,
    is_weakly_one_absorbing_prime,
    is_weakly_prime,
    is_weakly_two_absorbing,
    all_ideals,
    build_corpus,
    build_ring_text,
    make_local_algebra,
    make_product,
    make_zn,
    tmm_characterize,
    witness_violates,
    zero_ideal,
)
from idealis.classify import _scan_one_absorbing, _scan_two_absorbing
from fault_corpus import FAULT_TEXTS, fault_rings


def _ideal(n, g):
    return ideal_gen(make_zn(n), [g])


def test_golden_z12_4():
    p = _ideal(12, 4)
    assert is_weakly_one_absorbing_prime(p).holds
    wp = is_weakly_prime(p)
    assert not wp.holds and wp.witness == (2, 2)
    pr = is_prime(p)
    assert not pr.holds and pr.witness == (2, 2)
    oa = is_one_absorbing_prime(p)
    assert not oa.holds and oa.witness == (2, 3, 2)
    assert is_two_absorbing(p).holds


def test_golden_z12_6():
    v = is_weakly_one_absorbing_prime(_ideal(12, 6))
    assert not v.holds and v.witness == (3, 3, 2)


def test_golden_z30_6():
    # (6) = (2) meet (3) is an intersection of two primes, hence
    # 2-absorbing; it still fails the 1-absorbing conclusion because
    # x*z in P does not count there
    p = _ideal(30, 6)
    v = is_weakly_one_absorbing_prime(p)
    assert not v.holds and v.witness == (2, 2, 3)
    assert is_weakly_two_absorbing(p).holds
    assert is_two_absorbing(p).holds


def test_golden_z6_0():
    p = zero_ideal(make_zn(6))
    assert is_weakly_one_absorbing_prime(p).holds
    oa = is_one_absorbing_prime(p)
    assert not oa.holds and oa.witness == (2, 2, 3)
    assert is_two_absorbing(p).holds
    assert next(find_one_triple_zeros(p)) == (2, 2, 3)


def test_golden_z4_0():
    p = zero_ideal(make_zn(4))
    assert is_one_absorbing_prime(p).holds
    pr = is_prime(p)
    assert not pr.holds and pr.witness == (2, 2)
    assert is_weakly_prime(p).holds


def test_golden_z8_0():
    v = is_two_absorbing(zero_ideal(make_zn(8)))
    assert not v.holds and v.witness == (2, 2, 2)


def test_prime_matches_quotient_domain():
    # P is prime iff the quotient has no zero divisors: cross-check on
    # every proper ideal of a mixed bag of rings
    from idealis import make_quotient
    rings = [make_zn(n) for n in range(2, 30)]
    rings.append(make_product(make_zn(4), make_zn(9)))
    for r in rings:
        for p in all_ideals(r).proper:
            q, _ = make_quotient(r, p)
            nonzero = [a for a in range(q.size) if a != q.zero]
            domain = all(q.mul[a, b] != q.zero for a in nonzero for b in nonzero)
            assert is_prime(p).holds == domain


def test_implications_hold_everywhere():
    rings = [make_zn(n) for n in range(2, 40)]
    rings += [make_product(make_zn(a), make_zn(b))
              for a, b in ((2, 2), (2, 4), (3, 3), (4, 4), (2, 8))]
    rings.append(make_local_algebra(2))
    for r in rings:
        for p in all_ideals(r).proper:
            rep = classify(p)
            for src, dst in IMPLICATIONS:
                assert not rep.verdicts[src] or rep.verdicts[dst]


def test_witnesses_round_trip():
    for n in range(2, 31):
        r = make_zn(n)
        for p in all_ideals(r).proper:
            rep = classify(p)
            for key in VERDICT_KEYS:
                wit = rep.witnesses[key]
                assert rep.verdicts[key] == (wit is None)
                if wit is not None:
                    assert witness_violates(p, key, wit)


def test_witness_violates_rejects_good_tuples():
    p = _ideal(12, 4)
    assert not witness_violates(p, "prime", (4, 4))
    assert not witness_violates(p, "weaklyPrime", (2, 3))
    assert not witness_violates(p, "oneAbsorbingPrime", (2, 2, 2))


def test_witness_is_lex_least():
    # recompute the weakly-prime witness for (4) in Z12 by brute force
    r = make_zn(12)
    p = ideal_gen(r, [4])
    best = None
    for x in range(12):
        for y in range(12):
            v = r.mul[x, y]
            if v != 0 and v in p and x not in p and y not in p:
                best = (x, y)
                break
        if best:
            break
    assert classify(p).witnesses["weaklyPrime"] == best


def test_zero_ideal_footnote():
    rep = classify(zero_ideal(make_zn(12)))
    assert rep.footnotes
    rep2 = classify(_ideal(12, 4))
    assert not rep2.footnotes


def test_improper_ideal_rejected():
    r = make_zn(6)
    with pytest.raises(ImproperIdeal):
        classify(ideal_gen(r, [1]))


def test_find_one_triple_zeros():
    # (4) in Z12 is weakly 1-absorbing prime but not 1-absorbing prime;
    # its triples all multiply to zero with xy, z outside P
    p = _ideal(12, 4)
    triples = list(find_one_triple_zeros(p))
    assert triples
    assert triples == sorted(triples)
    r = p.ring
    for x, y, z in triples:
        assert r.mul[r.mul[x, y], z] == r.zero
        assert r.mul[x, y] not in p and z not in p
        assert not r.unit_mask[[x, y, z]].any()
    with pytest.raises(NotW1AP):         # at the call, not at the first triple
        find_one_triple_zeros(_ideal(12, 6))


def test_one_absorbing_has_no_triples():
    p = zero_ideal(make_zn(4))
    assert is_one_absorbing_prime(p).holds
    assert list(find_one_triple_zeros(p)) == []


def test_tmm_agreement():
    rings = [make_zn(n) for n in (4, 6, 8, 12, 16, 24, 30)]
    rings.append(make_product(make_zn(2), make_zn(4)))
    rings.append(make_local_algebra(2))
    for r in rings:
        for p in all_ideals(r).proper:
            conds = tmm_characterize(p)
            assert set(conds) == {"i", "ii", "iii", "iv", "v", "vi"}
            assert len(set(conds.values())) == 1
            assert conds["i"] == is_weakly_one_absorbing_prime(p).holds


def test_classify_report_shape():
    rep = classify(_ideal(12, 4))
    assert set(rep.verdicts) == set(VERDICT_KEYS)
    assert set(rep.witnesses) == set(VERDICT_KEYS)
    assert rep.ideal.elements == (0, 4, 8)


def test_verdicts_on_product_with_field_factor():
    # in Z2 x Z5 every proper ideal is prime or zero, so all six hold
    r = make_product(make_zn(2), make_zn(5))
    for p in all_ideals(r).proper:
        rep = classify(p)
        assert rep.verdicts["weaklyOneAbsorbingPrime"]
        if not p.is_zero:
            assert rep.verdicts["prime"]


def test_one_absorbing_scan_memory_is_quadratic():
    # The scan holds O(n^2) candidates: pairs of class representatives
    # and (w, z) products. A cube over (x, y, z) would need about n times more.
    ring = build_ring_text("Z4 x Z256")
    n = ring.size
    for p in all_ideals(ring).proper:
        tracemalloc.start()
        try:
            _scan_one_absorbing(ring, p.mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * n, (p.elements[:4], peak)


def test_two_absorbing_scan_memory_is_quadratic():
    # The scan holds n x c products and bitsets, the c x c products of
    # its candidates c, and one block of _BLOCK_ENTRIES words of the
    # (x, y) x z cube at a time. On Z2^8, whose only unit is 1, the
    # candidates are every nonunit outside P.
    ring = build_ring_text(" x ".join(["Z2"] * 8))
    n = ring.size
    for p in all_ideals(ring).proper:
        tracemalloc.start()
        try:
            _scan_two_absorbing(ring, p.mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * n * n, (p.elements[:4], peak)


def test_tmm_characterize_memory_is_quadratic_in_the_lattice():
    # Conditions (iv) to (vi) read rows of the k x k product table for
    # sets of at most k members; the lattice and the class record are
    # built before tracing. On Z2^8 there are k = 256 ideals.
    ring = build_ring_text(" x ".join(["Z2"] * 8))
    lat = all_ideals(ring)
    k = len(lat)
    assert lat.le.shape == lat.product_table.shape == (k, k) == (256, 256)
    assert len(ring.nonunit_classes.reps) == 255       # 1 is the only unit
    for p in lat.proper:
        tracemalloc.start()
        try:
            tmm_characterize(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * k * k, (p.elements[:4], peak)


def _index_rings():
    rings = [r for r in build_corpus() if r.size <= 64]
    return rings + [build_ring_text("Z4 x Z60"), build_ring_text("Idealize(Z64, (4))")]


def test_nonunit_classes_match_pair_loop():
    # the nonunits grouped by their least u*x over the units u (and 1):
    # the least member of each class, ascending, and the class sizes;
    # then the distinct products of rep pairs in first-occurrence order,
    # each with the row-major index of the first rep pair giving it; and
    # the class of every nonunit, by the index of its rep. The damaged
    # rings, whose largest unit is declared a nonunit, have a class whose
    # least key is a unit and whose least nonunit is not.
    for ring in _index_rings() + fault_rings()[:len(FAULT_TEXTS)]:
        units = set(np.flatnonzero(ring.unit_mask).tolist()) | {ring.one}
        classes = {}
        for x in ring.nonunits.tolist():
            key = min(int(ring.mul[u, x]) for u in units)
            classes.setdefault(key, []).append(x)
        reps = sorted(min(members) for members in classes.values())
        sizes = {min(members): len(members) for members in classes.values()}
        rep_of = {x: min(members) for members in classes.values() for x in members}
        first = {}
        for i, a in enumerate(reps):
            for j, b in enumerate(reps):
                first.setdefault(int(ring.mul[a, b]), i * len(reps) + j)
        cl = ring.nonunit_classes
        assert cl.reps.tolist() == reps, ring.text
        assert cl.sizes.tolist() == [sizes[a] for a in reps], ring.text
        assert [reps[k] for k in cl.of] == [rep_of[x] for x in ring.nonunits.tolist()], \
            ring.text
        assert cl.ab.tolist() == [[int(ring.mul[a, b]) for b in reps] for a in reps]
        assert cl.ws.tolist() == list(first), ring.text
        assert cl.first.tolist() == list(first.values()), ring.text
        assert not any(a.flags.writeable for a in cl)
