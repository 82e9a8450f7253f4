"""The classifier scans against the definitional cubes in scan_oracle.

On every default-corpus ring of at most 64 elements and on Hypothesis-
drawn rings, every proper ideal must get the oracle's six witnesses
and, when it is weakly 1-absorbing prime, the oracle's 1-triple zeros.
The six conditions of tmm_characterize must each equal the reference's,
and all equal its w1ap verdict; so must they on rings rebuilt under a
random relabeling of their elements, 0 and 1 included, whose lattice
must also be lattice_oracle's.
Above the cubes' 64 elements, the prime scan, the 2-absorbing scan and
the 1-absorbing table must agree with the plane searches on rings of up
to 256 elements, the prime scan also on Z720 and Z1024, and so must the
weak 2-absorbing search on the corpus ideals it finds hardest, and the
1-absorbing table on the corpus ideals whose witness is not in the hit
row of least x*y. The prime and 2-absorbing candidate counts on those
rings are pinned. The 2-absorbing scan must also agree with the cubes
and the planes when its blocks are cut to a few words, and the prime,
the 2-absorbing and the 1-absorbing scans with the planes on the rings
of the fault corpus, whose unit data is damaged, and the six conditions
of tmm_characterize with the reference's there, also when each of those
rings is relabeled and then damaged.
The blocks of the class cube of 1-triple zeros must count the oracle's
triples and decide each predicate the triple-zero checks fold over them
as the oracle's list does, and the three checks must not change when
every x class is its own block.
Quotients that share a live ring's tables, and equal ideals built
outside the lattice, read the witnesses of one shared scan.
"""

import importlib
from itertools import chain

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import capped
from idealis import (
    FiniteRing,
    Ideal,
    all_ideals,
    build_corpus,
    build_ring,
    build_ring_text,
    classify,
    find_one_triple_zeros,
    is_one_absorbing_prime,
    is_prime,
    is_two_absorbing,
    is_weakly_one_absorbing_prime,
    is_weakly_prime,
    is_weakly_two_absorbing,
    make_quotient,
    tmm_characterize,
)
from idealis.classify import (
    _scan_one_absorbing,
    _scan_prime,
    _scan_two_absorbing,
    _triple_zero_blocks,
)
from idealis.rings import coset_least
from fault_corpus import FAULT_TEXTS, corrupt_unit_scan, damaged_unit, fault_rings
from scan_oracle import (
    oracle_characterize,
    oracle_triple_zeros,
    oracle_witnesses,
    plane_one_absorbing,
    plane_prime,
    plane_triple_zeros,
    plane_two_absorbing,
)
from test_lattice_oracle import EXPRS, MAX_SIZE, assert_matches_oracle


def assert_scans_match_oracle(ring):
    for p in all_ideals(ring).proper:
        where = (ring.text, p.elements)
        rep = classify(p)
        assert rep.witnesses == oracle_witnesses(p), where
        w1ap = rep.verdicts["weaklyOneAbsorbingPrime"]
        if w1ap:
            assert list(find_one_triple_zeros(p)) == oracle_triple_zeros(p), where
        conditions = tmm_characterize(p)
        assert conditions == oracle_characterize(p), where
        assert set(conditions.values()) == {w1ap}, where


def test_default_corpus_matches_scan_oracle():
    rings = [r for r in build_corpus() if r.size <= MAX_SIZE]
    assert len(rings) > 150
    for ring in rings:
        assert_scans_match_oracle(ring)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(EXPRS)
def test_random_rings_match_scan_oracle(expr):
    assert_scans_match_oracle(capped(MAX_SIZE, build_ring, expr))


def relabeled(ring, perm: np.ndarray) -> FiniteRing:
    """The ring rebuilt with element a stored at index perm[a]."""
    old = np.argsort(perm)              # old[i]: the element stored at i
    tables = (perm[t[np.ix_(old, old)]] for t in (ring.add, ring.mul))
    return FiniteRing(*tables, int(perm[ring.zero]), int(perm[ring.one]),
                      ring.provenance)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(EXPRS, st.data())
def test_relabeled_rings_match_oracles(expr, data):
    """Every fast path argues about least elements; a relabeled ring
    moves them, and 0 and 1 with them."""
    ring = capped(MAX_SIZE, build_ring, expr)
    perm = np.array(data.draw(st.permutations(range(ring.size))))
    r = relabeled(ring, perm)
    assert_matches_oracle(r)
    assert_scans_match_oracle(r)


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


def test_prime_scan_matches_plane_on_large_rings():
    ideals = 0
    for text in LARGE_RINGS + ("Z720", "Z1024"):
        for p in all_ideals(build_ring_text(text)).proper:
            where = (text, p.elements)
            strict, weak = plane_prime(p)
            assert is_prime(p).witness == strict, where
            assert is_weakly_prime(p).witness == weak, where
            ideals += text in LARGE_RINGS
    assert ideals == 207


def test_prime_candidate_counts_on_large_rings():
    """Candidates the prime scan builds its plane over, the reps of the
    ring's nonunit_classes outside P, summed over the proper ideals of
    LARGE_RINGS. The whole n x n plane had 36801 (the sum of n); counts,
    unlike times, hold on any host."""
    ideals = candidates = 0
    for text in LARGE_RINGS:
        ring = build_ring_text(text)
        for p in all_ideals(ring).proper:
            candidates += int(np.count_nonzero(~p.mask[ring.nonunit_classes.reps]))
            ideals += 1
    assert (ideals, candidates) == (207, 5560)


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


def test_weak_two_absorbing_search_on_its_hard_cases():
    """The weak 2-absorbing search runs over every member of the cosets
    of P that occur in strict violations. Two kinds of ideal need it: a
    nonzero P with strict violations but no weak one, where it runs and
    finds nothing, and a P whose weak witness uses a member that is not
    the least of its coset, which a search over the least members misses."""
    empty, not_least = [], []
    for ring in build_corpus():
        for p in all_ideals(ring).proper:
            strict, weak = plane_two_absorbing(p)
            where = (ring.text, p.elements)
            if strict is not None and weak is None and not p.is_zero:
                empty.append(where)
            elif weak is not None and (coset_least(ring, p.mask)[list(weak)] != weak).any():
                not_least.append((ring.text, strict, weak))
            else:
                continue
            assert is_two_absorbing(p).witness == strict, where
            assert is_weakly_two_absorbing(p).witness == weak, where
    assert len(empty) == 7 and empty[0][0] == "Idealize(Z8, (2))"
    assert len(not_least) == 139
    assert ("Z2 x Z8", (2, 2, 2), (10, 10, 10)) in not_least


def test_weak_two_absorbing_search_where_units_matter():
    """The weak 2-absorbing search runs over the members of the orbits
    u*x + P marked by strict violations that are their own least
    associate: x*y*z != 0 passes to associates, not to cosets. These are
    the ideals whose weak witness has a coordinate that is not the least
    of its orbit, which a search over the orbit representatives misses;
    in 3 of them every coordinate is still the least of its coset."""
    not_least, coset_least_only = [], []
    for ring in build_corpus():
        units = np.flatnonzero(ring.unit_mask)
        for p in all_ideals(ring).proper:
            strict, weak = plane_two_absorbing(p)
            if weak is None:
                continue
            least = coset_least(ring, p.mask)
            orbit = least[ring.mul[units]].min(axis=0)      # over every u*x
            w = list(weak)
            if (orbit[w] == w).all():
                continue
            where = (ring.text, p.elements)
            assert is_two_absorbing(p).witness == strict, where
            assert is_weakly_two_absorbing(p).witness == weak, where
            not_least.append(where)
            if (least[w] == w).all():
                coset_least_only.append((*where, strict, weak))
    assert len(not_least) == 142 and len(coset_least_only) == 3
    assert coset_least_only[0] == (
        "Idealize(Z6, (0))", (0, 3), (12, 19, 19), (13, 19, 19))


def test_two_absorbing_candidate_counts_on_large_rings(monkeypatch):
    """Candidates the 2-absorbing scan gives its strict and weak searches,
    summed over the proper ideals of LARGE_RINGS. Drawn from coset
    representatives and every member of the marked cosets they were
    4205 and 11459. The weak search is skipped where the strict witness
    is already weak; it ran over 2384 before that. Counts, unlike times,
    hold on any host."""
    scans = importlib.import_module("idealis.classify")
    blocks = scans._two_absorbing_blocks
    sizes = []

    def counted(ring, mask, c, *args):
        sizes.append(len(c))
        return blocks(ring, mask, c, *args)
    monkeypatch.setattr(scans, "_two_absorbing_blocks", counted)
    ideals = strict = weak = 0
    for text in LARGE_RINGS:
        ring = build_ring_text(text)
        for p in all_ideals(ring).proper:
            sizes.clear()
            scans._scan_two_absorbing(ring, p.mask)     # past the scan memo
            ideals += 1
            strict += sizes[0]
            weak += sum(sizes[1:])
    assert (ideals, strict, weak) == (207, 1500, 1768)


def test_two_absorbing_blocks_at_a_small_budget(monkeypatch):
    """With a block budget of 8 words, most blocks of the 2-absorbing
    scan hold one x row and the last ones two, so the scan crosses many
    block boundaries; its witnesses must still be the cube's and the
    planes'. In a block of one row, the least coordinate of a violation
    is only the x: a scan that marked only the y axis of its blocks loses
    that orbit, and with it the weak witness of (0, 30) in Z2 x Z30."""
    scans = importlib.import_module("idealis.classify")
    monkeypatch.setattr(scans, "_BLOCK_ENTRIES", 8)
    blocks = scans._two_absorbing_blocks
    rows = []

    def counted(*args):
        for xs, ys, hit in blocks(*args):
            rows.append(len(xs))
            yield xs, ys, hit
    monkeypatch.setattr(scans, "_two_absorbing_blocks", counted)
    ideals = 0
    for ring in build_corpus():
        if ring.size > MAX_SIZE:
            continue
        for p in all_ideals(ring).proper:
            want = oracle_witnesses(p)
            got = scans._scan_two_absorbing(ring, p.mask)
            assert got == (want["twoAbsorbing"], want["weaklyTwoAbsorbing"]), \
                (ring.text, p.elements)
            ideals += 1
    for text in LARGE_RINGS:
        ring = build_ring_text(text)
        for p in all_ideals(ring).proper:
            got = scans._scan_two_absorbing(ring, p.mask)
            assert got == plane_two_absorbing(p), (text, p.elements)
            ideals += 1
    assert (ideals, len(rows), rows.count(1)) == (1090, 3078, 1967)


def test_two_absorbing_scan_matches_planes_on_damaged_unit_data():
    """On rings whose largest unit is marked a nonunit, the 2-absorbing
    scan draws its candidates and orbits from the declared unit data; it
    must still report the witnesses of the planes, which read no unit
    data."""
    ideals = 0
    for ring in fault_rings():
        for p in all_ideals(ring).proper:
            where = (ring.text, p.elements)
            assert _scan_two_absorbing(ring, p.mask) == plane_two_absorbing(p), where
            ideals += 1
    assert ideals == 156


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
            zeros = find_one_triple_zeros(p)
            got = np.fromiter(chain.from_iterable(zeros), dtype=np.intp).reshape(-1, 3)
            want = np.stack(plane_triple_zeros(p), axis=1)
            assert np.array_equal(got, want), where
            triples += len(want)
    assert (w1ap, triples) == (46, 8352882)


def test_prime_scan_matches_plane_on_damaged_unit_data():
    """On rings whose largest unit is marked a nonunit, the reps the
    prime scan runs over include the least declared nonunit of a class
    of true units: the scan must still report the plane's witnesses."""
    ideals = 0
    for ring in fault_rings():
        for p in all_ideals(ring).proper:
            where = (ring.text, p.elements)
            assert _scan_prime(ring, p.mask) == plane_prime(p), where
            ideals += 1
    assert ideals == 156


def test_one_absorbing_scan_matches_planes_on_damaged_unit_data():
    """On rings whose largest unit is marked a nonunit, the class of that
    element holds units too: the scan must still report the planes'
    witnesses over the nonunits as declared."""
    ideals = 0
    for ring in fault_rings():
        for p in all_ideals(ring).proper:
            where = (ring.text, p.elements)
            assert _scan_one_absorbing(ring, p.mask) == plane_one_absorbing(p), where
            ideals += 1
    assert ideals == 156


def test_tmm_characterize_matches_reference_on_damaged_unit_data():
    """On rings whose largest unit is marked a nonunit, that unit is a
    class rep whose principal ideal is the whole ring: each condition
    must still be the reference's over the nonunits as declared."""
    ideals = 0
    for ring in fault_rings():
        for p in all_ideals(ring).proper:
            assert tmm_characterize(p) == oracle_characterize(p), (ring.text, p.elements)
            ideals += 1
    assert ideals == 156


def test_relabeled_fault_corpus_matches_the_references():
    """Each ring of the fault corpus rebuilt under three random
    relabelings, 0 and 1 included, and damaged again at the relabeled
    index of its damaged unit: the least elements that the scans argue
    about move, and the declared unit data is still wrong. The prime,
    2-absorbing and 1-absorbing witnesses must be the planes', and the
    six conditions of tmm_characterize the reference's."""
    rng = np.random.default_rng(0)
    ideals = 0
    for _ in range(3):
        for text in FAULT_TEXTS:
            ring = build_ring_text(text)
            perm = rng.permutation(ring.size)
            r = corrupt_unit_scan(relabeled(ring, perm), int(perm[damaged_unit(ring)]))
            for p in all_ideals(r).proper:
                where = (text, perm.tolist(), p.elements)
                assert _scan_prime(r, p.mask) == plane_prime(p), where
                assert _scan_two_absorbing(r, p.mask) == plane_two_absorbing(p), where
                assert _scan_one_absorbing(r, p.mask) == plane_one_absorbing(p), where
                assert tmm_characterize(p) == oracle_characterize(p), where
                ideals += 1
    assert ideals == 156


def _block_predicates(p, blocks, j) -> tuple:
    """Folded over the blocks of the class cube of P: the number of
    member triples, sizes[a] * sizes[b] * sizes[c] per class triple;
    whether some xy lies outside the ideal j; whether some triple
    qualifies, with xz and yz outside P; whether a qualifying xz or yz
    lies outside j; whether a qualifying x, y or z does; and whether
    some xy, xz or yz does."""
    cl = p.ring.nonunit_classes
    sizes, in_p = cl.sizes, p.mask[cl.ab]
    out_j, rep_out_j = ~j.mask[cl.ab], ~j.mask[cl.reps]
    count, xy, qual, strong, member, any_out = 0, False, False, False, False, False
    for xs, cube in blocks:
        count += int(sizes[xs] @ (cube @ sizes) @ sizes)
        xy |= (cube & out_j[xs, :, None]).any()
        q = cube & ~in_p[xs, None, :] & ~in_p[None]
        qual |= q.any()
        strong |= (q & (out_j[xs, None, :] | out_j[None])).any()
        member |= (q & (rep_out_j[xs, None, None] | rep_out_j[:, None] | rep_out_j)).any()
        any_out |= (cube & (out_j[xs, :, None] | out_j[xs, None, :] | out_j[None])).any()
    return count, *(bool(v) for v in (xy, qual, strong, member, any_out))


def _oracle_predicates(p, triples, j) -> tuple:
    """The same predicates over the listed oracle_triple_zeros."""
    mul, out_j = p.ring.mul, ~j.mask
    x, y, z = triples.T
    xy, xz, yz = mul[x, y], mul[x, z], mul[y, z]
    q = ~p.mask[xz] & ~p.mask[yz]
    return (len(x), bool(out_j[xy].any()), bool(q.any()),
            bool((out_j[xz] | out_j[yz])[q].any()),
            bool((out_j[x] | out_j[y] | out_j[z])[q].any()),
            bool((out_j[xy] | out_j[xz] | out_j[yz]).any()))


def test_class_triples_count_the_oracle_triple_zeros():
    """The class triples of the blocks stand for the 1-triple zeros of P:
    the member count and each predicate that the triple-zero checks fold
    over the blocks must equal the same predicate over the oracle's
    list, for every weakly 1-absorbing prime P and every member j of the
    lattice, (0 : P) and (0 : P^2) among them. Each predicate must take
    both values."""
    tested, seen = 0, set()
    for ring in build_corpus():
        if ring.size > MAX_SIZE:
            continue
        lat = all_ideals(ring)
        for p in lat.proper:
            if not is_weakly_one_absorbing_prime(p).holds:
                continue
            blocks = list(_triple_zero_blocks(p))
            triples = np.array(oracle_triple_zeros(p), dtype=np.intp).reshape(-1, 3)
            for j in lat:
                got = _block_predicates(p, blocks, j)
                assert got == _oracle_predicates(p, triples, j), \
                    (ring.text, p.elements, j.elements)
                seen.update(enumerate(got[1:]))
            tested += got[0] > 0
    assert tested > 100, tested
    assert seen == {(i, v) for i in range(5) for v in (False, True)}


def test_triple_zero_checks_at_a_small_budget(monkeypatch):
    """At the default budget each corpus ring's class cube is one block;
    with a budget of one entry every x class is its own block. The three
    triple-zero checks must give the same results at both."""
    scans = importlib.import_module("idealis.classify")
    theorems = importlib.import_module("idealis.theorems")
    rings = build_corpus()
    names = ("triple_zero_annihilation", "reduced_triple_zero", "idealization_transfer")
    calls = []

    def counted(*args):
        calls.append([])
        for xs, cube in scans._triple_zero_blocks(*args):
            calls[-1].append(len(cube))
            yield xs, cube
    monkeypatch.setattr(theorems, "_triple_zero_blocks", counted)
    want = [theorems.CHECKS[name](rings) for name in names]
    assert all(c.tested > 0 for c in want)
    assert max(map(len, calls)) == 1
    calls.clear()
    monkeypatch.setattr(scans, "_BLOCK_ENTRIES", 1)
    assert [theorems.CHECKS[name](rings) for name in names] == want
    assert max(map(len, calls)) > 1 and {n for c in calls for n in c} == {1}


def test_one_absorbing_table_cells_on_large_rings(monkeypatch):
    """Cells of the 1-absorbing table, rep products outside P by reps
    outside P, summed over the proper ideals of LARGE_RINGS. Over every
    nonunit product and every nonunit the table had 2136500 cells;
    counts, unlike times, hold on any host."""
    scans = importlib.import_module("idealis.classify")
    table = scans._one_absorbing_table
    cells = []

    def counted(ring, mask):
        out = table(ring, mask)
        cells.append(out[-1].size)
        return out
    monkeypatch.setattr(scans, "_one_absorbing_table", counted)
    for text in LARGE_RINGS:
        ring = build_ring_text(text)
        for p in all_ideals(ring).proper:
            scans._scan_one_absorbing(ring, p.mask)     # past the scan memo
    assert (len(cells), sum(cells)) == (207, 245076)


def test_one_absorbing_witness_outside_the_least_hit_row():
    """The 1-absorbing table orders its rows w = x*y by the first pair
    giving each w, so its first row-major hit is the least witness.
    These are the corpus ideals whose strict or weak witness has an x*y
    above the least w with a hit of that kind: reading the rows in order
    of w would report a pair that is not the least."""
    cases, strict, weak = [], 0, 0
    for ring in build_corpus():
        nu = ring.nonunits
        for p in all_ideals(ring).proper:
            mask = p.mask
            ws = np.unique(ring.mul[np.ix_(nu, nu)])
            ws = ws[~mask[ws]]
            prods = ring.mul[np.ix_(ws, nu[~mask[nu]])]
            hits = mask[prods]
            want = plane_one_absorbing(p)
            above = [wit is not None and ring.mul[wit[0], wit[1]] != ws[viol.any(axis=1)][0]
                     for wit, viol in zip(want, (hits, hits & (prods != ring.zero)))]
            if not any(above):
                continue
            where = (ring.text, p.elements)
            assert is_one_absorbing_prime(p).witness == want[0], where
            assert is_weakly_one_absorbing_prime(p).witness == want[1], where
            cases.append((*where, *want))
            strict += above[0]
            weak += above[1]
    assert (len(cases), strict, weak) == (183, 106, 130)
    assert cases[3] == ("Z12", (0, 6), (2, 2, 3), (3, 3, 2))
