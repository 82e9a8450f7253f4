"""Ring constructors, table verification, and homomorphisms.

Every constructed table is cross-checked against a slower independent
computation: modular arithmetic for Z_n, gcd for units, CRT for
products, coset arithmetic for quotients.
"""

import gc
import importlib
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from axiom_oracle import homomorphism_literal
from idealis import (
    CapExceeded,
    FiniteRing,
    Homomorphism,
    Ideal,
    ImproperIdeal,
    NotMultClosed,
    NotPrime,
    ZeroInS,
    all_ideals,
    build_corpus,
    build_ring_text,
    classify,
    ideal_gen,
    make_idealization,
    make_local_algebra,
    make_localization,
    make_product,
    make_quotient,
    make_zn,
    run_checks,
    zero_ideal,
    zn_isomorphism,
)
from idealis.expr import Zn

rings = importlib.import_module("idealis.rings")


def test_zn_tables_are_modular_arithmetic():
    for n in (2, 3, 7, 12, 97, 720, 1024):
        r = make_zn(n, cap=n)
        idx = np.arange(n, dtype=np.int64)
        assert r.add.dtype == r.mul.dtype == np.int32
        assert np.array_equal(r.add, (idx[:, None] + idx) % n), n
        assert np.array_equal(r.mul, (idx[:, None] * idx) % n), n
        assert r.zero == 0 and r.one == 1
        assert r.text == f"Z{n}"


def _build_peak(build) -> int:
    """tracemalloc peak, in bytes, of one call of build()."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_zn_build_peak_memory():
    # the two int32 tables take 8*n^2 bytes and the blocks of rows that
    # verification and the unit scans compare about 0.8*n^2 more; whole
    # n x n boolean temporaries for commutativity, neg and the unit and
    # regular-element scans peak near 10.3*n^2, whole n x n verification
    # slices near 17*n^2
    n = 720
    peak = _build_peak(lambda: make_zn(n, cap=n))
    assert peak <= 9.5 * n * n, peak


def test_projection_check_peak_memory():
    # the projection from Z720 is checked on the row of Z720's one
    # additive generator, and the build peaks near 2.5*n^2 bytes, as it
    # did with blocks of rows; whole n x n images of the tables peak near
    # 9*n^2
    n = 720
    r = make_zn(n)
    q = ideal_gen(r, [120])
    peak = _build_peak(lambda: make_quotient(r, q))
    assert peak <= 4 * n * n, peak


def test_twin_build_peak_memory():
    # a build with a live ring's tables compares them with the live ones in
    # blocks of rows, near 8.1*n^2 bytes with its own two int32 tables;
    # whole n x n comparisons peak near 9*n^2
    n = 720
    live = make_zn(n, cap=n)
    twins = []
    peak = _build_peak(lambda: twins.append(make_zn(n, cap=n)))
    assert twins[0].mul is live.mul
    assert peak <= 8.5 * n * n, peak


def test_idealization_build_peak_memory():
    # int32 builds peak near 18*n^2 bytes, int64 ones near 50*n^2
    base = make_zn(64)
    j = ideal_gen(base, [4])
    n = 64 * 4                           # Z64 (+) Z64/(4)
    peak = _build_peak(lambda: make_idealization(base, j, cap=n))
    assert peak <= 20 * n * n, peak


def test_local_algebra_build_peak_memory():
    # one n x n broadcast sum per table peaks near 17*n^2 bytes, int64
    # digit arithmetic near 41*n^2
    n = 7 ** 3
    peak = _build_peak(lambda: make_local_algebra(7, cap=n))
    assert peak <= 20 * n * n, peak


def _idealization_formula(base, j):
    """int64 tables of base (+) base/j, by (a, m)(b, m') = (ab, am' + bm)
    on coset representatives; the coset rank orders cosets by their
    least element."""
    least = base.add[:, j.mask].min(axis=1)
    reps, rank = np.unique(least, return_inverse=True)
    k = len(reps)
    a, m = np.divmod(np.arange(base.size * k, dtype=np.int64), k)
    ar, mr, ac, mc = a[:, None], reps[m][:, None], a[None, :], reps[m][None, :]
    add = base.add.astype(np.int64)[ar, ac] * k + rank[base.add[mr, mc]]
    mul = (base.mul.astype(np.int64)[ar, ac] * k
           + rank[base.add[base.mul[ar, mc], base.mul[ac, mr]]])
    return add, mul


def _local_algebra_formula(p):
    """int64 tables of k[X, Y]/(X^2, XY, Y^2) on a*p^2 + b*p + c."""
    idx = np.arange(p ** 3, dtype=np.int64)
    a, b, c = idx // p ** 2, (idx // p) % p, idx % p
    add = (((a[:, None] + a) % p) * p ** 2 + ((b[:, None] + b) % p) * p
           + (c[:, None] + c) % p)
    mul = ((a[:, None] * a) % p * p ** 2
           + (a[:, None] * b + b[:, None] * a) % p * p
           + (a[:, None] * c + c[:, None] * a) % p)
    return add, mul


def _idealize(base, g):
    return make_idealization(base, ideal_gen(base, [g]), cap=1024)


def test_idealization_and_local_algebra_tables_equal_the_int64_formula():
    rings = [_idealize(make_zn(n), g)
             for n, g in ((2, 0), (4, 2), (12, 4), (30, 6), (64, 4), (16, 0))]
    rings.append(_idealize(make_local_algebra(2), 2))
    cases = [(r, _idealization_formula(*r.idealization)) for r in rings]
    cases += [(make_local_algebra(p), _local_algebra_formula(p))
              for p in (2, 3, 5, 7)]
    for r, (add, mul) in cases:
        assert r.add.dtype == r.mul.dtype == np.int32
        assert np.array_equal(r.add, add), r.text
        assert np.array_equal(r.mul, mul), r.text


def test_zn_units_match_gcd():
    for n in range(2, 41):
        r = make_zn(n)
        expected = {a for a in range(n) if math.gcd(a, n) == 1}
        assert set(np.flatnonzero(r.unit_mask).tolist()) == expected
        assert set(r.nonunits.tolist()) == set(range(n)) - expected


def test_corrupt_tables_rejected():
    r = make_zn(6)
    add = np.array(r.add)
    mul = np.array(r.mul)
    bad_mul = mul.copy()
    bad_mul[2, 3] = 1
    bad_mul[3, 2] = 1
    with pytest.raises(ValueError):
        FiniteRing(add, bad_mul, 0, 1, Zn(6))
    bad_add = add.copy()
    bad_add[4, 5] = 0
    bad_add[5, 4] = 0
    with pytest.raises(ValueError):
        FiniteRing(bad_add, mul, 0, 1, Zn(6))
    with pytest.raises(ValueError):
        FiniteRing(add, mul, 0, 0, Zn(6))


def test_fault_in_a_later_block_is_reported_at_its_first_position():
    # Z720's tables with x*y damaged at (100, 200) and (200, 100), past
    # the first block of rows that verification compares
    n = 720
    r = make_zn(n)
    mul = np.array(r.mul)
    assert mul[100, 200] != 7 and rings._BLOCK_ENTRIES // n <= 100
    mul[100, 200] = mul[200, 100] = 7
    add = np.array(r.add)
    assert rings.additive_generators(add, 0) == [1]
    lhs, rhs = mul[:, add[1]], add[mul[:, 1][:, None], mul]
    a, x = np.argwhere(lhs != rhs)[0]       # the whole-table first mismatch
    assert a >= 91
    with pytest.raises(ValueError) as err:
        FiniteRing(add, mul, 0, 1, Zn(720), cap=720)
    assert str(err.value) == f"* not distributive at ({a}, 1, {x})"


def test_map_fault_is_reported_at_a_generator_pair():
    """A damaged image of the projection Z720 -> Z720/(120) is reported
    at a pair (g, b), with g in Z720's one additive generator, where the
    literal comparison over all pairs confirms the failure."""
    r = make_zn(720)
    rq, proj = make_quotient(r, ideal_gen(r, [120]))
    bad = np.array(proj.mapping)
    bad[500] = (bad[500] + 1) % rq.size
    with pytest.raises(ValueError) as err:
        Homomorphism(r, rq, bad)
    a, b = (int(v) for v in re.fullmatch(
        r"f\(a\+b\) != f\(a\)\+f\(b\) at \((\d+), (\d+)\)", str(err.value)).groups())
    assert a in rings.additive_generators(r.add, r.zero)      # [1]
    assert homomorphism_literal(r, rq, bad)["+"][a, b]


def _counting_proofs(monkeypatch) -> list[int]:
    """The sizes of the tables rings._verify_ring proves from now on."""
    verified = []
    verify = rings._verify_ring
    monkeypatch.setattr(rings, "_verify_ring", lambda add, mul, zero, one:
                        verified.append(len(add)) or verify(add, mul, zero, one))
    return verified


def test_twin_tables_share_the_live_proof(monkeypatch):
    gc.collect()                        # no Z4 or Z12 of an earlier test is alive
    z4 = make_zn(4)
    verified = _counting_proofs(monkeypatch)
    z12 = make_zn(12)
    rq, _ = make_quotient(z12, ideal_gen(z12, [4]))
    assert verified == [12]             # Z12/(4) has exactly Z4's tables
    assert rq.mul is z4.mul and rq.add is z4.add
    assert rq.unit_mask is z4.unit_mask and rq.nonunits is z4.nonunits
    assert rq._scans is z4._scans
    # provenance and the lattice stay per ring
    assert rq.text == "Z12/(4)" and z4.text == "Z4"
    lat = all_ideals(rq)
    assert lat is not all_ideals(z4)
    assert all(p.ring is rq for p in lat)


def test_twins_share_the_proof_not_the_first_ring(monkeypatch):
    gc.collect()                        # no Z6 of an earlier test is alive
    first = make_zn(6)
    proven = first._proven
    # replacing one ring's record, as the fault corpus does, reaches no
    # twin: this forged one leaves Z6 no unit
    first._proven = rings._Proven(proven.add, proven.mul, proven.generators,
                                  np.zeros(6, dtype=bool))
    twin = make_zn(6)
    assert twin._proven is proven and twin.unit_mask is proven.unit_mask
    shared = twin.nonunit_classes
    own = first.nonunit_classes
    assert own.reps.tolist() == list(range(6)) and own.sizes.tolist() == [1] * 6
    assert own.of.tolist() == list(range(6)) and not own.of.flags.writeable
    assert np.array_equal(own.ab, first.mul)
    assert make_zn(6).nonunit_classes is shared
    assert shared.reps.tolist() == [0, 2, 3] and shared.sizes.tolist() == [1, 2, 1]
    assert shared.of.tolist() == [0, 1, 2, 1]         # nonunits 0, 2, 3, 4
    del first, proven
    gc.collect()
    verified = _counting_proofs(monkeypatch)
    again = make_zn(6)
    assert verified == []               # the live twin keeps the proof
    assert again._scans is twin._scans and again.mul is twin.mul


def test_a_ring_holds_only_its_own_data_and_its_record():
    """A first build and a twin alike keep no fact of their tables: each
    is read from the shared record."""
    own = {"size", "zero", "one", "provenance", "factors", "idealization",
           "_lattice", "_proven"}
    for text in ("Z12", "Z2 x Z4/(2)", "Loc(Z12, 1, 3, 9)", "Idealize(Z4, (2))"):
        first, twin = build_ring_text(text), build_ring_text(text)
        assert twin._proven is first._proven
        for r in (first, twin, *(first.factors or ())):
            assert set(vars(r)) == own, r.text


def test_twins_derive_nonunit_classes_once(monkeypatch):
    """Over a pass of every check on the default corpus, each distinct
    table pair gets one computation of its class record, however many
    twins ask. Every ring that computed one is kept alive, so its record
    is too."""
    keys, alive = [], []
    compute = rings._nonunit_classes

    def counted(r):
        keys.append((r.zero, r.one, r.add.tobytes(), r.mul.tobytes()))
        alive.append(r)
        return compute(r)
    monkeypatch.setattr(rings, "_nonunit_classes", counted)
    run_checks(build_corpus())
    assert len(keys) == len(set(keys)) > 200, (len(keys), len(set(keys)))


def _rejections(add, mul) -> list[str]:
    """Messages of two builds of the same bad tables; the first build's
    error stays alive while the second runs."""
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            FiniteRing(add, mul, 0, 1, Zn(6))
        errors.append(err)
    return [str(e.value) for e in errors]


def test_corrupt_copy_of_a_live_ring_is_rejected(monkeypatch):
    add, bad_mul = np.array(make_zn(6).add), np.array(make_zn(6).mul)
    bad_mul[2, 3] = bad_mul[3, 2] = 1
    gc.collect()
    alone = _rejections(add, bad_mul)
    z6 = make_zn(6)
    alive = _rejections(add, bad_mul)
    # every digest collides: only the full table comparison tells them apart
    monkeypatch.setattr(rings, "zlib", SimpleNamespace(crc32=lambda data, value=0: 0))
    twin = make_zn(6)
    colliding = _rejections(add, bad_mul)
    assert make_zn(6).mul is twin.mul is not z6.mul
    assert alive == colliding == alone == [alone[0]] * 2
    assert "not distributive" in alone[0]


def test_registry_empties_when_its_rings_die():
    r = make_zn(30)
    rq, proj = make_quotient(r, ideal_gen(r, [6]))
    for p in all_ideals(rq).proper:
        classify(p)
    assert len(rings._VERIFIED) > 0
    del r, rq, proj, p
    gc.collect()
    assert len(rings._VERIFIED) == 0


def test_nonassociative_table_rejected():
    # x*y = |x - y| over 0..2 is commutative with 0 as a fixed point but
    # not associative; pair it with Z3 addition
    r = make_zn(3)
    bad = np.array([[abs(x - y) for y in range(3)] for x in range(3)])
    with pytest.raises(ValueError):
        FiniteRing(np.array(r.add), bad, 0, 1, Zn(3))


def test_product_is_componentwise():
    r = make_product(make_zn(2), make_zn(3))
    assert r.size == 6
    assert r.text == "Z2 x Z3"
    for a1 in range(2):
        for a2 in range(3):
            for b1 in range(2):
                for b2 in range(3):
                    i, j = a1 * 3 + a2, b1 * 3 + b2
                    assert r.add[i, j] == ((a1 + b1) % 2) * 3 + (a2 + b2) % 3
                    assert r.mul[i, j] == (a1 * b1 % 2) * 3 + (a2 * b2) % 3
    left, right = r.factors
    assert left.size == 2 and right.size == 3
    assert r.idealization is None


def test_product_tables_equal_the_int64_formula():
    z2 = make_zn(2)
    pairs = ((make_zn(12), make_zn(60)), (make_zn(4), make_zn(256)),
             (make_zn(97), z2), (make_local_algebra(3), make_zn(9)),
             (make_product(z2, z2), make_zn(250)),
             (_idealize(make_zn(64), 4), make_zn(3)),
             (z2, make_local_algebra(7)))
    for left, right in pairs:
        r = make_product(left, right, cap=1024)
        a, b = np.divmod(np.arange(r.size, dtype=np.int64), right.size)
        for got, t1, t2 in ((r.add, left.add, right.add),
                            (r.mul, left.mul, right.mul)):
            want = (t1.astype(np.int64)[a[:, None], a] * right.size
                    + t2[b[:, None], b])
            assert got.dtype == np.int32
            assert np.array_equal(got, want), r.text


def test_product_crt_isomorphism():
    iso = zn_isomorphism(make_product(make_zn(2), make_zn(3)))
    assert iso is not None
    assert iso.is_injective and iso.is_surjective
    # k -> k*1 with 1 = (1, 1): k goes to (k mod 2, k mod 3)
    assert iso.mapping.tolist() == [(k % 2) * 3 + k % 3 for k in range(6)]


def test_z4_not_isomorphic_to_klein_product():
    assert zn_isomorphism(make_zn(4)) is not None
    assert zn_isomorphism(make_product(make_zn(2), make_zn(2))) is None


def test_local_algebra_not_cyclic():
    # 8 elements of characteristic 2, so not Z8
    assert zn_isomorphism(make_local_algebra(2)) is None


def test_quotient_cosets():
    r = make_zn(12)
    q, proj = make_quotient(r, ideal_gen(r, [4]))
    assert q.size == 4
    assert proj.is_surjective
    assert set(proj.kernel) == {0, 4, 8}
    # cosets of (4) = {0,4,8}: representatives are least member indices
    for a in range(12):
        for b in range(12):
            same = (a - b) % 4 == 0
            assert (proj.mapping[a] == proj.mapping[b]) == same
    assert zn_isomorphism(q) is not None


def test_quotient_by_zero_is_identity_shape():
    r = make_zn(12)
    q, proj = make_quotient(r, zero_ideal(r))
    assert q.size == 12
    assert proj.is_injective and proj.is_surjective


def test_quotient_to_field():
    r = make_zn(8)
    q, _ = make_quotient(r, ideal_gen(r, [2]))
    assert q.size == 2
    assert np.flatnonzero(q.unit_mask).tolist() == [q.one]


def test_quotient_improper_rejected():
    r = make_zn(6)
    with pytest.raises(ImproperIdeal):
        make_quotient(r, ideal_gen(r, [1]))


def test_localization_golden():
    r = make_zn(12)
    loc, can = make_localization(r, {1, 3, 9})
    assert loc.size == 4
    assert set(can.kernel) == {0, 4, 8}
    assert zn_isomorphism(loc) is not None


def test_localization_at_units_only():
    r = make_zn(12)
    loc, can = make_localization(r, {1})
    assert loc.size == 12
    assert can.is_injective and can.is_surjective


def test_localization_kills_a_factor():
    loc, _ = make_localization(make_zn(6), {1, 2, 4})
    assert zn_isomorphism(loc) is not None


def test_localization_inverts_s():
    r = make_zn(12)
    loc, can = make_localization(r, {1, 3, 9})
    for s in (1, 3, 9):
        assert loc.unit_mask[can.mapping[s]]


def test_localization_bad_sets():
    r = make_zn(12)
    with pytest.raises(NotMultClosed):
        make_localization(r, {1, 2})        # 2*2 = 4 missing
    with pytest.raises(NotMultClosed):
        make_localization(r, {3, 9})        # 1 missing
    with pytest.raises(ZeroInS):
        make_localization(r, {0, 1})


def test_idealization_structure():
    r = make_zn(2)
    t = make_idealization(r, zero_ideal(r))
    assert t.size == 4
    # pairs (a, m) indexed a*2 + m; units are exactly a = 1
    assert np.flatnonzero(t.unit_mask).tolist() == [2, 3]
    assert t.mul[1, 1] == 0      # (0,1)*(0,1) = (0,0)
    assert t.text == "Idealize(Z2, (0))"


def test_idealization_size():
    r = make_zn(4)
    t = make_idealization(r, ideal_gen(r, [2]))
    assert t.size == 8           # 4 * |Z4/(2)| = 4 * 2


def test_idealization_multiplication_rule():
    # over A = Z3 with J = (0) the module is Z3 itself, so the defining
    # formula (x,m)(y,m') = (xy, xm' + ym) is plain modular arithmetic
    r = make_zn(3)
    t = make_idealization(r, zero_ideal(r))
    k = t.module_size
    assert k == 3
    for x in range(3):
        for m in range(k):
            for y in range(3):
                for mp in range(k):
                    got = t.mul[x * k + m, y * k + mp]
                    want = (x * y % 3) * k + (x * mp + y * m) % 3
                    assert got == want


def test_local_algebra():
    r = make_local_algebra(2)
    assert r.size == 8
    assert np.count_nonzero(r.unit_mask) == 4
    # basis order (1, x, y): x = index 2, y = index 1, x*y = 0
    assert r.mul[2, 1] == 0
    assert r.mul[2, 2] == 0
    assert r.mul[1, 1] == 0
    assert make_local_algebra(3).size == 27
    with pytest.raises(NotPrime):
        make_local_algebra(4)


def test_element_cap():
    with pytest.raises(CapExceeded):
        make_zn(2000)
    with pytest.raises(CapExceeded):
        make_zn(10, cap=5)
    assert make_zn(10, cap=10).size == 10


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("IDEALIS_CAP", "30")
    with pytest.raises(CapExceeded):
        make_zn(40)
    monkeypatch.setenv("IDEALIS_CAP", "50")
    assert make_zn(40).size == 40
    for bad in ("abc", "-5", "0"):
        monkeypatch.setenv("IDEALIS_CAP", bad)
        with pytest.raises(ValueError, match="IDEALIS_CAP"):
            make_zn(4)


def test_homomorphism_rejects_non_structure_maps():
    r6, r3 = make_zn(6), make_zn(3)
    Homomorphism(r6, r3, [a % 3 for a in range(6)])   # reduction is fine
    with pytest.raises(ValueError):
        Homomorphism(r6, r3, [0] * 6)                 # 1 -> 0
    with pytest.raises(ValueError):
        Homomorphism(r6, r3, [(a + 1) % 3 for a in range(6)])


def test_entries_the_int32_cast_would_change_are_refused():
    """Tables, maps, identities, S and ideal elements are checked to be
    integers in range before their int32 cast, which would wrap 2^32 to
    0 and truncate 3.5 to 3, as int() would too."""
    r = make_zn(6)
    add, mul = np.array(r.add, dtype=np.int64), np.array(r.mul)
    add[0, 0] = 2 ** 32
    with pytest.raises(ValueError, match="not integers in 0..5"):
        FiniteRing(add, mul, 0, 1, Zn(6))
    add = np.array(r.add, dtype=np.float64)
    add[1, 2] = add[2, 1] = 3.5
    with pytest.raises(ValueError, match="not integers in 0..5"):
        FiniteRing(add, mul, 0, 1, Zn(6))
    m = np.arange(6, dtype=np.int64)
    m[1] = 2 ** 32 + 1
    with pytest.raises(ValueError, match="not integers in 0..5"):
        Homomorphism(r, r, m)
    with pytest.raises(ValueError, match="not integers in 0..5"):
        Homomorphism(r, r, np.arange(6, dtype=np.float64))
    with pytest.raises(TypeError):
        Homomorphism(SimpleNamespace(size=6, zero=0, one=1, add=r.add, mul=r.mul),
                     r, np.arange(6))
    with pytest.raises(ValueError, match="not integers in 0..5"):
        FiniteRing(r.add, r.mul, 0.7, 1.2, Zn(6))
    z12 = make_zn(12)
    with pytest.raises(ValueError, match="not integers in 0..11"):
        make_localization(z12, [1, 3.7, 9])
    for gens in ([4.5], ["4"]):
        with pytest.raises(ValueError, match="not integers in 0..11"):
            ideal_gen(z12, gens)
    with pytest.raises(ValueError, match="not integers in 0..11"):
        Ideal(z12, [0, 4.9, 8])
    # an empty S or generator list keeps its own outcome
    with pytest.raises(NotMultClosed, match="S is empty"):
        make_localization(z12, [])
    assert ideal_gen(z12, []).is_zero
    with pytest.raises(ValueError, match="contains at least 0"):
        Ideal(z12, [])


def test_homomorphism_flags():
    r = make_zn(6)
    ident = Homomorphism(r, r, list(range(6)))
    assert ident.is_injective and ident.is_surjective
    assert ident.preserves_nonunits
    assert ident.kernel == (0,)
    red = Homomorphism(r, make_zn(3), [a % 3 for a in range(6)])
    assert red.is_surjective and not red.is_injective
    assert set(red.kernel) == {0, 3}
