"""Ring constructors, table verification, and homomorphisms.

Every constructed table is cross-checked against a slower independent
computation: modular arithmetic for Z_n, gcd for units, CRT for
products, coset arithmetic for quotients.
"""

import math

import numpy as np
import pytest

from idealis import (
    CapExceeded,
    FiniteRing,
    Homomorphism,
    ImproperIdeal,
    NotMultClosed,
    NotPrime,
    ZeroInS,
    ideal_gen,
    make_idealization,
    make_local_algebra,
    make_localization,
    make_product,
    make_quotient,
    make_zn,
    zero_ideal,
    zn_isomorphism,
)
from idealis.expr import Zn


def test_zn_tables_are_modular_arithmetic():
    for n in (2, 3, 7, 12):
        r = make_zn(n)
        for a in range(n):
            for b in range(n):
                assert r.add[a, b] == (a + b) % n
                assert r.mul[a, b] == (a * b) % n
        assert r.zero == 0 and r.one == 1
        assert r.text == f"Z{n}"


def test_zn_units_match_gcd():
    for n in range(2, 41):
        r = make_zn(n)
        expected = {a for a in range(n) if math.gcd(a, n) == 1}
        assert r.units == expected
        assert set(r.nonunits.tolist()) == set(range(n)) - expected


def test_neg_is_additive_inverse():
    r = make_zn(12)
    for a in range(12):
        assert r.add[a, r.neg[a]] == 0


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
    assert q.units == {q.one}


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
        assert loc.is_unit(can.mapping[s])


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
    assert t.units == {2, 3}
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
    assert len(r.units) == 4
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


def test_homomorphism_rejects_non_structure_maps():
    r6, r3 = make_zn(6), make_zn(3)
    Homomorphism(r6, r3, [a % 3 for a in range(6)])   # reduction is fine
    with pytest.raises(ValueError):
        Homomorphism(r6, r3, [0] * 6)                 # 1 -> 0
    with pytest.raises(ValueError):
        Homomorphism(r6, r3, [(a + 1) % 3 for a in range(6)])


def test_homomorphism_flags():
    r = make_zn(6)
    ident = Homomorphism(r, r, list(range(6)))
    assert ident.is_injective and ident.is_surjective
    assert ident.preserves_nonunits
    assert ident.kernel == (0,)
    red = Homomorphism(r, make_zn(3), [a % 3 for a in range(6)])
    assert red.is_surjective and not red.is_injective
    assert set(red.kernel) == {0, 3}
