"""The checks that construction trusts, run as test oracles.

A FiniteRing is proved a ring by rings._verify_ring alone, which checks
the triple axioms on generator slices; here the literal n^3 cubes of
axiom_oracle must agree with it on every default-corpus ring of at most
64 elements, on Hypothesis rings, and on one table for each triple axiom
that breaks that axiom and nothing else. One table for each check that
verification makes over pairs (commutativity, both identities,
additive inverses, 0*x = 0) breaks that check alone and is rejected
with its message.

ideals.py builds the lattice members, the ideal arithmetic and the
ideals transported along maps without checking them. Each must equal
the validated Ideal of the set that defines it, so it passes the
checks of Ideal(...): the lattice members and the images and preimages along
every quotient and localization map, on the same rings, and the ideal
arithmetic, the annihilators and the ideal_gen of every member's
spanning set on the corpus rings. Each of them, and each validated
Ideal, holds its members as a read-only boolean mask of shape (n,)
whose True entries are its elements; a lattice member's mask shares
memory with the lattice's read-only masks.

A Homomorphism is proved on the rows of its source's additive
generators. On every quotient and localization map of the same rings,
on single-entry changes of those maps that keep 0 and 1 where they
are, and on one map that keeps + but not *, it must accept exactly the
maps the literal comparison over all pairs of axiom_oracle accepts,
and name in each rejection a generator and a pair at which the first
equation that fails does fail.
"""

import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from axiom_oracle import homomorphism_literal, verify_triples_literal
from conftest import capped
from lattice_oracle import additive_closure
from idealis import (
    FiniteRing,
    Homomorphism,
    Ideal,
    all_ideals,
    annihilator,
    annihilator_ideal,
    build_corpus,
    build_ring,
    colon,
    colon_ideal,
    ideal_gen,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    image_ideal,
    make_local_algebra,
    make_localization,
    make_quotient,
    preimage_ideal,
    unit_ideal,
    zero_ideal,
)
from idealis.expr import Zn
from idealis.rings import additive_generators
from idealis.theorems import _cyclic_mult_sets
from test_lattice_oracle import EXPRS, MAX_SIZE


@pytest.fixture(scope="module")
def small_corpus():
    return [r for r in build_corpus() if r.size <= MAX_SIZE]


def test_default_corpus_tables_pass_the_literal_cubes(small_corpus):
    for ring in small_corpus:
        verify_triples_literal(ring.add, ring.mul)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(EXPRS)
def test_random_rings_pass_the_literal_cubes(expr):
    ring = capped(MAX_SIZE, build_ring, expr)
    verify_triples_literal(ring.add, ring.mul)


def _f2_algebra(basis_products) -> tuple[np.ndarray, np.ndarray]:
    """Tables of the commutative F2-algebra with basis 1, x, y and the
    given products of x and y, bilinear by construction: element
    c0 + c1*x + c2*y is stored at index c0 + 2*c1 + 4*c2."""
    n = 8
    bits = (np.arange(n)[:, None] >> np.arange(3)) & 1
    table = np.zeros((3, 3), dtype=int)
    table[0] = table[:, 0] = [1, 2, 4]              # 1 is the identity
    for (i, j), v in basis_products.items():
        table[i, j] = table[j, i] = v
    add = np.arange(n)[:, None] ^ np.arange(n)[None, :]
    mul = np.zeros((n, n), dtype=int)
    for i in range(3):
        for j in range(3):
            on = (bits[:, i, None] & bits[None, :, j]).astype(bool)
            mul[on] ^= table[i, j]
    return add, mul


# each table keeps commutativity, both identities, additive inverses and
# 0*x = 0, and breaks exactly one triple axiom
BROKEN_AXIOM_TABLES = {
    # 1 + c = 1 for c != 1, every a + a = 0, and the products of elements
    # other than 1 are 0: * distributes, but (1 + 1) + 2 != 1 + (1 + 2)
    "+ not associative": (
        [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        [[0, 0, 0], [0, 1, 2], [0, 2, 0]]),
    # x*x = y, x*y = x, y*y = 0: (x*x)*y = 0 but x*(x*y) = y
    "* not associative": _f2_algebra({(1, 1): 4, (1, 2): 2, (2, 2): 0}),
    # Z4's addition; the products of elements other than 1 are 0, an
    # associative monoid, but 3*(1 + 1) = 0 while 3*1 + 3*1 = 2
    "* not distributive": (
        [[(a + b) % 4 for b in range(4)] for a in range(4)],
        [[a * b if 1 in (a, b) else 0 for b in range(4)] for a in range(4)]),
}


def _broken_cubes(add, mul) -> list[str]:
    """The triple axioms that fail on the literal cubes."""
    cubes = {
        "+ not associative": (add[add], add[:, add]),
        "* not associative": (mul[mul], mul[:, mul]),
        "* not distributive": (mul[:, add], add[mul[:, :, None], mul[:, None, :]]),
    }
    return [name for name, (lhs, rhs) in cubes.items()
            if not np.array_equal(lhs, rhs)]


@pytest.mark.parametrize("axiom", list(BROKEN_AXIOM_TABLES))
def test_each_broken_triple_axiom_is_rejected_by_the_generator_slices(axiom):
    add, mul = (np.array(t) for t in BROKEN_AXIOM_TABLES[axiom])
    assert _broken_cubes(add, mul) == [axiom]
    with pytest.raises(ValueError, match="^" + axiom.replace("+", r"\+")
                       .replace("*", r"\*")) as proved:
        FiniteRing(add, mul, 0, 1, Zn(len(add)))
    with pytest.raises(ValueError) as literal:
        verify_triples_literal(add, mul)
    assert str(proved.value).split(" at ")[0] == str(literal.value).split(" at ")[0]


def _upper_triangular_f2() -> tuple[np.ndarray, np.ndarray]:
    """Tables of the 2 x 2 upper triangular matrices over F2, a ring
    with 1 that is not commutative: [[a, b], [0, d]] is stored at index
    a + 2*b + 4*(a ^ d), so 0 and 1 sit at indices 0 and 1."""
    i = np.arange(8)
    a, b, d = i & 1, i >> 1 & 1, (i ^ i >> 2) & 1
    pa = a[:, None] & a
    pb = (a[:, None] & b) ^ (b[:, None] & d)
    pd = d[:, None] & d
    return i[:, None] ^ i, pa + 2 * pb + 4 * (pa ^ pd)


_Z3_ADD = [[(a + b) % 3 for b in range(3)] for a in range(3)]
_Z3_MUL = [[a * b % 3 for b in range(3)] for a in range(3)]

# each table, with 0 and 1 at indices 0 and 1, breaks exactly one of the
# checks verification makes over pairs, and is rejected with its message
BROKEN_PAIRWISE_TABLES = {
    "* not commutative at (2, 4)": _upper_triangular_f2(),
    # 0 + 0 = 1, though every row holds a 0
    "0 is not an additive identity": (
        [[1, 0, 2], [0, 1, 0], [2, 0, 1]], _Z3_MUL),
    # the zero product
    "1 is not a multiplicative identity": (_Z3_ADD, [[0] * 3] * 3),
    # + is max: 0 is its identity, and no sum of 1 or 2 is 0
    "element 1 has no additive inverse": (
        [[0, 1, 2], [1, 1, 2], [2, 2, 2]], _Z3_MUL),
    # 0 * 2 = 1
    "0 * x != 0 for some x": (_Z3_ADD, [[0, 0, 1], [0, 1, 2], [1, 2, 1]]),
}


def _broken_pairwise_checks(add, mul) -> list[str]:
    """The pairwise checks that fail, with 0 and 1 at indices 0 and 1."""
    idx = np.arange(len(add))
    checks = {
        "not commutative": (add == add.T).all() and (mul == mul.T).all(),
        "0 is not an additive identity": (add[0] == idx).all(),
        "1 is not a multiplicative identity": (mul[1] == idx).all(),
        "has no additive inverse": (add == 0).any(axis=1).all(),
        "0 * x != 0": (mul[0] == 0).all(),
    }
    return [name for name, holds in checks.items() if not holds]


@pytest.mark.parametrize("message", list(BROKEN_PAIRWISE_TABLES))
def test_each_broken_pairwise_check_is_rejected_with_its_message(message):
    add, mul = (np.array(t) for t in BROKEN_PAIRWISE_TABLES[message])
    broken = _broken_pairwise_checks(add, mul)
    assert len(broken) == 1 and broken[0] in message
    with pytest.raises(ValueError) as err:
        FiniteRing(add, mul, 0, 1, Zn(len(add)))
    assert str(err.value) == message


def _assert_mask_contract(p: Ideal) -> None:
    """p's mask is a read-only boolean array of shape (n,) whose True
    entries are p's elements."""
    m = p.mask
    assert m.dtype == bool and m.shape == (p.ring.size,), p
    assert not m.flags.writeable, p
    assert tuple(np.flatnonzero(m).tolist()) == p.elements, p


def _assert_is_its_validated_twin(p: Ideal, elements) -> None:
    """p equals the Ideal that validates its defining set, so p holds the
    same elements, which pass the checks of Ideal(...), and both keep the
    mask contract."""
    twin = Ideal(p.ring, [int(a) for a in elements])
    assert p == twin, p
    _assert_mask_contract(p)
    _assert_mask_contract(twin)


def _maps(ring) -> list[Homomorphism]:
    """Every quotient and localization map of the ring, one per distinct
    mapping: maps are onto, so a map's target tables follow from its
    mapping."""
    maps = [make_quotient(ring, q)[1] for q in all_ideals(ring).proper]
    maps += [make_localization(ring, s)[1] for s in _cyclic_mult_sets(ring)]
    return list({f.mapping.tobytes(): f for f in maps}.values())


def assert_maps_transport_ideals(ring) -> None:
    """Images under every quotient and localization map of the ring, and
    preimages of every ideal of their targets."""
    lat = all_ideals(ring)
    assert not lat.masks.flags.writeable
    for p in lat:
        _assert_is_its_validated_twin(p, p.elements)
        assert np.shares_memory(p.mask, lat.masks), p
    for f in _maps(ring):
        images = f.mapping.tolist()
        for p in lat:
            _assert_is_its_validated_twin(image_ideal(f, p),
                                          {images[a] for a in p.elements})
        for p in all_ideals(f.target):
            members = set(p.elements)
            _assert_is_its_validated_twin(
                preimage_ideal(f, p),
                [a for a, v in enumerate(images) if v in members])


def assert_arithmetic_builds_ideals(ring) -> None:
    """Sums, intersections and products of every pair of ideals (i <= j
    suffices, as they are symmetric), every (I : J), (I : x) for one
    generator x of each principal ideal: in a finite ring, (x) = (y)
    makes y a unit multiple of x, and then (I : x) = (I : y); the
    annihilators of those x and of every ideal; and the ideal each
    member's spanning set generates, the additive closure of the
    multiples of its generators. A member is principal when its spanning
    row is 0 past the first column."""
    lat = all_ideals(ring)
    _assert_is_its_validated_twin(zero_ideal(ring), [ring.zero])
    _assert_is_its_validated_twin(unit_ideal(ring), range(ring.size))
    add, mul = ring.add.tolist(), ring.mul.tolist()
    principal = [int(g[0]) for g in lat.spanning if (g[1:] == ring.zero).all()]
    for x in principal:
        _assert_is_its_validated_twin(
            annihilator(ring, x), [r for r in range(ring.size) if mul[r][x] == ring.zero])
    for j in lat:
        _assert_is_its_validated_twin(
            annihilator_ideal(j), [r for r in range(ring.size)
                                   if all(mul[r][y] == ring.zero for y in j.elements)])
    for a, i in enumerate(lat):
        members = set(i.elements)
        gens = lat.spanning[a]
        _assert_is_its_validated_twin(
            ideal_gen(ring, gens),
            additive_closure(ring, [mul[r][g] for r in range(ring.size) for g in gens]))
        for x in principal:
            _assert_is_its_validated_twin(
                colon(i, x), [r for r in range(ring.size) if mul[r][x] in members])
        for b, j in enumerate(lat):
            _assert_is_its_validated_twin(
                colon_ideal(i, j), [r for r in range(ring.size)
                                    if all(mul[r][y] in members for y in j.elements)])
            if b < a:
                continue
            _assert_is_its_validated_twin(
                ideal_sum(i, j), {add[x][y] for x in i.elements for y in j.elements})
            _assert_is_its_validated_twin(
                ideal_intersect(i, j), members & set(j.elements))
            prods = [mul[x][y] for x in i.elements for y in j.elements]
            _assert_is_its_validated_twin(ideal_product(i, j),
                                          additive_closure(ring, prods))


def test_default_corpus_trusted_ideals_pass_the_ideal_check(small_corpus):
    for ring in small_corpus:
        assert_maps_transport_ideals(ring)
        assert_arithmetic_builds_ideals(ring)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(EXPRS)
def test_random_rings_trusted_ideals_pass_the_ideal_check(expr):
    assert_maps_transport_ideals(capped(MAX_SIZE, build_ring, expr))


_MAP_FAULT = re.compile(r"f\(a(.)b\) != f\(a\)\1f\(b\) at \((\d+), (\d+)\)")


def assert_map_check_is_the_literal_one(source, target, mapping) -> None:
    """Homomorphism accepts a map that keeps 0 and 1 exactly when the
    literal comparison finds no failing pair, and otherwise names a pair
    (a, b) of the first equation that fails, with a a generator."""
    f = np.asarray(mapping)
    assert f[source.zero] == target.zero and f[source.one] == target.one
    viol = homomorphism_literal(source, target, f)
    failing = [op for op, mask in viol.items() if mask.any()]
    try:
        Homomorphism(source, target, f)
    except ValueError as err:
        op, a, b = _MAP_FAULT.fullmatch(str(err)).groups()
        assert failing and op == failing[0], (str(err), failing)
        assert viol[op][int(a), int(b)], str(err)
        assert int(a) in additive_generators(source.add, source.zero), str(err)
    else:
        assert not failing, failing


def assert_map_checks_match_the_literal_one(ring, rnd: random.Random) -> None:
    """Every quotient and localization map of the ring, and three
    single-entry changes of each, at elements other than 0 and 1."""
    movable = [a for a in range(ring.size) if a not in (ring.zero, ring.one)]
    for hom in _maps(ring):
        assert_map_check_is_the_literal_one(ring, hom.target, hom.mapping)
        for a in rnd.sample(movable, min(3, len(movable))):
            changed = np.array(hom.mapping)
            changed[a] = (changed[a] + rnd.randrange(1, hom.target.size)) % hom.target.size
            assert_map_check_is_the_literal_one(ring, hom.target, changed)


def test_default_corpus_map_checks_match_the_literal_one(small_corpus):
    rnd = random.Random(0)
    for ring in small_corpus:
        assert_map_checks_match_the_literal_one(ring, rnd)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(EXPRS, st.randoms(use_true_random=False))
def test_random_rings_map_checks_match_the_literal_one(expr, rnd):
    assert_map_checks_match_the_literal_one(capped(MAX_SIZE, build_ring, expr), rnd)


def test_a_map_that_keeps_only_sums_is_rejected_by_the_product_check():
    """On LocalAlg(2), 1 -> 1, x -> 1 + x, y -> y extended additively
    keeps + and 1, but (1 + x)^2 = 1 while x^2 = 0. A change of one
    entry almost always breaks + as well, so this map is the one that
    only the check of * rejects."""
    ring = make_local_algebra(2)
    f = [0, 1, 6, 7, 4, 5, 2, 3]
    viol = homomorphism_literal(ring, ring, f)
    assert not viol["+"].any() and viol["*"].any()
    assert_map_check_is_the_literal_one(ring, ring, f)
