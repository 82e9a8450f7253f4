"""Ideal lattice enumeration and ideal arithmetic.

The independent oracle for Z_n is elementary number theory: ideals are
exactly the (d) for divisors d of n, so lattice size equals the divisor
count and containment mirrors divisibility.
"""

import tracemalloc

import pytest

from idealis import (
    Ideal,
    LatticeCapExceeded,
    all_ideals,
    annihilator,
    annihilator_ideal,
    build_ring_text,
    colon,
    colon_ideal,
    ideal_gen,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    image_ideal,
    is_field,
    is_quasi_local,
    is_reduced,
    jacobson_radical,
    make_idealization,
    make_local_algebra,
    make_product,
    make_quotient,
    make_zn,
    maximal_ideals,
    preimage_ideal,
    radical,
    unit_ideal,
    zero_ideal,
)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_zn_lattice_matches_divisors():
    for n in range(2, 80):
        r = make_zn(n)
        lat = all_ideals(r)
        assert len(lat) == len(_divisors(n))
        for d in _divisors(n):
            expected = tuple(range(0, n, d)) if d < n else (0,)
            assert ideal_gen(r, [d % n]).elements == tuple(sorted(set(expected)))


def test_lattice_order_and_bounds():
    lat = all_ideals(make_zn(36))
    assert lat[0].is_zero
    assert not lat[-1].is_proper
    sizes = [len(p) for p in lat]
    assert sizes == sorted(sizes)
    assert [p.elements for p in lat.proper] == [p.elements for p in lat][:-1]


def test_le_matrix_is_subset_relation():
    lat = all_ideals(make_zn(24))
    for i, p in enumerate(lat):
        for j, q in enumerate(lat):
            assert lat.le[i, j] == (set(p.elements) <= set(q.elements))


def test_z12_covers():
    r = make_zn(12)
    lat = all_ideals(r)
    texts = {p.elements: "(" + ", ".join(str(g) for g in p.generators) + ")"
             for p in lat}
    edges = {(texts[lat[i].elements], texts[lat[j].elements])
             for i, j in lat.covers}
    assert edges == {("(0)", "(6)"), ("(0)", "(4)"), ("(6)", "(3)"),
                     ("(6)", "(2)"), ("(4)", "(2)"), ("(3)", "(1)"),
                     ("(2)", "(1)")}


def test_maximal_ideals():
    r = make_zn(12)
    assert [m.elements for m in maximal_ideals(r)] == [
        tuple(range(0, 12, 3)), tuple(range(0, 12, 2))]
    assert jacobson_radical(r).elements == (0, 6)
    assert is_quasi_local(make_zn(8))
    assert not is_quasi_local(r)


def test_field_and_reduced_predicates():
    assert is_field(make_zn(7))
    assert not is_field(make_zn(6))
    assert is_reduced(make_zn(30))
    assert not is_reduced(make_zn(12))
    assert is_reduced(make_product(make_zn(2), make_zn(3)))


def test_ideal_arithmetic_in_z12():
    r = make_zn(12)
    i4, i6 = ideal_gen(r, [4]), ideal_gen(r, [6])
    assert ideal_sum(i4, i6).elements == tuple(range(0, 12, 2))
    assert ideal_product(i4, i6).elements == (0,)
    assert ideal_intersect(i4, i6).elements == (0,)
    assert colon(i4, 2).elements == tuple(range(0, 12, 2))
    assert colon_ideal(i4, i6).elements == tuple(range(0, 12, 2))
    assert radical(i4).elements == tuple(range(0, 12, 2))
    assert annihilator(r, 4).elements == (0, 3, 6, 9)
    assert annihilator_ideal(i6).elements == (0, 2, 4, 6, 8, 10)


def test_radical_is_idempotent_and_contains():
    for n in (8, 12, 36, 60):
        r = make_zn(n)
        for p in all_ideals(r).proper:
            rad = radical(p)
            assert set(p.elements) <= set(rad.elements)
            assert radical(rad).elements == rad.elements


def test_product_lattice_is_a_box():
    lat = all_ideals(make_product(make_zn(2), make_zn(2)))
    assert len(lat) == 4
    lat6 = all_ideals(make_product(make_zn(4), make_zn(9)))
    assert len(lat6) == 3 * 3


def test_ideal_validation_rejects_non_ideals():
    r = make_zn(12)
    with pytest.raises(ValueError):
        Ideal(r, [0, 1])             # not closed under multiplication by 2
    with pytest.raises(ValueError):
        Ideal(r, [4, 8])             # missing 0
    with pytest.raises(ValueError):
        Ideal(r, [0, 2, 4])          # not closed under addition


def test_ideal_equality_and_generators():
    r = make_zn(12)
    assert ideal_gen(r, [4]) == ideal_gen(r, [8])
    assert ideal_gen(r, [4]).generators == (4,)
    assert ideal_gen(r, [8]).generators == (8,)
    assert zero_ideal(r).generators == (0,)
    assert unit_ideal(r).elements == tuple(range(12))
    assert len({ideal_gen(r, [4]), ideal_gen(r, [8])}) == 1


def test_generators_are_proved_not_given():
    # A presentation comes from the construction that proved the ideal:
    # Ideal takes none from its caller, so (3) cannot present {0, 4, 8}
    # and (13) cannot present anything in Z12.
    r = make_zn(12)
    for gens in ([3], [13]):
        with pytest.raises(TypeError):
            Ideal(r, [0, 4, 8], generators=gens)
    p = Ideal(r, [0, 4, 8])
    assert p.generators == (4,)
    assert ideal_gen(r, p.generators) == p
    with pytest.raises(ValueError):
        ideal_gen(r, [13])


def test_nonprincipal_ideal_generators():
    r = make_local_algebra(2)
    lat = all_ideals(r)
    maximal = maximal_ideals(r)[0]
    assert len(maximal) == 4
    assert lat[lat.index(maximal)].generators == (1, 2)


def test_image_and_preimage_through_projection():
    r = make_zn(12)
    q4 = ideal_gen(r, [4])
    quo, proj = make_quotient(r, q4)
    img = image_ideal(proj, ideal_gen(r, [2]))
    assert len(img) == 2
    back = preimage_ideal(proj, img)
    assert back.elements == tuple(range(0, 12, 2))
    assert preimage_ideal(proj, zero_ideal(quo)).elements == q4.elements


def _idealized_by_maximal(times: int):
    """LocalAlg(2) idealized `times` times by its maximal ideal, the
    nonunits of a local ring: 8 * 2**times elements. The maximal ideal
    squares to zero each time, so the ideals outnumber the elements."""
    r = make_local_algebra(2)
    for _ in range(times):
        r = make_idealization(r, Ideal(r, r.nonunits))
    return r


def test_lattice_cap(monkeypatch):
    # a lattice holds at most max(|A|, element_cap()) members: 17 ideals
    # of 16 elements, and 68 of 32
    for times, size, count in ((1, 16, 17), (2, 32, 68)):
        monkeypatch.setenv("IDEALIS_CAP", str(count - 1))
        ring = _idealized_by_maximal(times)
        assert ring.size == size
        with pytest.raises(LatticeCapExceeded, match=f"more than {count - 1} ideals"):
            all_ideals(ring)
        monkeypatch.setenv("IDEALIS_CAP", str(count))
        assert len(all_ideals(ring)) == count


def test_lattice_cap_on_the_product_of_local_lattices(monkeypatch):
    # the square of the 16-element ring has 256 elements, and its
    # lattice is the product of two local lattices of 17 ideals each
    monkeypatch.setenv("IDEALIS_CAP", "288")
    local = _idealized_by_maximal(1)
    ring = make_product(local, local)
    with pytest.raises(LatticeCapExceeded, match="more than 288 ideals"):
        all_ideals(ring)
    monkeypatch.setenv("IDEALIS_CAP", "16")
    with pytest.raises(LatticeCapExceeded, match="more than 256 ideals"):
        all_ideals(ring)                # the ring's own size bounds it too
    monkeypatch.setenv("IDEALIS_CAP", "289")
    assert len(all_ideals(ring)) == 289


def test_lattice_cached_on_ring():
    r = make_zn(30)
    assert all_ideals(r) is all_ideals(r)


def test_product_table_matches_pairwise_products():
    lat = all_ideals(make_zn(36))
    for i, p in enumerate(lat):
        for j, q in enumerate(lat):
            assert lat[lat.product_table[i, j]].elements == \
                ideal_product(p, q).elements


def test_order_and_product_memory_is_small_in_the_lattice():
    # le is one boolean gather of k x w x k entries, w = 1 on Z2^8, and
    # product_table holds its int32 table and one colon block at a time;
    # neither builds a float copy of the member masks. On Z2^8 there are
    # k = 256 ideals; 2.0 and 6.2 bytes per k^2 were measured.
    lat = all_ideals(build_ring_text(" x ".join(["Z2"] * 8)))
    k = len(lat)
    assert lat.spanning.shape == (k, 1) == (256, 1)
    for name, bound in (("le", 4), ("product_table", 8)):
        tracemalloc.start()
        try:
            getattr(lat, name)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * k * k, (name, peak)
