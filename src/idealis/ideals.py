"""Ideals and ideal lattices of finite commutative rings.

An Ideal stores its full sorted element tuple; two ideals are equal
exactly when they live in the same ring and have the same element set
(generators are presentation only). Every construction path validates
closure under addition and ring multiplication, so an Ideal that exists
really is an ideal.

Radicals are read off the lattice: every prime ideal of a finite ring
is maximal, so radical(I) = the intersection of the maximal ideals
containing I, and the Jacobson radical is the radical of 0.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import LatticeCapExceeded, RingMismatch
from .rings import FiniteRing, Homomorphism

LATTICE_CAP = 100000


class Ideal:
    """An ideal, validated on construction.

    `given_generators` holds the generators a caller passed, or None.
    `generators` is lazy: without given generators it is
    `reduced_generators` of the elements, computed only when something
    renders or reads it.
    """

    def __init__(self, ring: FiniteRing, elements: Sequence[int],
                 generators: Sequence[int] | None = None):
        self.ring = ring
        self.elements = tuple(sorted({int(a) for a in elements}))
        _check_ideal(ring, self.elements)
        self.given_generators = (None if generators is None
                                 else tuple(int(g) for g in generators))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        if self.given_generators is not None:
            return self.given_generators
        return reduced_generators(self.ring, self.elements)

    @cached_property
    def arr(self) -> np.ndarray:
        return np.asarray(self.elements, dtype=np.intp)

    @cached_property
    def mask(self) -> np.ndarray:
        m = np.zeros(self.ring.size, dtype=bool)
        m[self.arr] = True
        m.setflags(write=False)
        return m

    @property
    def is_proper(self) -> bool:
        return len(self.elements) < self.ring.size

    @property
    def is_zero(self) -> bool:
        return self.elements == (self.ring.zero,)

    def __contains__(self, a: int) -> bool:
        return bool(self.mask[a])

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Ideal) and self.ring is other.ring
                and self.elements == other.elements)

    def __hash__(self) -> int:
        return hash((id(self.ring), self.elements))

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"Ideal(({gens}) in {self.ring.text})"


def _check_ideal(ring: FiniteRing, elements: tuple[int, ...]) -> None:
    arr = np.asarray(elements, dtype=np.intp)
    if len(arr) == 0:
        raise ValueError("an ideal contains at least 0")
    if arr.min() < 0 or arr.max() >= ring.size:
        raise ValueError("ideal elements outside the ring")
    mask = np.zeros(ring.size, dtype=bool)
    mask[arr] = True
    if not mask[ring.zero]:
        raise ValueError("ideal must contain 0")
    if not mask[ring.add[np.ix_(arr, arr)]].all():
        raise ValueError("set not closed under addition")
    if not mask[ring.mul[:, arr]].all():
        raise ValueError("set not closed under ring multiplication")


def _additive_span(ring: FiniteRing, seed: Iterable[int]) -> np.ndarray:
    cur = {ring.zero} | {int(a) for a in seed}
    while True:
        arr = np.asarray(sorted(cur), dtype=np.intp)
        new = set(ring.add[np.ix_(arr, arr)].ravel().tolist())
        if new <= cur:
            return arr
        cur |= new


def ideal_gen(ring: FiniteRing, gens: Iterable[int]) -> Ideal:
    """Ideal generated by the given elements: additive span of all ring
    multiples of the generators."""
    gens = tuple(int(g) for g in gens)
    for g in gens:
        if not 0 <= g < ring.size:
            raise ValueError(f"element index {g} outside the ring")
    if gens:
        multiples = set(ring.mul[:, np.asarray(gens, dtype=np.intp)].ravel().tolist())
    else:
        multiples = {ring.zero}
    elements = _additive_span(ring, multiples)
    return Ideal(ring, elements.tolist(), generators=gens)


def reduced_generators(ring: FiniteRing, elements: Sequence[int]) -> tuple[int, ...]:
    """Small generating set: greedily take the least element not yet
    generated. Always nonempty; the zero ideal is presented as (0)."""
    target = set(int(a) for a in elements)
    gens: list[int] = []
    span = {ring.zero}
    for e in sorted(target):
        if e not in span:
            gens.append(e)
            mults = set(ring.mul[:, np.asarray(gens, dtype=np.intp)].ravel().tolist())
            span = set(_additive_span(ring, mults).tolist())
    if not gens:
        gens = [ring.zero]
    return tuple(gens)


def zero_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, [ring.zero], generators=[ring.zero])


def unit_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, range(ring.size), generators=[ring.one])


# ---------------------------------------------------------------------------
# lattice enumeration


class IdealLattice:
    """All ideals of a ring, sorted by (size, elements).

    The zero ideal is index 0 and the whole ring is the last index, so
    proper ideals are exactly the prefix [:-1]. `spanning[i]` is a short
    generating set of ideal i, recorded by the enumeration; it need not
    be the presentation `ideals[i].generators`. Cached: masks, le, covers,
    member_products, maximal_indices, product_table.
    """

    def __init__(self, ring: FiniteRing, ideals: list[Ideal],
                 spanning: list[tuple[int, ...]]):
        self.ring = ring
        self.ideals = ideals
        self.spanning = spanning
        self.index_of = {i.elements: k for k, i in enumerate(ideals)}

    def __len__(self) -> int:
        return len(self.ideals)

    def __iter__(self):
        return iter(self.ideals)

    def __getitem__(self, k: int) -> Ideal:
        return self.ideals[k]

    @property
    def proper(self) -> list[Ideal]:
        return self.ideals[:-1]

    @cached_property
    def masks(self) -> np.ndarray:
        """masks[i] is the membership mask of ideal i."""
        return np.stack([i.mask for i in self.ideals])

    @cached_property
    def le(self) -> np.ndarray:
        """Containment matrix: le[i, j] iff ideal i is a subset of ideal j,
        that is, iff no element of ideal i lies outside ideal j."""
        m = self.masks.astype(np.float32)
        return m @ (1 - m).T == 0

    @cached_property
    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs (i, j): i < j with nothing strictly between,
        in row-major order."""
        strict = self.le & ~np.eye(len(self.ideals), dtype=bool)
        s = strict.astype(np.float32)
        return [(int(i), int(j)) for i, j in np.argwhere(strict & (s @ s == 0))]

    @cached_property
    def member_products(self) -> tuple[np.ndarray, np.ndarray]:
        """(masks.T as float32, xnz): xnz[x, q] iff x*y != 0 for some y in q."""
        members = self.masks.T.astype(np.float32)
        return members, (self.ring.mul != self.ring.zero).astype(np.float32) @ members > 0

    @cached_property
    def maximal_indices(self) -> list[int]:
        """Proper ideals contained only in themselves and the whole ring."""
        return np.flatnonzero(self.le[:-1].sum(axis=1) == 2).tolist()

    @cached_property
    def product_table(self) -> np.ndarray:
        """product_table[i, j] = lattice index of ideal_i * ideal_j.

        IJ is contained in Q iff J is contained in (Q : I), and IJ, a
        subset of I, comes no later than I in the size order. So the
        product is the first Q <= i with J inside (Q : I), found for
        every j >= i at once. (Q : I) is the intersection of (Q : g)
        over the generators g in `spanning[i]`.
        """
        k = len(self.ideals)
        masks = self.masks
        mul = self.ring.mul
        members = masks.astype(np.float32)
        out = np.zeros((k, k), dtype=np.int32)
        for i, gens in enumerate(self.spanning):
            quot = np.ones((i + 1, self.ring.size), dtype=bool)
            for g in gens:
                quot &= masks[:i + 1, mul[:, g]]
            misses = members[i:] @ (~quot).astype(np.float32).T
            first = (misses == 0).argmax(axis=1)
            out[i, i:] = first
            out[i:, i] = first
        return out

    def index(self, ideal: Ideal) -> int:
        return self.index_of[ideal.elements]


def all_ideals(ring: FiniteRing, cap: int = LATTICE_CAP) -> IdealLattice:
    """Every ideal, cached on the ring.

    The principal ideal (a) = {r*a} of every element is built as a
    boolean mask, deduplicated by its bytes. Every ideal is a finite sum
    of principal ideals, and each (a) is additively closed, so closing
    that set under "+ (a)" alone, skipping every (a) an ideal already
    contains, finds them all. Each result is validated as an Ideal, so
    a corrupted table that breaks closure raises ValueError. The cap is
    checked on the principal ideals and again as each ideal that is not
    principal is found.
    """
    if ring._lattice is not None:
        return ring._lattice
    n = ring.size
    principal = np.zeros((n, n), dtype=bool)
    principal[np.arange(n)[:, None], ring.mul.T] = True
    found: dict[bytes, tuple[np.ndarray, tuple[int, ...]]] = {}
    for a in range(n):
        found.setdefault(principal[a].tobytes(), (principal[a], (a,)))
    if len(found) > cap:
        raise LatticeCapExceeded(f"more than {cap} ideals in {ring.text}")
    pmasks = np.stack([m for m, _ in found.values()])
    parrs = [np.flatnonzero(m) for m in pmasks]
    pgens = [g for _, (g,) in found.values()]
    worklist = list(found.values())
    while worklist:
        mask, gens = worklist.pop()
        rows = ring.add[mask]
        for b in np.flatnonzero(pmasks[:, ~mask].any(axis=1)):
            s = np.zeros(n, dtype=bool)
            s[rows[:, parrs[b]]] = True
            key = s.tobytes()
            if key not in found:
                if len(found) >= cap:
                    raise LatticeCapExceeded(
                        f"more than {cap} ideals in {ring.text}")
                found[key] = (s, gens + (pgens[b],))
                worklist.append(found[key])
    entries = sorted(found.values(),
                     key=lambda e: (int(e[0].sum()), (~e[0]).tobytes()))
    ideals = [Ideal(ring, np.flatnonzero(m).tolist()) for m, _ in entries]
    lattice = IdealLattice(ring, ideals, [g for _, g in entries])
    ring._lattice = lattice
    return lattice


# ---------------------------------------------------------------------------
# ideal arithmetic


def _same_ring(i: Ideal, j: Ideal) -> FiniteRing:
    if i.ring is not j.ring:
        raise RingMismatch("ideals live in different rings")
    return i.ring


def ideal_sum(i: Ideal, j: Ideal) -> Ideal:
    ring = _same_ring(i, j)
    els = np.unique(ring.add[np.ix_(i.arr, j.arr)])
    return Ideal(ring, els.tolist())


def ideal_product(i: Ideal, j: Ideal) -> Ideal:
    """Ideal generated by all pairwise element products. The product set
    is already closed under ring multiplication, so only the additive
    span is needed."""
    ring = _same_ring(i, j)
    prods = set(ring.mul[np.ix_(i.arr, j.arr)].ravel().tolist())
    els = _additive_span(ring, prods)
    return Ideal(ring, els.tolist())


def ideal_intersect(i: Ideal, j: Ideal) -> Ideal:
    ring = _same_ring(i, j)
    return Ideal(ring, sorted(set(i.elements) & set(j.elements)))


def colon(i: Ideal, x: int) -> Ideal:
    """(I : x) = {a : a*x in I}."""
    ring = i.ring
    els = np.flatnonzero(i.mask[ring.mul[:, x]])
    return Ideal(ring, els.tolist())


def colon_ideal(i: Ideal, j: Ideal) -> Ideal:
    """(I : J) = {a : a*J is contained in I}."""
    ring = _same_ring(i, j)
    ok = i.mask[ring.mul[:, j.arr]].all(axis=1)
    return Ideal(ring, np.flatnonzero(ok).tolist())


def annihilator(ring: FiniteRing, x: int) -> Ideal:
    return colon(zero_ideal(ring), x)


def annihilator_ideal(j: Ideal) -> Ideal:
    return colon_ideal(zero_ideal(j.ring), j)


def radical(i: Ideal) -> Ideal:
    """{a : a^k in I for some k}: the intersection of the maximal ideals
    containing I, which is the largest ideal inside all of them. The
    lattice's own member is returned."""
    lat = all_ideals(i.ring)
    above = lat.le[lat.index(i)]
    over = [m for m in lat.maximal_indices if above[m]]
    return lat[int(np.flatnonzero(lat.le[:, over].all(axis=1))[-1])]


def maximal_ideals(ring: FiniteRing) -> list[Ideal]:
    lat = all_ideals(ring)
    return [lat[i] for i in lat.maximal_indices]


def jacobson_radical(ring: FiniteRing) -> Ideal:
    return radical(all_ideals(ring)[0])


def is_reduced(ring: FiniteRing) -> bool:
    return jacobson_radical(ring).is_zero


def is_quasi_local(ring: FiniteRing) -> bool:
    return len(all_ideals(ring).maximal_indices) == 1


def is_field(ring: FiniteRing) -> bool:
    return len(ring.units) == ring.size - 1


# ---------------------------------------------------------------------------
# transport along homomorphisms


def preimage_ideal(hom: Homomorphism, p: Ideal) -> Ideal:
    if p.ring is not hom.target:
        raise RingMismatch("ideal does not live in the homomorphism target")
    els = np.flatnonzero(p.mask[hom.mapping])
    return Ideal(hom.source, els.tolist())


def image_ideal(hom: Homomorphism, p: Ideal) -> Ideal:
    """Image of an ideal under a surjective homomorphism."""
    if p.ring is not hom.source:
        raise RingMismatch("ideal does not live in the homomorphism source")
    if not hom.is_surjective:
        raise ValueError("image of an ideal needs a surjective map")
    els = sorted(set(hom.mapping[p.arr].tolist()))
    return Ideal(hom.target, els)
