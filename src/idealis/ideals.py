"""Ideals and ideal lattices of finite commutative rings.

An Ideal stores its full sorted element tuple; two ideals are equal
exactly when they live in the same ring and have the same element set
(generators are presentation only). Every construction path validates
closure under addition and ring multiplication, so an Ideal that exists
really is an ideal.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import LatticeCapExceeded, RingMismatch
from .rings import FiniteRing, Homomorphism

LATTICE_CAP = 100000


class Ideal:
    def __init__(self, ring: FiniteRing, elements: Sequence[int],
                 generators: Sequence[int] | None = None, _validate: bool = True):
        self.ring = ring
        self.elements = tuple(sorted({int(a) for a in elements}))
        if _validate:
            _check_ideal(ring, self.elements)
        if generators is None:
            generators = reduced_generators(ring, self.elements)
        self.generators = tuple(int(g) for g in generators)
        # filled by the classifiers: witness per verdict key, full report
        self._scan_witnesses: dict[str, tuple | None] = {}
        self._report = None

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
    proper ideals are exactly the prefix [:-1].
    """

    def __init__(self, ring: FiniteRing, ideals: list[Ideal]):
        self.ring = ring
        self.ideals = ideals
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
    def le(self) -> np.ndarray:
        """Containment matrix: le[i, j] iff ideal i is a subset of ideal j."""
        masks = np.stack([i.mask for i in self.ideals])
        return (masks[:, None, :] <= masks[None, :, :]).all(axis=2)

    @cached_property
    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs (i, j): i < j with nothing strictly between."""
        k = len(self.ideals)
        le = self.le
        strict = le & ~np.eye(k, dtype=bool)
        out = []
        for i in range(k):
            for j in np.flatnonzero(strict[i]):
                if not (strict[i] & strict[:, j]).any():
                    out.append((i, int(j)))
        return out

    @cached_property
    def maximal_indices(self) -> list[int]:
        k = len(self.ideals)
        le = self.le
        out = []
        for i in range(k - 1):
            above = np.flatnonzero(le[i])
            if len(above) == 2:        # itself and the whole ring
                out.append(i)
        return out

    @cached_property
    def product_table(self) -> np.ndarray:
        """product_table[i, j] = lattice index of ideal_i * ideal_j."""
        k = len(self.ideals)
        out = np.zeros((k, k), dtype=np.int32)
        for i in range(k):
            for j in range(i, k):
                p = ideal_product(self.ideals[i], self.ideals[j])
                out[i, j] = out[j, i] = self.index_of[p.elements]
        return out

    @cached_property
    def first_non_w1ap(self) -> Ideal | None:
        """First proper ideal that is not weakly 1-absorbing prime, or
        None when all of them are."""
        # imported here because classify imports this module
        from .classify import is_weakly_one_absorbing_prime
        for p in self.proper:
            if not is_weakly_one_absorbing_prime(p).holds:
                return p
        return None

    def index(self, ideal: Ideal) -> int:
        return self.index_of[ideal.elements]


def all_ideals(ring: FiniteRing, cap: int = LATTICE_CAP) -> IdealLattice:
    """Every ideal, by closing the principal ideals under pairwise sum.
    Cached on the ring."""
    if ring._lattice is not None:
        return ring._lattice
    by_key: dict[tuple[int, ...], np.ndarray] = {}
    worklist: list[np.ndarray] = []
    for a in range(ring.size):
        els = np.unique(ring.mul[:, a])
        key = tuple(els.tolist())
        if key not in by_key:
            by_key[key] = els
            worklist.append(els)
    while worklist:
        cur = worklist.pop()
        for other in list(by_key.values()):
            s = np.unique(ring.add[np.ix_(cur, other)])
            key = tuple(s.tolist())
            if key not in by_key:
                if len(by_key) >= cap:
                    raise LatticeCapExceeded(
                        f"more than {cap} ideals in {ring.text}")
                by_key[key] = s
                worklist.append(s)
    sorted_sets = sorted(by_key.values(), key=lambda e: (len(e), tuple(e.tolist())))
    ideals = [Ideal(ring, e.tolist()) for e in sorted_sets]
    lattice = IdealLattice(ring, ideals)
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
    """{a : a^k in I for some k}. Powers computed for all elements in
    lockstep; n iterations cover every cycle."""
    ring = i.ring
    idx = np.arange(ring.size)
    cur = idx.copy()
    acc = i.mask.copy()
    for _ in range(ring.size):
        acc |= i.mask[cur]
        cur = ring.mul[cur, idx]
    return Ideal(ring, np.flatnonzero(acc).tolist())


def maximal_ideals(ring: FiniteRing) -> list[Ideal]:
    lat = all_ideals(ring)
    return [lat[i] for i in lat.maximal_indices]


def jacobson_radical(ring: FiniteRing) -> Ideal:
    mask = np.ones(ring.size, dtype=bool)
    for m in maximal_ideals(ring):
        mask &= m.mask
    return Ideal(ring, np.flatnonzero(mask).tolist())


def is_reduced(ring: FiniteRing) -> bool:
    return radical(zero_ideal(ring)).is_zero


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
