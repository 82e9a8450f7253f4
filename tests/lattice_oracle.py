"""Brute-force reference for the ideal lattice, kept for differential tests.

Each function follows the definition as directly as it can: the lattice
closes the principal ideals under pairwise sums with np.unique,
containment compares every pair of masks elementwise, covers test every
pair for an ideal strictly between, each product is the closure under
+ of the set of products ab, the presentation generators come from a
set-based greedy that closes all multiples of the generators so far
under + after each new one, and the radical steps every element through
its powers. IdealLattice, reduced_generators and the lattice-read radical
must agree with all of it.
"""

from typing import NamedTuple

import numpy as np

from idealis import FiniteRing, Ideal


class OracleLattice(NamedTuple):
    elements: list[tuple[int, ...]]
    generators: list[tuple[int, ...]]
    le: np.ndarray
    covers: list[tuple[int, int]]
    maximal_indices: list[int]
    product_table: np.ndarray


def oracle_elements(ring: FiniteRing) -> list[tuple[int, ...]]:
    """Every ideal's element tuple, sorted by (size, elements)."""
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
                by_key[key] = s
                worklist.append(s)
    return sorted(by_key, key=lambda e: (len(e), e))


def additive_closure(ring: FiniteRing, seed) -> tuple[int, ...]:
    """The least set that holds 0 and the seed and is closed under +,
    as a sorted tuple: add every pairwise sum until none is new."""
    span = {ring.zero} | set(np.asarray(seed, dtype=np.intp).ravel().tolist())
    while True:
        arr = np.asarray(sorted(span), dtype=np.intp)
        new = set(ring.add[np.ix_(arr, arr)].ravel().tolist())
        if new <= span:
            return tuple(arr.tolist())
        span |= new


def oracle_generators(ring: FiniteRing, elements: tuple[int, ...]) -> tuple[int, ...]:
    """Take the least element outside the additive span of all multiples
    of the generators so far, until the span holds every element."""
    gens: list[int] = []
    span: set[int] = {ring.zero}
    for e in sorted(elements):
        if e not in span:
            gens.append(e)
            span = set(additive_closure(ring, ring.mul[:, gens]))
    return tuple(gens) or (ring.zero,)


def oracle_lattice(ring: FiniteRing) -> OracleLattice:
    elements = oracle_elements(ring)
    k = len(elements)
    masks = np.zeros((k, ring.size), dtype=bool)
    for i, els in enumerate(elements):
        masks[i, list(els)] = True
    le = (masks[:, None, :] <= masks[None, :, :]).all(axis=2)
    strict = le & ~np.eye(k, dtype=bool)
    covers = [(i, int(j)) for i in range(k) for j in np.flatnonzero(strict[i])
              if not (strict[i] & strict[:, j]).any()]
    maximal = [i for i in range(k - 1) if len(np.flatnonzero(le[i])) == 2]
    arrs = [np.asarray(els, dtype=np.intp) for els in elements]
    index_of = {els: i for i, els in enumerate(elements)}
    table = np.zeros((k, k), dtype=np.int32)
    for i in range(k):
        for j in range(i, k):
            prods = ring.mul[np.ix_(arrs[i], arrs[j])]
            table[i, j] = table[j, i] = index_of[additive_closure(ring, prods)]
    generators = [oracle_generators(ring, els) for els in elements]
    return OracleLattice(elements, generators, le, covers, maximal, table)


def oracle_radical(i: Ideal) -> tuple[int, ...]:
    """{a : a^k in I for some k}, by the definition. Powers are computed
    for all elements in lockstep; n steps cover every cycle."""
    ring = i.ring
    idx = np.arange(ring.size)
    cur = idx.copy()
    acc = i.mask.copy()
    for _ in range(ring.size):
        acc |= i.mask[cur]
        cur = ring.mul[cur, idx]
    return tuple(np.flatnonzero(acc).tolist())
