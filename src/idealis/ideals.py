"""Ideals and ideal lattices of finite commutative rings.

An Ideal stores a read-only boolean mask of its members and the sorted
element tuple read from it; two ideals are equal exactly when they live
in the same ring and have the same element set (generators are
presentation only). `Ideal(ring, elements)` validates closure under
both operations; every other construction, `ideal_gen` and so
`parse_ideal` among them, builds an ideal by the proof in its docstring.

Radicals are read off the lattice: every prime ideal of a finite ring
is maximal, so radical(I) = the intersection of the maximal ideals
containing I, and the Jacobson radical is the radical of 0.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import zip_longest
from typing import Iterable, Sequence

import numpy as np

from .errors import RingMismatch
from .rings import FiniteRing, Homomorphism, _as_int32, _check_cap, _row_blocks


class Ideal:
    """An ideal. `Ideal(ring, elements)` validates; `Ideal._trusted` does not.

    Attributes:
        ring: the FiniteRing the ideal lives in.
        mask: read-only boolean array of shape (n,), True at the members.
        elements: the members' ascending indices as a tuple, read from mask.
        generators (cached): the presentation a construction proved, set
            by it, else reduced_generators(ring, elements).
    """

    def __init__(self, ring: FiniteRing, elements: Sequence[int]):
        mask = np.zeros(ring.size, dtype=bool)
        mask[_as_int32(list(elements), ring.size, "ideal elements")] = True
        arr = np.flatnonzero(mask)
        if not mask[ring.zero]:
            raise ValueError("an ideal contains at least 0")
        if not mask[ring.add[np.ix_(arr, arr)]].all():
            raise ValueError("set not closed under addition")
        if not mask[ring.mul[:, arr]].all():
            raise ValueError("set not closed under ring multiplication")
        mask.setflags(write=False)
        self.ring, self.mask = ring, mask
        self.elements = tuple(arr.tolist())

    @classmethod
    def _trusted(cls, ring: FiniteRing, mask: np.ndarray,
                 generators: tuple[int, ...] | None = None) -> Ideal:
        """Unchecked: the caller proves the boolean mask of shape (n,) an
        ideal's and hands it over, so it is made read-only, not copied;
        proved generators preset the cached generators."""
        ideal = cls.__new__(cls)
        mask.setflags(write=False)
        ideal.ring, ideal.mask = ring, mask
        ideal.elements = tuple(np.flatnonzero(mask).tolist())
        if generators is not None:
            ideal.generators = generators
        return ideal

    @cached_property
    def generators(self) -> tuple[int, ...]:
        return reduced_generators(self.ring, self.elements)

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


def _span_plus(ring: FiniteRing, span: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The mask of span + M = {a + m : a in span, m in M}, span a mask
    and M its members' indices, repeats allowed, or its mask, which
    indexes the columns of add faster. When span is an ideal's mask
    and M an ideal's members, this is the sum of the two ideals, itself
    an ideal: (a + m) + (a' + m') = (a + a') + (m + m') and
    r(a + m) = ra + rm."""
    out = np.zeros(ring.size, dtype=bool)
    out[ring.add[span][:, members]] = True
    return out


def ideal_gen(ring: FiniteRing, gens: Iterable[int]) -> Ideal:
    """Ideal generated by the given elements, presented by them. It is
    the sum of the principal ideals (g) = {r*g}, each one an ideal, as
    (r + s)g = rg + sg and s(rg) = (sr)g; it is grown from {0} one
    _span_plus step per generator."""
    gens = tuple(_as_int32(list(gens), ring.size, "generators").tolist())
    span = np.arange(ring.size) == ring.zero     # {0}
    for g in gens:
        span = _span_plus(ring, span, ring.mul[:, g])
    return Ideal._trusted(ring, span, gens)


def reduced_generators(ring: FiniteRing, elements: Sequence[int]) -> tuple[int, ...]:
    """Small generating set: greedily take the least element not yet
    generated. Always nonempty; the zero ideal is presented as (0).

    The span is the ideal the generators so far generate, held as a
    mask. Adjoining e adds the ideal (e) = {r*e} by one _span_plus step."""
    rest = np.asarray(sorted(elements), dtype=np.intp)
    span = np.arange(ring.size) == ring.zero     # {0}
    gens: list[int] = []
    while len(rest := rest[~span[rest]]):
        e = int(rest[0])
        gens.append(e)
        principal = np.zeros(ring.size, dtype=bool)
        principal[ring.mul[:, e]] = True
        span = _span_plus(ring, span, principal)
    return tuple(gens) or (ring.zero,)


def zero_ideal(ring: FiniteRing) -> Ideal:
    """{0}: a + b = 0 and r*0 = 0 for a, b in it."""
    return Ideal._trusted(ring, np.arange(ring.size) == ring.zero, (ring.zero,))


def unit_ideal(ring: FiniteRing) -> Ideal:
    """The whole ring, which is closed under both operations."""
    return Ideal._trusted(ring, np.ones(ring.size, dtype=bool), (ring.one,))


# ---------------------------------------------------------------------------
# lattice enumeration


class IdealLattice:
    """All ideals of a ring, sorted by (size, elements).

    The zero ideal is index 0 and the whole ring is the last index, so
    proper ideals are exactly the prefix [:-1].

    Attributes:
        ring: the FiniteRing whose ideals these are.
        masks: read-only k x n boolean array, row i the mask of ideals[i].
        ideals: the k members, each holding its row of masks as its mask.
        spanning: read-only k x w int array, row i generators of ideal i
            recorded by the enumeration, padded with 0, which every ideal
            holds; it need not be the presentation ideals[i].generators.
        index_of: each member's lattice index, keyed by its elements.
        le, covers, maximal_indices, product_table, colon (cached): see each.
        principal, principal_products (cached): see each.
        rep_multiples, proper_products (cached): see each; these and
            principal_products are the members tmm_characterize reads.
    """

    def __init__(self, ring: FiniteRing, masks: np.ndarray, spanning: np.ndarray):
        masks.setflags(write=False)
        spanning.setflags(write=False)
        self.ring, self.masks, self.spanning = ring, masks, spanning
        self.ideals = [Ideal._trusted(ring, m) for m in masks]
        self.index_of = {i.elements: k for k, i in enumerate(self.ideals)}

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
        """Containment matrix: le[i, j] iff ideal i is a subset of ideal j,
        that is, iff ideal j holds every generator in spanning[i], since
        ideal j is an ideal. One boolean gather of k x w x k."""
        return self.masks.T[self.spanning].all(axis=1)

    @cached_property
    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs (i, j): i < j with nothing strictly between, in
        row-major order. (s @ s)[i, j] counts the members between, below k
        <= IDEALIS_CAP. float32 holds every integer up to 2^24, and a k of
        2^24 would need 2^48 bytes for le alone, so the product is exact."""
        strict = self.le & ~np.eye(len(self.ideals), dtype=bool)
        s = strict.astype(np.float32)
        return [(int(i), int(j)) for i, j in np.argwhere(strict & (s @ s == 0))]

    @cached_property
    def maximal_indices(self) -> list[int]:
        """Proper ideals contained only in themselves and the whole ring."""
        return np.flatnonzero(self.le[:-1].sum(axis=1) == 2).tolist()

    @cached_property
    def product_table(self) -> np.ndarray:
        """product_table[i, j] = lattice index of ideal_i * ideal_j.

        IJ is contained in Q iff J is contained in (Q : I), and IJ is the
        first member that holds IJ, since members are sorted by size. IJ,
        a subset of I and of J, comes no later than either. So a block of
        rows I, i < e, reads the Q up to e - 1 and the J from its first
        row s on, finding each product as the first such Q; the entries
        with j < i are products too, and the table is symmetric. (Q : I)
        is the intersection of (Q : g) over the generators g in
        spanning[i]; it is an ideal, so it holds J iff it holds every
        generator in spanning[j]. A row of a block is k x n entries of
        the (Q : I) masks; _row_blocks sizes the blocks.
        """
        masks, spanning, mul = self.masks, self.spanning, self.ring.mul
        k, n = masks.shape
        out = np.zeros((k, k), dtype=np.int32)
        for rows in _row_blocks(k, k * n):
            s, e = rows.start, min(rows.stop, k)
            quot = np.ones((e, e - s, n), dtype=bool)       # [q, i, a]: aI in Q
            for gens in spanning[rows].T:
                quot &= np.take(masks[:e], mul[gens].astype(np.intp), axis=1)
            first = quot[:, :, spanning[s:]].all(axis=3).argmax(axis=0)
            out[rows, s:] = first
            out[s:, rows] = first.T
        return out

    @cached_property
    def colon(self) -> np.ndarray:
        """colon[q, i] = lattice index of (Q : I), the largest J with IJ
        in Q. Every other J with IJ in Q lies inside it, and so is
        smaller and sorts earlier: (Q : I) is the last j with
        le[product_table[i, j], q]. A row I of a block is the k x k
        slice of le that product_table[i] picks; _row_blocks sizes the
        blocks."""
        le, pt = self.le, self.product_table
        k = len(le)
        out = np.empty((k, k), dtype=np.int32)
        for rows in _row_blocks(k, k * k):
            inside = le[pt[rows, ::-1]]                 # [i, k-1-j, q]: IJ in Q
            out[:, rows] = (k - 1 - inside.argmax(axis=1)).T
        return out

    @cached_property
    def principal(self) -> np.ndarray:
        """The index of (a) for every element a: the first member holding a."""
        return self.masks.argmax(axis=0)

    @cached_property
    def principal_products(self) -> np.ndarray:
        """The distinct indices of the (x)(y) = (xy), x and y class reps."""
        return self._distinct(self.principal[self.ring.nonunit_classes.ws])

    @cached_property
    def rep_multiples(self) -> np.ndarray:
        """The distinct indices of the (x)I, x a class rep, I proper."""
        px = self.principal[self.ring.nonunit_classes.reps]
        return self._distinct(self.product_table[px, :-1])

    @cached_property
    def proper_products(self) -> np.ndarray:
        """The distinct indices of the IJ, I and J proper."""
        return self._distinct(self.product_table[:-1, :-1])

    def _distinct(self, indices: np.ndarray) -> np.ndarray:
        """The distinct member indices among indices, ascending: one
        boolean per member, where np.unique would sort them all."""
        seen = np.zeros(len(self.ideals), dtype=bool)
        seen[indices] = True
        return np.flatnonzero(seen)

    def index(self, ideal: Ideal) -> int:
        return self.index_of[ideal.elements]


def _idempotents(ring: FiniteRing) -> np.ndarray:
    """The e with e*e = e, in ascending order: one read of the diagonal."""
    return np.flatnonzero(np.diagonal(ring.mul) == np.arange(ring.size))


def _primitive_idempotents(ring: FiniteRing) -> np.ndarray:
    """The primitive idempotents: the nonzero idempotents e with no other
    nonzero idempotent f below them (f*e = f), in ascending order.

    They are orthogonal and sum to 1, and the ring is the product of
    the local rings A*e (Atiyah-Macdonald, Thm 8.7).
    """
    idem = _idempotents(ring)
    idem = idem[idem != ring.zero]
    below = ring.mul[np.ix_(idem, idem)] == idem    # [i, j]: f_j * e_i == f_j
    return idem[below.sum(axis=1) == 1]


def _principal_closure(ring: FiniteRing, seeds: np.ndarray,
                       ) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """(mask, generators) of every ideal that is a sum of principal
    ideals (a), a in the ascending seeds.

    Each (a) is built as a boolean mask, deduplicated by its bytes.
    Each (a) is additively closed, so closing the principal ideals
    under "+ (a)" alone, skipping every (a) an ideal already contains,
    finds every such sum; a sum of ideals is an ideal, so none is
    checked again. Each step is a _span_plus step whose span rows of add
    are gathered once for all the (a) added to it: a fifth less lattice
    time on the classify pool. The cap is checked as each sum is found.
    """
    principal = np.zeros((len(seeds), ring.size), dtype=bool)
    principal[np.arange(len(seeds))[:, None], ring.mul[seeds]] = True
    found: dict[bytes, tuple[np.ndarray, tuple[int, ...]]] = {}
    for a, row in zip(seeds, principal):
        found.setdefault(row.tobytes(), (row, (int(a),)))
    pmasks = np.stack([m for m, _ in found.values()])
    parrs = [np.flatnonzero(m) for m in pmasks]
    pgens = [g for _, (g,) in found.values()]
    worklist = list(found.values())
    while worklist:
        mask, gens = worklist.pop()
        rows = ring.add[mask]
        for b in np.flatnonzero(pmasks[:, ~mask].any(axis=1)):
            s = np.zeros(ring.size, dtype=bool)
            s[rows[:, parrs[b]]] = True
            key = s.tobytes()
            if key not in found:
                _check_cap(len(found) + 1, f"the lattice of {ring.text}", "ideals or more")
                found[key] = (s, gens + (pgens[b],))
                worklist.append(found[key])
    return list(found.values())


def all_ideals(ring: FiniteRing) -> IdealLattice:
    """Every ideal, cached on the ring.

    The ring is the product of the local rings A*e over its primitive
    idempotents e, which are orthogonal and sum to 1. So every ideal I
    is the sum of its parts I*e, each an ideal of A*e, and a is in I iff
    a*e is in I*e for every e. The lattice is therefore the product of
    the local lattices: `_principal_closure` enumerates the ideals
    inside A*e from the principal ideals (a), a in A*e, and each choice
    of one local ideal per e gives the member whose mask is the AND over
    e of local_mask_e[a*e]; a local ring has the one factor e = 1. Each
    closure is seeded with the class reps of nonunit_classes in A*e, and
    1 when e = 1, as (a) = (u*a) for a unit u and every unit gives (1):
    the closure records the least generator of each proper (a), the
    least member of its class, as a seeding by every a would.

    A lattice holds k <= IDEALIS_CAP members, so its k x k tables are no
    larger than the n x n tables the cap admits. The lattice has at least
    as many members as each local closure finds, so the cap is checked as
    a closure finds a sum, and on the product of the local sizes before
    any member mask is built.

    A member's generators are the local generator tuples summed
    position by position (a missing position reads as 0): with g_i the
    sum of the g_{e,i} in A*e, g_i*e = g_{e,i}, so the sums generate the
    member, and a member has one generator exactly when every part, and
    so the member, is principal. No local generator past the first is 0,
    so a member is principal iff its padded `spanning` row is 0 past
    the first column.

    Members are sorted by size, then by `(~mask).tobytes()`, a key of
    the element set alone, so the order, and every byte printed from
    it, does not depend on how the members were found.
    """
    if ring._lattice is not None:
        return ring._lattice
    n, reps = ring.size, ring.nonunit_classes.reps
    parts = []
    for e in _primitive_idempotents(ring):
        seeds = reps[ring.mul[reps, e] == reps]         # a*e = a: a in A*e
        if e == ring.one:
            seeds = np.union1d(seeds, [ring.one])
        parts.append((e, _principal_closure(ring, seeds)))
    _check_cap(math.prod(len(p) for _, p in parts), f"the lattice of {ring.text}", "ideals")
    masks = np.ones((1, n), dtype=bool)
    spanning: list[tuple[int, ...]] = [()]
    for e, local in parts:
        at_e = np.stack([m for m, _ in local])[:, ring.mul[:, e]]
        masks = (masks[:, None] & at_e).reshape(-1, n)
        spanning = [tuple(int(ring.add[a, b]) for a, b in
                          zip_longest(g, h, fillvalue=ring.zero))
                    for g in spanning for _, h in local]
    sizes, inverse = masks.sum(axis=1).tolist(), ~masks
    order = sorted(range(len(masks)), key=lambda r: (sizes[r], inverse[r].tobytes()))
    columns = list(zip_longest(*spanning, fillvalue=ring.zero))
    ring._lattice = IdealLattice(ring, masks[order], np.array(columns).T[order])
    return ring._lattice


# ---------------------------------------------------------------------------
# ideal arithmetic


def _same_ring(i: Ideal, j: Ideal) -> FiniteRing:
    if i.ring is not j.ring:
        raise RingMismatch("ideals live in different rings")
    return i.ring


def ideal_sum(i: Ideal, j: Ideal) -> Ideal:
    """I + J, one _span_plus step."""
    ring = _same_ring(i, j)
    return Ideal._trusted(ring, _span_plus(ring, i.mask, j.mask))


def ideal_product(i: Ideal, j: Ideal) -> Ideal:
    """I*J, the sum of the g*J = {g*b : b in J} over the generators g of
    I. I*J is the additive span of the products ab, and each a in I is
    a sum of multiples r*g, so ab is a sum of products g*(rb), each in
    g*J. Each g*J is an ideal, as g*b + g*b' = g(b + b') and
    r(g*b) = g(rb), so the sum is grown from {0} one _span_plus step
    per generator."""
    ring = _same_ring(i, j)
    span = np.arange(ring.size) == ring.zero     # {0}
    for g in i.generators:
        span = _span_plus(ring, span, ring.mul[g, j.mask])
    return Ideal._trusted(ring, span)


def ideal_intersect(i: Ideal, j: Ideal) -> Ideal:
    """I ∩ J: each of I and J is closed under both operations."""
    return Ideal._trusted(_same_ring(i, j), i.mask & j.mask)


def colon(i: Ideal, x: int) -> Ideal:
    """(I : x) = {a : a*x in I}: (a + b)x = ax + bx and (ra)x = r(ax)."""
    return Ideal._trusted(i.ring, i.mask[i.ring.mul[:, x]])


def colon_ideal(i: Ideal, j: Ideal) -> Ideal:
    """(I : J) = {a : a*J in I}, the intersection of the (I : b) for b in J."""
    ring = _same_ring(i, j)
    return Ideal._trusted(ring, i.mask[ring.mul[:, j.mask]].all(axis=1))


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
    """One maximal ideal. A finite ring is the product of the local rings
    A*e over its primitive idempotents e, so it is local iff 1 is the
    only one, that is, iff 0 and 1 != 0 are its only idempotents."""
    return len(_idempotents(ring)) == 2


def is_field(ring: FiniteRing) -> bool:
    return len(ring.nonunits) == 1


# ---------------------------------------------------------------------------
# transport along homomorphisms


def preimage_ideal(hom: Homomorphism, p: Ideal) -> Ideal:
    """f^-1(P): f(a + b) = f(a) + f(b) and f(ra) = f(r)f(a) stay in P."""
    if p.ring is not hom.target:
        raise RingMismatch("ideal does not live in the homomorphism target")
    return Ideal._trusted(hom.source, p.mask[hom.mapping])


def image_ideal(hom: Homomorphism, p: Ideal) -> Ideal:
    """f(P) for onto f: f(a) + f(b) = f(a + b), and each t = f(r) has tf(a) = f(ra)."""
    if p.ring is not hom.source:
        raise RingMismatch("ideal does not live in the homomorphism source")
    if not hom.is_surjective:
        raise ValueError("image of an ideal needs a surjective map")
    hit = np.bincount(hom.mapping[p.mask], minlength=hom.target.size)
    return Ideal._trusted(hom.target, hit > 0)
