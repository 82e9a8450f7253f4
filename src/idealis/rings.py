"""Finite commutative rings with identity, as dense operation tables.

Elements of a ring of size n are the indices 0..n-1. Addition and
multiplication are n x n int32 tables. Every constructor funnels through
FiniteRing, whose verification pass proves all ring axioms before the
object becomes visible, so any FiniteRing that exists is a genuine
finite commutative ring with 1 != 0.

The verification is complete, not sampled. Commutativity of both
operations, the identities, additive inverses, 0*x = 0, and the
unit/regular-element scans are checked over all pairs directly. The
three triple-quantified axioms are proved by reduction to a small
additive generating set:

- associativity of + via Light's test: if S generates (A,+) and
  (x+g)+y = x+(g+y) holds for all g in S and all x, y, then + is
  associative (induction over products of generators);
- left distributivity a*(g+x) = a*g + a*x for all g in S, all a, x,
  which extends to arbitrary second arguments by induction on sums of
  generators (every element is a nonempty sum of generators because
  ord(g)*g = 0), using the already proved associativity of +;
- associativity of * on generator slices (g*y)*z = g*(y*z), extended to
  all first arguments by the same induction using distributivity and
  the checked commutativity of *.

Each of these slices, the pairwise checks and scans above, and the
comparison of a build's tables with a live ring's run in blocks of whole
rows of at most 16384 entries, so verification makes no full n x n
temporary: a ring of at most 128 elements is one block, and a mismatch
is reported at its first row-major position, as a comparison of the
whole tables would.

A Homomorphism is proved on its source's generating set: its equations
are compared on the generators' rows alone, and the tests hold that to
the literal comparison over all n^2 pairs.

This reduction is the only proof a table gets; the tests hold it to the
literal n^3 triple scans. What it proves lives in one _Proven record:
the tables, their generators, the unit data, the scan memo and the
class record. A build with the exact tables of a live ring (compared in
full, never by digest alone) shares that record, which lives as long as
any ring built with them. A ring reads each fact through a read-only
property of its record, and every array there is read-only, so neither
the tables nor the unit data can be rebound or written.

Ring sizes have one bound, element_cap(), read from IDEALIS_CAP; each
constructor that grows a ring checks it before it allocates a table.
"""

from __future__ import annotations

import os
import weakref
import zlib
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from . import expr as ex
from .errors import (
    CapExceeded,
    ElementOutOfRange,
    ImproperIdeal,
    NotMultClosed,
    NotPrime,
    RingMismatch,
    ZeroInS,
)

if TYPE_CHECKING:
    from .ideals import Ideal, IdealLattice

DEFAULT_ELEMENT_CAP = 1024
_INT32_PRODUCTS = 46341         # largest n with (n-1)^2 < 2^31
_BLOCK_ENTRIES = 1 << 14        # entries per block of table rows
# the _Proven record of each live table pair, by (n, zero, one, crc32 of
# add then mul); it lives while a ring built with the pair does, and a ring
# whose lattice is built outlives its last reference until gc frees cycles
_VERIFIED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Proven:
    """A verified table pair and what is derived from it, shared by every
    live ring built with those tables: the additive generators the tables
    were proved on, which every Homomorphism from those rings is proved
    on too, unit_mask, nonunits (the ascending int32 indices unit_mask
    leaves out), the scan memo, and nonunit_classes, None until a ring
    asks. Every array is made read-only here."""

    __slots__ = ("add", "mul", "generators", "unit_mask", "nonunits", "scans",
                 "nonunit_classes", "__weakref__")

    def __init__(self, add: np.ndarray, mul: np.ndarray, generators: np.ndarray,
                 unit_mask: np.ndarray):
        self.add, self.mul, self.generators = add, mul, generators
        self.unit_mask = unit_mask
        self.nonunits = np.flatnonzero(~unit_mask).astype(np.int32)
        for a in (add, mul, generators, unit_mask, self.nonunits):
            a.setflags(write=False)
        self.scans: dict[tuple[int, ...], dict[str, tuple | None]] = {}
        self.nonunit_classes = None


def element_cap() -> int:
    """IDEALIS_CAP, else DEFAULT_ELEMENT_CAP; it bounds rings and lattices."""
    raw = os.environ.get("IDEALIS_CAP", "").strip() or str(DEFAULT_ELEMENT_CAP)
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"IDEALIS_CAP must be a positive integer, got {raw!r}")
    return int(raw)


def _check_cap(n: int) -> None:
    """Refuse a ring of n elements above element_cap()."""
    if n > (limit := element_cap()):
        raise CapExceeded(f"ring would have {n} elements, cap is {limit} (IDEALIS_CAP)")


class FiniteRing:
    """A verified finite commutative ring with identity. Each distinct
    table is verified in full; a build with a live ring's exact tables
    shares the _Proven record of their first verification. The ring keeps
    only its own data and that record, and reads every fact of its
    tables from the record.

    Attributes:
        size: number of elements.
        zero, one: indices of the additive and multiplicative identities.
        add, mul (record properties): dense read-only int32 operation
            tables.
        unit_mask (record property): read-only boolean array marking the
            units.
        nonunits (record property): read-only ascending int32 nonunit
            indices, zero included.
        nonunit_classes (record property, computed on first use): a
            NonunitClasses of the nonunits' associate classes: reps, the
            least nonunit of each, ascending; sizes, the nonunits in
            each; of[i], the class of nonunits[i], so reps[of[i]] is its
            least associate; ab = mul on reps x reps; ws, the distinct
            values of ab in first-occurrence order; first[k], the
            row-major index in ab of the first rep pair giving ws[k], so
            first ascends.
        _scans (record property): witnesses per verdict key, keyed by
            ideal elements.
        provenance: the construction expression.
        _lattice: the IdealLattice of all_ideals(ring) once built, else None.
        _proven: the _Proven record this ring shares with its twins.
        factors: (left, right) for a direct product, else None; element
            (a, b) is stored at index a*right.size + b.
        idealization: (base, j) for the trivial extension base (+) base/j,
            else None; element (a, m) is stored at index a*module_size + m.
    """

    add = property(lambda self: self._proven.add)
    mul = property(lambda self: self._proven.mul)
    unit_mask = property(lambda self: self._proven.unit_mask)
    nonunits = property(lambda self: self._proven.nonunits)
    _scans = property(lambda self: self._proven.scans)

    def __init__(self, add, mul, zero: int, one: int,
                 provenance: ex.RingExpr, *,
                 factors: tuple[FiniteRing, FiniteRing] | None = None,
                 idealization: tuple[FiniteRing, Ideal] | None = None):
        add, mul = np.asarray(add), np.asarray(mul)
        if add.ndim != 2 or add.shape[0] != add.shape[1]:
            raise ValueError("addition table must be square")
        n = add.shape[0]
        _check_cap(n)
        if mul.shape != (n, n):
            raise ValueError("multiplication table shape does not match")
        if n < 2:
            raise ValueError("a ring needs at least the two elements 0 and 1")
        add, mul = _as_int32(add, n, "add table"), _as_int32(mul, n, "mul table")
        zero, one = _as_int32([zero, one], n, "(zero, one)").tolist()
        if zero == one:
            raise ValueError("one == zero: the zero ring is not admitted")

        self.size = n
        self.zero = zero
        self.one = one
        self.provenance = provenance
        self.factors = factors
        self.idealization = idealization
        self._lattice: IdealLattice | None = None    # filled by all_ideals

        key = (n, zero, one, zlib.crc32(mul, zlib.crc32(add)))
        proven = _VERIFIED.get(key)
        if (proven is None
                or _first_mismatch(n, proven.add.__getitem__, add.__getitem__) is not None
                or _first_mismatch(n, proven.mul.__getitem__, mul.__getitem__) is not None):
            proven = _VERIFIED[key] = _verify_ring(add, mul, zero, one)
        self._proven = proven

    @property
    def nonunit_classes(self) -> NonunitClasses:
        proven = self._proven
        if proven.nonunit_classes is None:
            proven.nonunit_classes = _nonunit_classes(self)
        return proven.nonunit_classes

    @property
    def text(self) -> str:
        return ex.print_expr(self.provenance)

    @property
    def module_size(self) -> int:
        """|M| for an idealization: M = base/j is cyclic, so |M| = |base|/|j|."""
        base, j = self.idealization
        return base.size // len(j)

    def __repr__(self) -> str:
        return f"FiniteRing({self.text}, size={self.size})"


class NonunitClasses(NamedTuple):
    """FiniteRing.nonunit_classes."""
    reps: np.ndarray
    sizes: np.ndarray
    of: np.ndarray
    ab: np.ndarray
    ws: np.ndarray
    first: np.ndarray


def _nonunit_classes(r: FiniteRing) -> NonunitClasses:
    rows = r.unit_mask.copy()
    rows[r.one] = True      # so a ring whose unit data lost every unit still reduces
    key = r.mul[np.ix_(rows, r.nonunits)].min(axis=0)      # the least u*x
    # nonunits ascend, so the first index of each class is its least member
    _, at, of, sizes = np.unique(key, return_index=True, return_inverse=True,
                                 return_counts=True)
    by_rep = np.argsort(at)
    reps = r.nonunits[at[by_rep]]
    ab = r.mul[np.ix_(reps, reps)]
    ws, first = np.unique(ab, return_index=True)    # first occurrences
    order = np.argsort(first)
    out = NonunitClasses(reps, sizes[by_rep], np.argsort(by_rep)[of], ab,
                         ws[order], first[order])
    for a in out:
        a.setflags(write=False)
    return out


def additive_generators(add: np.ndarray, zero: int) -> list[int]:
    """Greedy additive generating set: repeatedly adjoin the least element
    outside the current span. Safe on corrupt tables (cycle detection),
    and |result| <= log2(n) on genuine groups."""
    n = add.shape[0]
    span = np.zeros(n, dtype=bool)
    span[zero] = True
    gens: list[int] = []
    while not span.all():
        g = int(np.argmin(span))
        gens.append(g)
        mults = [zero]
        seen = {zero}
        cur = g
        while cur not in seen:
            mults.append(cur)
            seen.add(cur)
            cur = int(add[cur, g])
        span_idx = np.flatnonzero(span)
        reach = add[np.ix_(span_idx, np.asarray(mults, dtype=np.intp))]
        new_span = np.zeros(n, dtype=bool)
        new_span[reach.ravel()] = True
        new_span[g] = True
        if not new_span[span_idx].all():
            # zero stopped acting as identity somewhere; the identity
            # check below reports it, but never loop on a corrupt table
            new_span |= span
        span = new_span
    return gens


def _verify_ring(add: np.ndarray, mul: np.ndarray, zero: int, one: int) -> _Proven:
    """Prove the int32 tables a ring with identities zero and one, scan
    its units, and return the record of what was proved."""
    n = len(add)
    idx = np.arange(n)

    for op, t in (("+", add), ("*", mul)):
        bad = _first_mismatch(n, lambda rows: t[rows], lambda rows: t[:, rows].T)
        if bad:
            x, y = bad
            raise ValueError(f"{op} not commutative at ({x}, {y})")
    if not np.array_equal(add[zero], idx):
        raise ValueError("0 is not an additive identity")
    if not np.array_equal(mul[one], idx):
        raise ValueError("1 is not a multiplicative identity")
    has_neg = _per_row(n, lambda rows: (add[rows] == zero).any(axis=1))
    if not has_neg.all():
        raise ValueError(f"element {int(np.argmin(has_neg))} has no additive inverse")
    if not (mul[zero] == zero).all():
        raise ValueError("0 * x != 0 for some x")

    gens = additive_generators(add, zero)
    for g in gens:
        # Light's test slice for +: (x+g)+y == x+(g+y)
        bad = _first_mismatch(n, lambda rows: add[add[rows, g]],
                              lambda rows: add[rows][:, add[g]])
        if bad:
            x, y = bad
            raise ValueError(f"+ not associative at ({x}, {g}, {y})")
        # (g*y)*z == g*(y*z); extends to all x by distributivity
        bad = _first_mismatch(n, lambda rows: mul[mul[g, rows]],
                              lambda rows: mul[g][mul[rows]])
        if bad:
            y, z = bad
            raise ValueError(f"* not associative at ({g}, {y}, {z})")
        # a*(g+x) == a*g + a*x for every a, x
        bad = _first_mismatch(n, lambda rows: mul[rows][:, add[g]],
                              lambda rows: add[mul[rows, g][:, None], mul[rows]])
        if bad:
            a, x = bad
            raise ValueError(f"* not distributive at ({a}, {g}, {x})")

    unit_mask = _per_row(n, lambda rows: (mul[rows] == one).any(axis=1))
    # a finite commutative ring has no regular nonunits; checking the
    # scan result against the unit scan guards both computations
    regular = _per_row(n, lambda rows: (mul[rows] == zero).sum(axis=1) == 1)
    if not np.array_equal(regular, unit_mask):
        raise ValueError("regular elements disagree with units; tables corrupt")
    return _Proven(add, mul, np.array(gens, dtype=np.intp), unit_mask)


def _as_int32(a, size: int, what: str) -> np.ndarray:
    """a as a contiguous int32 array, once its entries are checked to be
    integers in 0..size-1: the cast would wrap or truncate others, and
    int() would truncate a float or parse a string. An empty a passes,
    so that each caller keeps its own error for it."""
    a = np.asarray(a)
    if a.size and (a.dtype.kind not in "iu" or a.min() < 0 or a.max() >= size):
        raise ValueError(f"{what} has entries that are not integers in 0..{size - 1}")
    return np.ascontiguousarray(a, dtype=np.int32)


def _row_blocks(n: int):
    """Slices of whole rows of an n x n table, each of at most
    _BLOCK_ENTRIES entries."""
    step = max(1, _BLOCK_ENTRIES // n)
    return (slice(start, start + step) for start in range(0, n, step))


def _per_row(n: int, f) -> np.ndarray:
    """The n values f(rows) gives, one per row, built one block at a time."""
    return np.concatenate([f(rows) for rows in _row_blocks(n)])


def _first_hit(viol: np.ndarray) -> tuple[int, int] | None:
    """First row-major (row, column) where the 2-d mask viol is True, or
    None."""
    if not viol.any():
        return None
    return divmod(int(viol.argmax()), viol.shape[1])


def _first_mismatch(n: int, lhs, rhs) -> tuple[int, int] | None:
    """First row-major (row, column) where the n x n tables lhs and rhs
    differ, or None. lhs(rows) and rhs(rows) build one block of rows at a
    time."""
    for rows in _row_blocks(n):
        hit = _first_hit(lhs(rows) != rhs(rows))
        if hit is not None:
            return rows.start + hit[0], hit[1]
    return None


class Homomorphism:
    """A verified unital ring homomorphism between two FiniteRings.

    Construction checks f(0) = 0, f(1) = 1, and f(g+b) = f(g)+f(b) and
    f(g*b) = f(g)*f(b) for every b and every g in the additive generating
    set S that the source's tables were proved on. That is exact, since
    both rings are verified: every a is a nonempty sum of generators, as
    ord(g)*g = 0, and by induction on its length, with a = g + a' for a
    shorter sum a' that both equations hold for, associativity of + in
    both rings gives
        f(a+b) = f(g) + f(a'+b) = f(g) + f(a') + f(b) = f(g+a') + f(b),
    and then, + holding for all pairs, distributivity in both rings gives
        f(a*b) = f(g*b) + f(a'*b) = (f(g) + f(a'))*f(b) = f(a)*f(b).
    A map that fails is rejected at the first (g, b) in the order of S
    and then of b, a pair at which the equation fails.
    """

    def __init__(self, source: FiniteRing, target: FiniteRing, mapping):
        if not (isinstance(source, FiniteRing) and isinstance(target, FiniteRing)):
            raise TypeError("a homomorphism maps a FiniteRing to a FiniteRing")
        f = np.asarray(mapping)
        if f.shape != (source.size,):
            raise ValueError("mapping must assign every source element")
        f = _as_int32(f, target.size, "mapping")
        if int(f[source.one]) != target.one:
            raise ValueError("homomorphism must send 1 to 1")
        if int(f[source.zero]) != target.zero:
            raise ValueError("homomorphism must send 0 to 0")
        gens = source._proven.generators
        for op, src, dst in (("+", source.add, target.add),
                             ("*", source.mul, target.mul)):
            bad = _first_hit(f[src[gens]] != dst[f[gens][:, None], f])
            if bad:
                i, b = bad
                raise ValueError(f"f(a{op}b) != f(a){op}f(b) at ({gens[i]}, {b})")
        self.source = source
        self.target = target
        self.mapping = f
        self.mapping.setflags(write=False)
        self.kernel = tuple(int(a) for a in np.flatnonzero(f == target.zero))
        self.image = tuple(np.unique(f).tolist())

    @property
    def is_injective(self) -> bool:
        return len(self.image) == self.source.size

    @property
    def is_surjective(self) -> bool:
        return len(self.image) == self.target.size

    @property
    def preserves_nonunits(self) -> bool:
        """True when every nonunit maps to a nonunit."""
        return not self.target.unit_mask[self.mapping[self.source.nonunits]].any()

    def __repr__(self) -> str:
        return f"Homomorphism({self.source.text} -> {self.target.text})"


# ---------------------------------------------------------------------------
# constructors


def make_zn(n: int) -> FiniteRing:
    """The ring of integers modulo n, elements 0..n-1."""
    if n < 2:
        raise ValueError("Z_n needs n >= 2")
    _check_cap(n)
    # (n-1)^2 fits int32 up to n = 46341; the tables are built in the
    # dtype FiniteRing keeps, so no int64 copy is made
    idx = np.arange(n, dtype=np.int32 if n <= _INT32_PRODUCTS else np.int64)
    add = idx[:, None] + idx[None, :]
    add %= n
    mul = idx[:, None] * idx[None, :]
    mul %= n
    return FiniteRing(add, mul, 0, 1, ex.Zn(n))


def make_product(r1: FiniteRing, r2: FiniteRing) -> FiniteRing:
    """Direct product; element (a, b) is stored at index a*r2.size + b."""
    s1, s2 = r1.size, r2.size
    n = s1 * s2
    _check_cap(n)
    # every entry is below n, so the int32 factor tables build it exactly
    add = (r1.add[:, None, :, None] * s2
           + r2.add[None, :, None, :]).reshape(n, n)
    mul = (r1.mul[:, None, :, None] * s2
           + r2.mul[None, :, None, :]).reshape(n, n)
    zero = r1.zero * s2 + r2.zero
    one = r1.one * s2 + r2.one
    prov = ex.Product(r1.provenance, r2.provenance)
    return FiniteRing(add, mul, zero, one, prov, factors=(r1, r2))


def coset_least(r: FiniteRing, members: np.ndarray) -> np.ndarray:
    """The least element of x + members for every element x, where
    members is an additive subgroup, given by its indices or its mask."""
    return r.add[:, members].min(axis=1)


def _cosets(r: FiniteRing, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosets of the additive subgroup `members`: the least element of each
    coset in ascending order, and the coset number of every element."""
    return np.unique(coset_least(r, members), return_inverse=True)


def _quotient_ring(r: FiniteRing, reps: np.ndarray, proj: np.ndarray,
                   prov: ex.RingExpr) -> tuple[FiniteRing, Homomorphism]:
    """The ring on the cosets numbered by proj, where reps[c] lies in coset
    c, plus the verified projection from r."""
    ix = np.ix_(reps, reps)
    ring = FiniteRing(proj[r.add[ix]], proj[r.mul[ix]], int(proj[r.zero]),
                      int(proj[r.one]), prov)
    return ring, Homomorphism(r, ring, proj)


def make_quotient(r: FiniteRing, q: "Ideal") -> tuple[FiniteRing, Homomorphism]:
    """Quotient ring r/q plus the verified projection homomorphism.

    Cosets are labelled by their least element; quotient element i is the
    i-th coset in that order. The projection's kernel is asserted to be
    exactly q.
    """
    if q.ring is not r:
        raise RingMismatch("ideal belongs to a different ring")
    if len(q.elements) == r.size:
        raise ImproperIdeal("cannot quotient by the whole ring (zero ring)")
    reps, proj = _cosets(r, q.mask)
    lits = tuple(element_literal(r, g) for g in q.generators)
    ring, hom = _quotient_ring(r, reps, proj, ex.Quotient(r.provenance, lits))
    if hom.kernel != q.elements:
        raise ValueError("projection kernel disagrees with the quotienting ideal")
    return ring, hom


def make_localization(r: FiniteRing, s: Iterable[int]) -> tuple[FiniteRing, Homomorphism]:
    """Localization S^-1 r plus the verified canonical map a -> a/1.

    In a finite ring the canonical map is onto: the powers of t in S
    cycle, t^(k+p) = t^k with p >= 1, so t^p/1 = 1 and a/t = a*t^(p-1)/1.
    Its kernel is K = {a : ta = 0 for some t in S}, so S^-1 r is r/K, and
    it is built here as that quotient. The result is certified, not
    assumed: the map is a verified Homomorphism, onto by construction,
    every element of S maps to a unit, and the kernel is asserted to be
    exactly K. By the universal property the map then factors through
    S^-1 r, and the induced map S^-1 r -> r/K is onto and has zero kernel.

    Elements are numbered as in the pair construction S^-1 r = (r x S)/~:
    each class by the least index a*|S| + (position of t in sorted S) of
    a pair (a, t) with a/t in it.
    """
    s_idx = np.unique(_as_int32(list(s), r.size, "S"))
    if len(s_idx) == 0:
        raise NotMultClosed("S is empty")
    if r.zero in s_idx:
        raise ZeroInS("S contains 0")
    if r.one not in s_idx:
        raise NotMultClosed("S does not contain 1")
    in_s = np.zeros(r.size, dtype=bool)
    in_s[s_idx] = True
    prods = r.mul[np.ix_(s_idx, s_idx)]
    outside = _first_hit(~in_s[prods])
    if outside is not None:
        a, b = outside
        raise NotMultClosed(
            f"{s_idx[a]}*{s_idx[b]} = {prods[a, b]} is not in S")

    torsion = np.flatnonzero((r.mul[s_idx] == r.zero).any(axis=0))     # K
    reps, proj = _cosets(r, torsion)
    # the least a with a/t = c is the least element of the coset c*t
    least_a = reps[proj[r.mul[np.ix_(reps, s_idx)]]]
    order = np.argsort((least_a * len(s_idx) + np.arange(len(s_idx))).min(axis=1))
    reps, proj = reps[order], np.argsort(order)[proj]

    lits = tuple(element_literal(r, int(a)) for a in s_idx)
    ring, hom = _quotient_ring(r, reps, proj, ex.Localize(r.provenance, lits))
    if not ring.unit_mask[proj[s_idx]].all():
        raise ValueError("some element of S fails to become a unit")
    if hom.kernel != tuple(torsion.tolist()):
        raise ValueError("canonical map kernel disagrees with {a : sa = 0}")
    return ring, hom


def make_idealization(r: FiniteRing, j: "Ideal") -> FiniteRing:
    """Trivial extension of r by the cyclic module M = r/j.

    Elements are pairs (a, m) with m a coset of j, stored at index
    a*|M| + m; (a, m)*(b, m') = (ab, a m' + b m). The computed unit set
    is asserted to be exactly {(a, m) : a is a unit}.
    """
    if j.ring is not r:
        raise RingMismatch("ideal belongs to a different ring")
    mreps, to_m = _cosets(r, j.mask)                  # module coset rank
    k = len(mreps)
    n = r.size * k
    _check_cap(n)
    to_m = to_m.astype(np.int32)
    madd = to_m[r.add[np.ix_(mreps, mreps)]]
    act = to_m[r.mul[:, mreps]]                        # act[a, m] = rank(a*m)

    # every entry is below n, so the int32 tables build it exactly
    add = (r.add[:, None, :, None] * k + madd[None, :, None, :]).reshape(n, n)
    mul = madd[act[:, None, None, :], act.T[None, :, :, None]]
    mul += r.mul[:, None, :, None] * k
    mul = mul.reshape(n, n)

    m_zero = int(to_m[r.zero])
    zero = r.zero * k + m_zero
    one = r.one * k + m_zero
    lits = tuple(element_literal(r, g) for g in j.generators)
    prov = ex.Idealize(r.provenance, lits)
    ring = FiniteRing(add, mul, zero, one, prov, idealization=(r, j))

    expected_units = r.unit_mask[np.arange(n) // k]
    if not np.array_equal(ring.unit_mask, expected_units):
        raise ValueError("idealization units differ from {(a, m) : a unit}")
    return ring


def make_local_algebra(p: int) -> FiniteRing:
    """k[X, Y]/(X^2, XY, Y^2) over the field with p elements.

    Element a + b*x + c*y is stored at index a*p^2 + b*p + c, so x sits
    at index p and y at index 1.
    """
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise NotPrime(f"{p} is not prime")
    n = p ** 3
    _check_cap(n)
    # digits a, b, c of the row element on axes 0-2, a2, b2, c2 of the
    # column on axes 3-5: only the final int32 sum of each table is n x n
    x = np.arange(p, dtype=np.int32)
    a, b, c, a2, b2, c2 = np.ix_(x, x, x, x, x, x)
    add = ((a + a2) % p * p ** 2 + (b + b2) % p * p
           + (c + c2) % p).reshape(n, n)
    mul = ((a * a2) % p * p ** 2 + (a * b2 + b * a2) % p * p
           + (a * c2 + c * a2) % p).reshape(n, n)
    return FiniteRing(add, mul, 0, p ** 2, ex.LocalAlg(p))


# ---------------------------------------------------------------------------
# element literals: pairs follow the ring's declared parts


def element_literal(r: FiniteRing, index: int) -> ex.Literal:
    """Literal form of an element index: a pair for a product or an
    idealization, recursing into the parts, else the plain index."""
    index = int(index)
    if r.factors is not None:
        left, right = r.factors
        a, b = divmod(index, right.size)
        return (element_literal(left, a), element_literal(right, b))
    if r.idealization is not None:
        base, _ = r.idealization
        a, m = divmod(index, r.module_size)
        return (element_literal(base, a), m)
    return index


def resolve_literal(r: FiniteRing, lit: ex.Literal) -> int:
    """Element index named by a literal, the inverse of element_literal.
    A plain index is accepted for every ring."""
    if isinstance(lit, tuple):
        if r.factors is not None:
            left, right = r.factors
            a, b = resolve_literal(left, lit[0]), resolve_literal(right, lit[1])
            return a * right.size + b
        if r.idealization is not None:
            base, _ = r.idealization
            k, m = r.module_size, lit[1]
            if not isinstance(m, int) or not 0 <= m < k:
                raise ElementOutOfRange(f"module component {m!r} outside 0..{k - 1}")
            return resolve_literal(base, lit[0]) * k + m
        raise ElementOutOfRange(
            f"pair literal {ex.print_literal(lit)} for non-product ring {r.text}")
    if not isinstance(lit, int) or not 0 <= lit < r.size:
        raise ElementOutOfRange(
            f"element {lit!r} outside 0..{r.size - 1} in {r.text}")
    return lit


def zn_isomorphism(r: FiniteRing) -> Homomorphism | None:
    """The isomorphism Z_n -> r with n = |r|, or None when r is not Z_n.

    A unital map from Z_n must send k to k*1, so this is the only
    candidate. It is a homomorphism because the additive order of 1
    divides n, and it is bijective exactly when 1 has additive order n.
    """
    f = np.empty(r.size, dtype=np.int32)
    f[0] = r.zero
    for k in range(1, r.size):
        f[k] = r.add[f[k - 1], r.one]
    hom = Homomorphism(make_zn(r.size), r, f)
    return hom if hom.is_injective else None
