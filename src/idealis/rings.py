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

Rings of size <= 64 additionally get the literal dense n^3 triple scans,
so the reduction is cross-checked against brute force on every distinct
small table in every run. A build with the exact tables of a live ring
(compared in full, never by digest alone) shares that ring's proof.
"""

from __future__ import annotations

import os
import weakref
import zlib
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

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
_LITERAL_SCAN_MAX = 64
_INT32_PRODUCTS = 46341         # largest n with (n-1)^2 < 2^31
# live verified rings by (n, zero, one, crc32 of add then mul)
_VERIFIED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def element_cap() -> int:
    """Current element cap; the IDEALIS_CAP env var overrides the default."""
    raw = os.environ.get("IDEALIS_CAP", "").strip() or str(DEFAULT_ELEMENT_CAP)
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"IDEALIS_CAP must be a positive integer, got {raw!r}")
    return int(raw)


def _check_cap(n: int, cap: int | None) -> None:
    """Refuse a ring of n elements above the cap (default: element_cap())."""
    limit = element_cap() if cap is None else cap
    if n > limit:
        raise CapExceeded(f"ring would have {n} elements, cap is {limit}")


class FiniteRing:
    """A verified finite commutative ring with identity. Each distinct
    table is verified in full (literal cubes too up to 64 elements); a build
    with a live ring's exact tables shares its proof, unit data and _scans.

    Attributes:
        size: number of elements.
        add, mul: dense int32 operation tables (read-only).
        zero, one: indices of the additive and multiplicative identities.
        neg: neg[a] is the additive inverse of a.
        units: frozenset of unit indices.
        unit_mask: boolean array marking units.
        nonunits: sorted int array of nonunit indices (zero included).
        nonunit_products (cached): (xy, ws, first): xy = mul on nonunit
            pairs, ws its sorted distinct values, first[k] the row-major
            index in xy of the first pair giving ws[k].
        provenance: the construction expression.
        _scans: witnesses per verdict key, keyed by ideal elements.
        factors: (left, right) for a direct product, else None; element
            (a, b) is stored at index a*right.size + b.
        idealization: (base, j) for the trivial extension base (+) base/j,
            else None; element (a, m) is stored at index a*module_size + m.
    """

    def __init__(self, add, mul, zero: int, one: int,
                 provenance: ex.RingExpr, cap: int | None = None, *,
                 factors: tuple[FiniteRing, FiniteRing] | None = None,
                 idealization: tuple[FiniteRing, Ideal] | None = None):
        add = np.ascontiguousarray(add, dtype=np.int32)
        mul = np.ascontiguousarray(mul, dtype=np.int32)
        if add.ndim != 2 or add.shape[0] != add.shape[1]:
            raise ValueError("addition table must be square")
        n = add.shape[0]
        _check_cap(n, cap)
        if mul.shape != (n, n):
            raise ValueError("multiplication table shape does not match")
        if n < 2:
            raise ValueError("a ring needs at least the two elements 0 and 1")
        for t, name in ((add, "add"), (mul, "mul")):
            if t.min() < 0 or t.max() >= n:
                raise ValueError(f"{name} table has entries outside 0..{n - 1}")
        if not (0 <= zero < n and 0 <= one < n):
            raise ValueError("zero/one index out of range")
        if zero == one:
            raise ValueError("one == zero: the zero ring is not admitted")

        self.size = n
        self.add = add
        self.mul = mul
        self.zero = int(zero)
        self.one = int(one)
        self.provenance = provenance
        self.factors = factors
        self.idealization = idealization
        self._lattice: IdealLattice | None = None    # filled by all_ideals

        key = (n, self.zero, self.one, zlib.crc32(mul, zlib.crc32(add)))
        twin = _VERIFIED.get(key)
        if (twin is not None and np.array_equal(twin.add, add)
                and np.array_equal(twin.mul, mul)):
            self.add, self.mul, self.neg = twin.add, twin.mul, twin.neg
            self.unit_mask, self.units = twin.unit_mask, twin.units
            self.nonunits, self._scans = twin.nonunits, twin._scans
            return
        self._scans: dict[tuple[int, ...], dict[str, tuple | None]] = {}
        _verify_ring(self)

        self.neg = (add == self.zero).argmax(axis=1).astype(np.int32)
        self.unit_mask = (mul == self.one).any(axis=1)
        self.units = frozenset(int(u) for u in np.flatnonzero(self.unit_mask))
        self.nonunits = np.flatnonzero(~self.unit_mask).astype(np.int32)

        # a finite commutative ring has no regular nonunits; checking the
        # scan result against the unit scan guards both computations
        regular = (mul == self.zero).sum(axis=1) == 1
        if not np.array_equal(regular, self.unit_mask):
            raise ValueError("regular elements disagree with units; tables corrupt")

        add.setflags(write=False)
        mul.setflags(write=False)
        self.neg.setflags(write=False)
        self.unit_mask.setflags(write=False)
        self.nonunits.setflags(write=False)
        _VERIFIED[key] = self

    @cached_property
    def nonunit_products(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        xy = self.mul[np.ix_(self.nonunits, self.nonunits)]
        ws, first = np.unique(xy, return_index=True)    # first occurrences
        for a in (xy, ws, first):
            a.setflags(write=False)
        return xy, ws, first

    @property
    def text(self) -> str:
        return ex.print_expr(self.provenance)

    @property
    def module_size(self) -> int:
        """|M| for an idealization: M = base/j is cyclic, so |M| = |base|/|j|."""
        base, j = self.idealization
        return base.size // len(j)

    def is_unit(self, a: int) -> bool:
        return bool(self.unit_mask[a])

    def __repr__(self) -> str:
        return f"FiniteRing({self.text}, size={self.size})"


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


def _verify_ring(r: FiniteRing) -> None:
    add, mul, n = r.add, r.mul, r.size
    idx = np.arange(n)

    if not np.array_equal(add, add.T):
        x, y = np.argwhere(add != add.T)[0]
        raise ValueError(f"+ not commutative at ({x}, {y})")
    if not np.array_equal(mul, mul.T):
        x, y = np.argwhere(mul != mul.T)[0]
        raise ValueError(f"* not commutative at ({x}, {y})")
    if not np.array_equal(add[r.zero], idx):
        raise ValueError("0 is not an additive identity")
    if not np.array_equal(mul[r.one], idx):
        raise ValueError("1 is not a multiplicative identity")
    if not (add == r.zero).any(axis=1).all():
        a = int(np.argmin((add == r.zero).any(axis=1)))
        raise ValueError(f"element {a} has no additive inverse")
    if not (mul[r.zero] == r.zero).all():
        raise ValueError("0 * x != 0 for some x")

    gens = additive_generators(add, r.zero)
    for g in gens:
        # Light's test slice for +: (x+g)+y == x+(g+y)
        if not np.array_equal(add[add[:, g]], add[:, add[g]]):
            x, y = np.argwhere(add[add[:, g]] != add[:, add[g]])[0]
            raise ValueError(f"+ not associative at ({x}, {g}, {y})")
        # (g*y)*z == g*(y*z); extends to all x by distributivity
        if not np.array_equal(mul[mul[g]], mul[g][mul]):
            y, z = np.argwhere(mul[mul[g]] != mul[g][mul])[0]
            raise ValueError(f"* not associative at ({g}, {y}, {z})")
        # a*(g+x) == a*g + a*x for every a, x; no n x n slice outlives it
        if not np.array_equal(mul[:, add[g]], add[mul[:, g][:, None], mul]):
            a, x = np.argwhere(mul[:, add[g]] != add[mul[:, g][:, None], mul])[0]
            raise ValueError(f"* not distributive at ({a}, {g}, {x})")

    if n <= _LITERAL_SCAN_MAX:
        _verify_triples_literal(add, mul)


def _verify_triples_literal(add: np.ndarray, mul: np.ndarray) -> None:
    # brute-force cubes; only run for small rings
    if not np.array_equal(add[add], add[:, add]):
        x, y, z = np.argwhere(add[add] != add[:, add])[0]
        raise ValueError(f"+ not associative at ({x}, {y}, {z})")
    if not np.array_equal(mul[mul], mul[:, mul]):
        x, y, z = np.argwhere(mul[mul] != mul[:, mul])[0]
        raise ValueError(f"* not associative at ({x}, {y}, {z})")
    lhs = mul[:, add]
    rhs = add[mul[:, :, None], mul[:, None, :]]
    if not np.array_equal(lhs, rhs):
        x, y, z = np.argwhere(lhs != rhs)[0]
        raise ValueError(f"* not distributive at ({x}, {y}, {z})")


class Homomorphism:
    """A verified unital ring homomorphism between two finite rings.

    The defining equations are checked over all pairs at construction.
    """

    def __init__(self, source: FiniteRing, target: FiniteRing, mapping):
        mapping = np.ascontiguousarray(mapping, dtype=np.int32)
        if mapping.shape != (source.size,):
            raise ValueError("mapping must assign every source element")
        if mapping.min() < 0 or mapping.max() >= target.size:
            raise ValueError("mapping has values outside the target ring")
        f = mapping
        if int(f[source.one]) != target.one:
            raise ValueError("homomorphism must send 1 to 1")
        if int(f[source.zero]) != target.zero:
            raise ValueError("homomorphism must send 0 to 0")
        if not np.array_equal(f[source.add], target.add[np.ix_(f, f)]):
            a, b = np.argwhere(f[source.add] != target.add[np.ix_(f, f)])[0]
            raise ValueError(f"f(a+b) != f(a)+f(b) at ({a}, {b})")
        if not np.array_equal(f[source.mul], target.mul[np.ix_(f, f)]):
            a, b = np.argwhere(f[source.mul] != target.mul[np.ix_(f, f)])[0]
            raise ValueError(f"f(a*b) != f(a)*f(b) at ({a}, {b})")
        self.source = source
        self.target = target
        self.mapping = f
        self.mapping.setflags(write=False)
        self.kernel = tuple(int(a) for a in np.flatnonzero(f == target.zero))
        self.image = tuple(sorted(int(v) for v in set(f.tolist())))

    @property
    def is_injective(self) -> bool:
        return len(set(self.mapping.tolist())) == self.source.size

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


def make_zn(n: int, cap: int | None = None) -> FiniteRing:
    """The ring of integers modulo n, elements 0..n-1."""
    if n < 2:
        raise ValueError("Z_n needs n >= 2")
    _check_cap(n, cap)
    # (n-1)^2 fits int32 up to n = 46341; the tables are built in the
    # dtype FiniteRing keeps, so no int64 copy is made
    idx = np.arange(n, dtype=np.int32 if n <= _INT32_PRODUCTS else np.int64)
    add = idx[:, None] + idx[None, :]
    add %= n
    mul = idx[:, None] * idx[None, :]
    mul %= n
    return FiniteRing(add, mul, 0, 1, ex.Zn(n), cap=cap)


def make_product(r1: FiniteRing, r2: FiniteRing, cap: int | None = None) -> FiniteRing:
    """Direct product; element (a, b) is stored at index a*r2.size + b."""
    s1, s2 = r1.size, r2.size
    n = s1 * s2
    _check_cap(n, cap)
    # every entry is below n, so the int32 factor tables build it exactly
    add = (r1.add[:, None, :, None] * s2
           + r2.add[None, :, None, :]).reshape(n, n)
    mul = (r1.mul[:, None, :, None] * s2
           + r2.mul[None, :, None, :]).reshape(n, n)
    zero = r1.zero * s2 + r2.zero
    one = r1.one * s2 + r2.one
    prov = ex.Product(r1.provenance, r2.provenance)
    return FiniteRing(add, mul, zero, one, prov, cap=cap, factors=(r1, r2))


def _cosets(r: FiniteRing, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosets of the additive subgroup `members`: the least element of each
    coset in ascending order, and the coset number of every element."""
    least = r.add[:, members].min(axis=1)
    return np.unique(least, return_inverse=True)


def _quotient_ring(r: FiniteRing, reps: np.ndarray, proj: np.ndarray,
                   prov: ex.RingExpr, cap: int | None) -> tuple[FiniteRing, Homomorphism]:
    """The ring on the cosets numbered by proj, where reps[c] lies in coset
    c, plus the verified projection from r."""
    ix = np.ix_(reps, reps)
    ring = FiniteRing(proj[r.add[ix]], proj[r.mul[ix]], int(proj[r.zero]),
                      int(proj[r.one]), prov, cap=cap)
    return ring, Homomorphism(r, ring, proj)


def make_quotient(r: FiniteRing, q: "Ideal",
                  cap: int | None = None) -> tuple[FiniteRing, Homomorphism]:
    """Quotient ring r/q plus the verified projection homomorphism.

    Cosets are labelled by their least element; quotient element i is the
    i-th coset in that order. The projection's kernel is asserted to be
    exactly q.
    """
    if q.ring is not r:
        raise RingMismatch("ideal belongs to a different ring")
    if len(q.elements) == r.size:
        raise ImproperIdeal("cannot quotient by the whole ring (zero ring)")
    reps, proj = _cosets(r, q.arr)
    lits = tuple(element_literal(r, g) for g in q.generators)
    ring, hom = _quotient_ring(r, reps, proj, ex.Quotient(r.provenance, lits), cap)
    if hom.kernel != q.elements:
        raise ValueError("projection kernel disagrees with the quotienting ideal")
    return ring, hom


def make_localization(r: FiniteRing, s: Iterable[int],
                      cap: int | None = None) -> tuple[FiniteRing, Homomorphism]:
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
    s_idx = np.asarray(sorted({int(a) for a in s}), dtype=np.intp)
    if len(s_idx) == 0:
        raise NotMultClosed("S is empty")
    if (s_idx < 0).any() or (s_idx >= r.size).any():
        raise ValueError("S contains indices outside the ring")
    if r.zero in s_idx:
        raise ZeroInS("S contains 0")
    if r.one not in s_idx:
        raise NotMultClosed("S does not contain 1")
    in_s = np.zeros(r.size, dtype=bool)
    in_s[s_idx] = True
    prods = r.mul[np.ix_(s_idx, s_idx)]
    if not in_s[prods].all():
        a, b = np.argwhere(~in_s[prods])[0]
        raise NotMultClosed(
            f"{s_idx[a]}*{s_idx[b]} = {prods[a, b]} is not in S")

    torsion = np.flatnonzero((r.mul[s_idx] == r.zero).any(axis=0))     # K
    reps, proj = _cosets(r, torsion)
    # the least a with a/t = c is the least element of the coset c*t
    least_a = reps[proj[r.mul[np.ix_(reps, s_idx)]]]
    order = np.argsort((least_a * len(s_idx) + np.arange(len(s_idx))).min(axis=1))
    reps, proj = reps[order], np.argsort(order)[proj]

    lits = tuple(element_literal(r, int(a)) for a in s_idx)
    ring, hom = _quotient_ring(r, reps, proj, ex.Localize(r.provenance, lits), cap)
    if not ring.unit_mask[proj[s_idx]].all():
        raise ValueError("some element of S fails to become a unit")
    if hom.kernel != tuple(torsion.tolist()):
        raise ValueError("canonical map kernel disagrees with {a : sa = 0}")
    return ring, hom


def make_idealization(r: FiniteRing, j: "Ideal", cap: int | None = None) -> FiniteRing:
    """Trivial extension of r by the cyclic module M = r/j.

    Elements are pairs (a, m) with m a coset of j, stored at index
    a*|M| + m; (a, m)*(b, m') = (ab, a m' + b m). The computed unit set
    is asserted to be exactly {(a, m) : a is a unit}.
    """
    if j.ring is not r:
        raise RingMismatch("ideal belongs to a different ring")
    mreps, to_m = _cosets(r, j.arr)                   # module coset rank
    k = len(mreps)
    n = r.size * k
    _check_cap(n, cap)
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
    ring = FiniteRing(add, mul, zero, one, prov, cap=cap, idealization=(r, j))

    expected_units = r.unit_mask[np.arange(n) // k]
    if not np.array_equal(ring.unit_mask, expected_units):
        raise ValueError("idealization units differ from {(a, m) : a unit}")
    return ring


def make_local_algebra(p: int, cap: int | None = None) -> FiniteRing:
    """k[X, Y]/(X^2, XY, Y^2) over the field with p elements.

    Element a + b*x + c*y is stored at index a*p^2 + b*p + c, so x sits
    at index p and y at index 1.
    """
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise NotPrime(f"{p} is not prime")
    n = p ** 3
    _check_cap(n, cap)
    # digits a, b, c of the row element on axes 0-2, a2, b2, c2 of the
    # column on axes 3-5: only the final int32 sum of each table is n x n
    x = np.arange(p, dtype=np.int32)
    a, b, c, a2, b2, c2 = np.ix_(x, x, x, x, x, x)
    add = ((a + a2) % p * p ** 2 + (b + b2) % p * p
           + (c + c2) % p).reshape(n, n)
    mul = ((a * a2) % p * p ** 2 + (a * b2 + b * a2) % p * p
           + (a * c2 + c * a2) % p).reshape(n, n)
    return FiniteRing(add, mul, 0, p ** 2, ex.LocalAlg(p), cap=cap)


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
    hom = Homomorphism(make_zn(r.size, cap=r.size), r, f)
    return hom if hom.is_injective else None
