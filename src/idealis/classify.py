"""Decision procedures for six prime-like ideal classes.

For a proper ideal P of a finite commutative ring A:

- prime:        x*y in P implies x in P or y in P (all x, y)
- weakly prime: 0 != x*y in P implies x in P or y in P
- 2-absorbing:  x*y*z in P implies x*y in P or x*z in P or y*z in P
- weakly 2-absorbing: same with the extra hypothesis x*y*z != 0
- 1-absorbing prime:  for NONUNITS x, y, z: x*y*z in P implies
                      x*y in P or z in P
- weakly 1-absorbing prime: same with the extra hypothesis x*y*z != 0

Every predicate returns its verdict together with the lexicographically
least violating tuple when the verdict is False. Zero counts as a
nonunit.

Each strict/weak pair is one family. Every family lays its violation
tables out so that row-major order is lex order of the candidates: one
(x, y) table for prime, blocks of x rows of an (x, y) x z cube for
2-absorbing, and one (x*y, z) table for 1-absorbing. So one reader,
rings._first_hit, gives every witness, strict and weak, as the first
row-major hit; for 2-absorbing it reads the (x, y) pairs of a block
that have any z, and z is the lowest set bit of that pair's words. A
weak violation is a strict one, so one pass finds both witnesses.

No condition of a family changes when a coordinate is multiplied by a
unit u: u*w lies in P iff w does, and u*w != 0 iff w != 0. So replacing
each coordinate of a violation by the least nonunit of its associate
class gives a violation, strict or weak as it was, that is lex-smaller
or equal as it stands for prime and 1-absorbing, and once sorted for
2-absorbing.

The prime plane runs over the reps of the ring's nonunit_classes outside
P, the columns of the 1-absorbing table below, and reads their products
from ab. No prime violation uses a member of P, nor a unit, for a unit x
puts y = x^-1*(x*y) in P.

The 2-absorbing cube draws x, y and z from sorted candidates c. No
violation uses a unit, for a unit x puts y*z = x^-1*(x*y*z) in P, nor a
member of P, for such an x puts x*y in P. Every element w gets a bitset
over c, packed in little-endian uint64 words: bit z is set when w*z is
in P, and for the weak search also w*z != 0. A block takes the x rows
c[s:e] and the y from c[s] on, and its hits are
bits[x*y] & ~bits[x] & ~bits[y], none where x*y is in P: bit z of the
pair (x, y) marks a violation (x, y, z). A block holds at most
_BLOCK_ENTRIES words. The violation is symmetric in x, y and z, so
sorting one gives one that is lex-smaller or equal: the least has
x <= y <= z, so it lies in the block of its x, where y >= x >= s. No
earlier block has a hit, which would be a violation with a smaller x,
so the least violation is the first row-major hit of the first block
that has any hit. For the same reason, each coordinate of a violation
is the x or the y of a hit in the block of its least coordinate.

The units of A act on A/P by multiplication, and the orbit of x is the
union of the cosets u*x + P. The strict condition sees x, y and z only
through their orbits: whether x*y*z, x*y, x*z and y*z lie in P does not
change when p in P is added to x, nor when x is multiplied by a unit.
Replacing each coordinate of a violation by the least member of its
orbit and sorting gives a violation that is lex-smaller or equal, so
the strict search runs over the orbit representatives only: the
nonunits outside P that are the least member of their orbit. An orbit
with a violation holds no unit, so its least member is such a nonunit.
That member is the least coset_least value over the associate class of
x, one minimum per class of the ring's nonunit_classes.

The weak condition x*y*z != 0 does not pass to cosets, but it passes to
associates, so the least weak violation is made of class reps. A weak
violation is a strict one, so each of its orbits holds a coordinate of
a strict violation among the representatives. The strict search runs
over every block and marks the orbits of the x rows and of the y
columns that have a hit, which holds every such coordinate. The weak
search runs over the class reps outside P whose orbit is marked, and
stops at its first block with a hit. It is skipped when there is no
strict violation, for P = 0, where 0 != x*y*z in P cannot hold, and
when the strict witness has x*y*z != 0: it is then a weak violation
too, and no weak violation, being a strict one, is smaller.

The 1-absorbing table runs over the reps of the ring's nonunit_classes,
the least nonunit of each associate class: a row per rep product
w = a*b outside P (w in P satisfies the disjunction), in the order of
the first rep pair giving w, a column per rep z outside P and a hit
where w*z is in P. The least pair with a hit is then the first pair of
the first hit row, so the first row-major hit is the witness. A triple
of nonunits is a violation exactly when its classes are, so the class
cube of hits, cube[a, b, c] the hit of row ab[a, b] at column c, gives
the 1-triple zeros, sizes[a]*sizes[b]*sizes[c] per class triple;
_triple_zero_blocks yields it in blocks of x classes, none when the
memoized strict scan found no hit. The checks that read it ask whether a
product lies in an ideal, which no unit changes. Under damaged unit data the declared
units are true units, so each class lies in a true associate class whose
least member is a rep, and every rep is a declared nonunit: all of this,
and the prime plane, holds.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .errors import ImproperIdeal, NotW1AP
from .ideals import Ideal, all_ideals
from .rings import _BLOCK_ENTRIES, FiniteRing, _first_hit, coset_least


class Verdict(NamedTuple):
    holds: bool
    witness: tuple | None


VERDICT_KEYS = (
    "prime",
    "weaklyPrime",
    "twoAbsorbing",
    "weaklyTwoAbsorbing",
    "oneAbsorbingPrime",
    "weaklyOneAbsorbingPrime",
)

IMPLICATIONS = (
    ("prime", "weaklyPrime"),
    ("prime", "oneAbsorbingPrime"),
    ("oneAbsorbingPrime", "twoAbsorbing"),
    ("oneAbsorbingPrime", "weaklyOneAbsorbingPrime"),
    ("weaklyPrime", "weaklyOneAbsorbingPrime"),
    ("twoAbsorbing", "weaklyTwoAbsorbing"),
    ("weaklyOneAbsorbingPrime", "weaklyTwoAbsorbing"),
)

ZERO_IDEAL_FOOTNOTE = (
    "twoAbsorbing and weaklyTwoAbsorbing were evaluated on the zero "
    "ideal; the classical definitions are usually stated for nonzero "
    "ideals")


def _require_proper(p: Ideal) -> None:
    if not p.is_proper:
        raise ImproperIdeal(f"classification needs a proper ideal of {p.ring.text}")


def _words(table: np.ndarray) -> np.ndarray:
    """The rows of the boolean table as bitsets of little-endian uint64
    words, words-first: bit j of words[q, w] holds column 64*q + j of
    row w. One more row, w = len(table), has no bit set."""
    rows, cols = table.shape
    padded = np.zeros((rows + 1, -(-cols // 64) * 64), dtype=bool)
    padded[:rows, :cols] = table
    packed = np.packbits(padded, axis=1, bitorder="little").view("<u8")
    return np.ascontiguousarray(packed.T)


def _two_absorbing_blocks(ring: FiniteRing, mask: np.ndarray, c: np.ndarray,
                          weak: bool):
    """(xs, ys, hit) per block of x rows of the sorted candidates c: xs
    the block's rows c[s:e], ys the candidates c[s:] from its first row
    on, and hit the words of the block: bit l of hit[q, i, j] is set
    when (xs[i], ys[j], c[64*q + l]) is a violation, weak or strict. A
    block holds at most _BLOCK_ENTRIES words."""
    prods = ring.mul[:, c]             # [w, z] = w*z
    in_p = mask[prods]
    bits = _words(in_p)                # bit z of w: w*z in P
    out = ~bits[:, c]                  # bit z of x: x*z not in P
    if weak:
        bits = _words(in_p & (prods != ring.zero))
    cc = np.where(in_p[c], ring.size, prods[c])     # x*y, or the empty row
    words, k = out.shape
    s = 0
    while s < k:
        e = min(k, s + max(1, _BLOCK_ENTRIES // ((k - s) * words)))
        hit = bits[:, cc[s:e, s:]]
        hit &= out[:, s:e, None]
        hit &= out[:, None, s:]
        yield c[s:e], c[s:], hit
        s = e


def _least_triple(c: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                  hit: np.ndarray, pairs: np.ndarray) -> tuple | None:
    """The first row-major hit of a block, z the lowest set bit of the
    words of its first pair (x, y) with any, pairs = hit.any(axis=0)."""
    first = _first_hit(pairs)
    if first is None:
        return None
    i, j = first
    q = int(np.flatnonzero(hit[:, i, j])[0])
    word = int(hit[q, i, j])
    return int(xs[i]), int(ys[j]), int(c[64 * q + (word & -word).bit_length() - 1])


def _one_absorbing_table(ring: FiniteRing, mask: np.ndarray):
    """(classes, rows, cols, prods, hits): the ring's nonunit_classes,
    rows the indices in classes.ws of the rep products w outside P,
    cols the indices in classes.reps of the reps z outside P, and hits
    where prods = w*z lies in P."""
    cl = ring.nonunit_classes
    rows = np.flatnonzero(~mask[cl.ws])
    cols = np.flatnonzero(~mask[cl.reps])
    prods = ring.mul[np.ix_(cl.ws[rows], cl.reps[cols])]
    return cl, rows, cols, prods, mask[prods]


def _triple_zero_rows(p: Ideal) -> np.ndarray | None:
    """Row w of the 1-absorbing table of P, by element w, over every class
    z; the rows of no w are empty. None, without a build, when the
    memoized strict scan of the same table found no hit."""
    if is_one_absorbing_prime(p).holds:
        return None
    cl, rows, cols, _, hits = _one_absorbing_table(p.ring, p.mask)
    of_w = np.zeros((p.ring.size, len(cl.reps)), dtype=bool)
    of_w[np.ix_(cl.ws[rows], cols)] = hits
    return of_w


def _triple_zero_blocks(p: Ideal):
    """(xs, cube) per block of x classes: xs the slice of the block's
    classes and cube[i, b, c] set when the classes xs[i], b and c are a
    class triple of 1-triple zeros. A block holds at most _BLOCK_ENTRIES
    entries, or one class; there is none when the table has no hit."""
    of_w = _triple_zero_rows(p)
    ab = p.ring.nonunit_classes.ab
    step = max(1, _BLOCK_ENTRIES // ab.size)
    for s in range(0, 0 if of_w is None else len(ab), step):
        yield slice(s, s + step), of_w[ab[s:s + step]]


def _scan_prime(ring: FiniteRing, mask: np.ndarray):
    cl = ring.nonunit_classes
    out = np.flatnonzero(~mask[cl.reps])
    prods = cl.ab[np.ix_(out, out)]
    viol = mask[prods]
    hits = _first_hit(viol), _first_hit(viol & (prods != ring.zero))
    c = cl.reps[out]
    return tuple(None if h is None else (int(c[h[0]]), int(c[h[1]])) for h in hits)


def _scan_two_absorbing(ring: FiniteRing, mask: np.ndarray):
    cl, nu = ring.nonunit_classes, ring.nonunits
    orbit = np.full(len(cl.reps), ring.size)    # least member of the cosets u*x + P
    np.minimum.at(orbit, cl.of, coset_least(ring, np.flatnonzero(mask))[nu])
    out = ~mask[nu]
    c = nu[out]
    least = c[orbit[cl.of[out]] == c]
    strict, seen = None, np.zeros(ring.size, dtype=bool)
    for xs, ys, hit in _two_absorbing_blocks(ring, mask, least, False):
        pairs = hit.any(axis=0)
        if strict is None:
            strict = _least_triple(least, xs, ys, hit, pairs)
        seen[xs[pairs.any(axis=1)]] = True
        seen[ys[pairs.any(axis=0)]] = True
    if strict is None or np.count_nonzero(mask) == 1:      # no hit, or P = 0
        return strict, None
    x, y, z = strict
    if ring.mul[ring.mul[x, y], z] != ring.zero:            # already a weak one
        return strict, strict
    weak_c = cl.reps[~mask[cl.reps] & seen[orbit]]
    for xs, ys, hit in _two_absorbing_blocks(ring, mask, weak_c, True):
        weak = _least_triple(weak_c, xs, ys, hit, hit.any(axis=0))
        if weak is not None:
            return strict, weak
    return strict, None


def _scan_one_absorbing(ring: FiniteRing, mask: np.ndarray):
    cl, rows, cols, prods, hits = _one_absorbing_table(ring, mask)
    wits = []
    for viol in (hits, hits & (prods != ring.zero)):
        hit = _first_hit(viol)         # in the hit row with the least first
        if hit is not None:
            x, y = divmod(int(cl.first[rows[hit[0]]]), len(cl.reps))
            hit = int(cl.reps[x]), int(cl.reps[y]), int(cl.reps[cols[hit[1]]])
        wits.append(hit)
    return tuple(wits)


# each scan handles one key pair: asking for either member runs the scan once
_SCAN_FAMILIES = (
    (("prime", "weaklyPrime"), _scan_prime),
    (("twoAbsorbing", "weaklyTwoAbsorbing"), _scan_two_absorbing),
    (("oneAbsorbingPrime", "weaklyOneAbsorbingPrime"), _scan_one_absorbing),
)


def _scan_witness(p: Ideal, key: str) -> tuple | None:
    cached = p.ring._scans.setdefault(p.elements, {})
    if key not in cached:
        for (strict_key, weak_key), scan in _SCAN_FAMILIES:
            if key in (strict_key, weak_key):
                cached[strict_key], cached[weak_key] = scan(p.ring, p.mask)
                break
    return cached[key]


def _verdict(p: Ideal, key: str) -> Verdict:
    _require_proper(p)
    wit = _scan_witness(p, key)
    return Verdict(wit is None, wit)


def is_prime(p: Ideal) -> Verdict:
    return _verdict(p, "prime")


def is_weakly_prime(p: Ideal) -> Verdict:
    return _verdict(p, "weaklyPrime")


def is_two_absorbing(p: Ideal) -> Verdict:
    return _verdict(p, "twoAbsorbing")


def is_weakly_two_absorbing(p: Ideal) -> Verdict:
    return _verdict(p, "weaklyTwoAbsorbing")


def is_one_absorbing_prime(p: Ideal) -> Verdict:
    return _verdict(p, "oneAbsorbingPrime")


def is_weakly_one_absorbing_prime(p: Ideal) -> Verdict:
    return _verdict(p, "weaklyOneAbsorbingPrime")


@dataclass
class PropertyReport:
    ideal: Ideal
    verdicts: dict[str, bool]
    witnesses: dict[str, tuple | None]
    footnotes: tuple[str, ...] = ()


def classify(p: Ideal) -> PropertyReport:
    """Full report over all six classes, with witnesses for every False
    verdict. The implication diagram between the verdicts is asserted.
    The witnesses come from the ring's scan memo, so a second call, or
    one on an equal ideal of a ring with the same tables, rescans nothing."""
    _require_proper(p)
    wits = {k: _scan_witness(p, k) for k in VERDICT_KEYS}
    verdicts = {k: wits[k] is None for k in VERDICT_KEYS}
    for src, dst in IMPLICATIONS:
        if verdicts[src] and not verdicts[dst]:
            raise AssertionError(
                f"implication {src} -> {dst} broken on {p!r}; engine bug")
    footnotes = (ZERO_IDEAL_FOOTNOTE,) if p.is_zero else ()
    return PropertyReport(p, verdicts, wits, footnotes)


def witness_violates(p: Ideal, key: str, witness: tuple) -> bool:
    """Re-check a reported witness directly against the tables."""
    ring, mask = p.ring, p.mask
    mul, zero = ring.mul, ring.zero
    if key in ("prime", "weaklyPrime"):
        x, y = witness
        v = mask[mul[x, y]] and not mask[x] and not mask[y]
        if key == "weaklyPrime":
            v = v and int(mul[x, y]) != zero
        return bool(v)
    x, y, z = witness
    xyz = int(mul[mul[x, y], z])
    if key in ("twoAbsorbing", "weaklyTwoAbsorbing"):
        v = (mask[xyz] and not mask[mul[x, y]] and not mask[mul[x, z]]
             and not mask[mul[y, z]])
        if key == "weaklyTwoAbsorbing":
            v = v and xyz != zero
        return bool(v)
    if key in ("oneAbsorbingPrime", "weaklyOneAbsorbingPrime"):
        nonunit = not (ring.unit_mask[x] or ring.unit_mask[y] or ring.unit_mask[z])
        v = nonunit and mask[xyz] and not mask[mul[x, y]] and not mask[z]
        if key == "weaklyOneAbsorbingPrime":
            v = v and xyz != zero
        return bool(v)
    raise KeyError(key)


# ---------------------------------------------------------------------------
# 1-triple zeros


def find_one_triple_zeros(p: Ideal) -> Iterator[tuple[int, int, int]]:
    """Every 1-triple zero of P, lazily, in lexicographic order.

    Defined only for weakly 1-absorbing prime ideals, which the call
    checks; the triples are what separates P from 1-absorbing prime.
    """
    _require_proper(p)
    if not is_weakly_one_absorbing_prime(p).holds:
        raise NotW1AP(f"{p!r} is not weakly 1-absorbing prime")
    of_w = _triple_zero_rows(p)
    if of_w is None:
        return iter(())
    cl, nu = p.ring.nonunit_classes, p.ring.nonunits
    # the (y, z) of each x: its class's slice of the cube, spread over members
    tails = (np.nonzero(of_w[cl.ab[kx]][np.ix_(cl.of, cl.of)]) for kx in cl.of.tolist())
    return chain.from_iterable(zip(repeat(x), nu[y].tolist(), nu[z].tolist())
                               for x, (y, z) in zip(nu.tolist(), tails))


# ---------------------------------------------------------------------------
# independent characterization of the weakly 1-absorbing prime property


def _lattice_condition(pt: np.ndarray, le_p: np.ndarray, s: np.ndarray) -> bool:
    """For each lattice member L in s and each proper ideal J:
    0 != L*J within P implies L within P or J within P. pt is the
    product table and le_p the column of le for P."""
    kp = len(pt) - 1
    lj = pt[s, :kp]
    viol = (lj != 0) & le_p[lj] & ~le_p[s, None] & ~le_p[None, :kp]
    return not viol.any()


def tmm_characterize(p: Ideal) -> dict[str, bool]:
    """Six equivalent conditions, each decided by its own scan.

    (i)   P is weakly 1-absorbing prime (definitional scan);
    (ii)  for nonunits x, y with x*y not in P:
          (P : xy) = P union (0 : xy) as sets;
    (iii) same quantifier: (P : xy) = P or (P : xy) = (0 : xy);
    (iv)  for nonunits x, y and proper ideals J:
          0 != xyJ within P implies xy in P or J within P;
    (v)   for a nonunit x and proper ideals I, J:
          0 != xIJ within P implies xI within P or J within P;
    (vi)  for proper ideals I, J, K:
          0 != IJK within P implies IJ within P or K within P.

    No unit changes a condition, so the class reps and their products
    stand for x, y and w = x*y. (iv) to (vi) are one condition,
    _lattice_condition, over three sets of lattice members L, exactly:
    x*I = {x*i} is the ideal (x)I, (xy) = (x)(y) lies in P iff xy does,
    and (vi) sees I and J only through IJ. So (iv) runs over the (w) for
    the rep products w outside P, (v) over the (x)I and (vi) over the
    IJ. (a) is the first member that holds a: members are sorted by
    size, and (a) lies in every ideal that holds a. The (a) and the sets
    of (v) and (vi) do not depend on P, so the lattice keeps them. The
    sets index the whole product table: under damaged unit data a
    declared nonunit can be a unit, with (x) the whole ring.
    """
    _require_proper(p)
    ring, mask = p.ring, p.mask
    out = {"i": is_weakly_one_absorbing_prime(p).holds}

    # (P : w) and (0 : w) for every w = x*y outside P, one row each
    cl = ring.nonunit_classes
    wz = ring.mul[cl.ws[~mask[cl.ws]]]
    col, ann = mask[wz], wz == ring.zero
    out["ii"] = bool((col == (mask | ann)).all())
    out["iii"] = bool(((col == mask).all(axis=1)
                       | (col == ann).all(axis=1)).all())

    lat = all_ideals(ring)
    pt, le_p = lat.product_table, lat.le[:, lat.index(p)]
    xy = lat.principal[cl.ws[~mask[cl.ws]]]         # (x)(y) = (xy), xy outside P
    out["iv"] = _lattice_condition(pt, le_p, np.unique(xy))
    out["v"] = _lattice_condition(pt, le_p, lat.rep_multiples)
    out["vi"] = _lattice_condition(pt, le_p, lat.proper_products)
    return out
