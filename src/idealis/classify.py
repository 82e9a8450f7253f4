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
(x, y) table for prime, one (y, z) table per x for 2-absorbing, and one
(x*y, z) table for 1-absorbing. So one reader, rings._first_hit, gives
every witness, strict and weak, as the first row-major hit. A weak
violation is a strict one, so one pass finds both witnesses.

The prime plane runs over the nonunits outside P that are their own
least associate, read from the ring's associates. No prime violation
uses a member of P, nor a unit, for a unit x puts y = x^-1*(x*y) in P.
Multiplying x by a unit u keeps both conditions: u*x*y is in P iff x*y
is, and u*x*y != 0 iff x*y != 0, and u*x is outside P iff x is. So
replacing each coordinate of a violation by its least associate gives a
violation that is lex-smaller or equal, strict or weak as it was, and
both witnesses lie in the plane.

The 2-absorbing planes draw x, y and z from sorted candidates, with y
and z from x on. No violation uses a unit, for a unit x puts
y*z = x^-1*(x*y*z) in P, nor a member of P, for such an x puts x*y in
P. The violation is symmetric in x, y and z, so sorting one gives one
that is lex-smaller or equal: the least has x <= y <= z, and it is the
first row-major hit of the plane of its x.

The units of A act on A/P by multiplication, and the orbit of x is the
union of the cosets u*x + P. The strict condition sees x, y and z only
through their orbits: whether x*y*z, x*y, x*z and y*z lie in P does not
change when p in P is added to x, nor when x is multiplied by a unit u,
for u*w lies in P iff w does. Replacing each coordinate of a violation
by the least member of its orbit and sorting gives a violation that is
lex-smaller or equal, so the strict search runs over the orbit
representatives only: the nonunits outside P that are the least member
of their orbit. An orbit with a violation holds no unit, so its least
member is such a nonunit. That member is the least coset_least value
over the associate class of x, read through the ring's associates in one
pass over the elements.

The weak condition x*y*z != 0 does not pass to cosets, but it passes to
associates: u*x*y*z = 0 iff x*y*z = 0. So replacing each coordinate of a
weak violation by its least associate and sorting gives a weak
violation that is lex-smaller or equal, and the least one is made of
elements that are their own least associate. A weak violation is a
strict one, so each of its orbits holds a coordinate of a strict
violation among the representatives. The strict search marks those
orbits, and the weak search runs over their members that are their own
least associate. It is skipped when there is no strict violation, and
for P = 0, where 0 != x*y*z in P cannot hold.

The 1-absorbing condition sees nonunits x, y only through w = x*y: its
table has a row per such w outside P (w in P satisfies the
disjunction), a column per nonunit z outside P and a hit where w*z is
in P. The ring's nonunit_products gives each w its first row-major
pair, with the rows in the order of those first pairs. The least pair
with a hit is then the first pair of the first hit row, so the first
row-major hit is the witness; the hits are the 1-triple zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ImproperIdeal, NotW1AP
from .ideals import Ideal, all_ideals
from .rings import FiniteRing, _first_hit, coset_least


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


def _prime_candidates(ring: FiniteRing, mask: np.ndarray) -> np.ndarray:
    """The nonunits outside P that are their own least associate."""
    c = ring.nonunits[~mask[ring.nonunits]]
    return c[ring.associates[c] == c]


def _two_absorbing_planes(ring: FiniteRing, mask: np.ndarray, c: np.ndarray):
    """(x, tail, viol, plane) per x in the sorted candidates c: tail the
    candidates from x on, viol the (y, z) violations over tail x tail and
    plane = x*y*z."""
    mul = ring.mul
    cc = mul[np.ix_(c, c)]             # x*y over c x c
    cc_in = mask[cc]
    for a, x in enumerate(c.tolist()):
        tail = c[a:]
        x_in = cc_in[a, a:]            # x*y in P, and x*z in P via the same row
        plane = mul[np.ix_(cc[a, a:], tail)]    # [y, z] = x*y*z
        viol = mask[plane] & ~x_in[:, None] & ~x_in[None, :] & ~cc_in[a:, a:]
        yield x, tail, viol, plane


class _OneAbsorbingTable(NamedTuple):
    """The 1-absorbing candidates: nonunits nu, zs those outside P,
    xy = nu*nu, ws the xy outside P in first-occurrence order with first
    the row-major index in xy of the first pair giving each and row[w]
    the row of w (len(ws) for w in P), and hits where prods = ws*zs lie
    in P."""
    nu: np.ndarray
    zs: np.ndarray
    ws: np.ndarray
    xy: np.ndarray
    first: np.ndarray
    row: np.ndarray
    prods: np.ndarray
    hits: np.ndarray

    @classmethod
    def build(cls, ring: FiniteRing, mask: np.ndarray):
        nu = ring.nonunits
        xy, ws, first = ring.nonunit_products
        out = ~mask[ws]
        ws, first = ws[out], first[out]
        zs = nu[~mask[nu]]
        # an n-long lookup; return_inverse would sort the pairs again
        row = np.full(ring.size, len(ws))
        row[ws] = np.arange(len(ws))
        prods = ring.mul[np.ix_(ws, zs)]
        return cls(nu, zs, ws, xy, first, row, prods, mask[prods])

    def triple_zeros(self):
        """The 1-triple zeros as parallel x, y, z arrays in lex order:
        every pair with a hit, once per hit of its row. P must be weakly
        1-absorbing prime, so every hit has x*y*z = 0."""
        per_row = self.hits.sum(axis=1)
        i, j = np.nonzero(np.append(per_row > 0, False)[self.row][self.xy])
        rows = self.row[self.xy[i, j]]
        _, hit_cols = np.nonzero(self.hits)     # row by row, z ascending
        counts = per_row[rows]
        # the k-th triple of a pair takes the k-th hit of the pair's row
        start = (np.cumsum(per_row) - per_row)[rows]
        at = np.repeat(start - np.cumsum(counts) + counts, counts)
        at += np.arange(len(at))
        return (np.repeat(self.nu[i], counts), np.repeat(self.nu[j], counts),
                self.zs[hit_cols[at]])


def _scan_prime(ring: FiniteRing, mask: np.ndarray):
    c = _prime_candidates(ring, mask)
    prods = ring.mul[np.ix_(c, c)]
    viol = mask[prods]
    hits = _first_hit(viol), _first_hit(viol & (prods != ring.zero))
    return tuple(None if h is None else (int(c[h[0]]), int(c[h[1]])) for h in hits)


def _scan_two_absorbing(ring: FiniteRing, mask: np.ndarray):
    assoc = ring.associates
    orbit = np.full(ring.size, ring.size)
    np.minimum.at(orbit, assoc, coset_least(ring, np.flatnonzero(mask)))
    orbit = orbit[assoc]               # least member of the cosets u*x + P
    c = ring.nonunits[~mask[ring.nonunits]]
    strict, seen = None, np.zeros(ring.size, dtype=bool)
    for x, tail, viol, _ in _two_absorbing_planes(ring, mask, c[orbit[c] == c]):
        rows = viol.any(axis=1)        # viol is symmetric: rows are columns
        if rows.any():
            if strict is None:
                i, j = _first_hit(viol)
                strict = (x, int(tail[i]), int(tail[j]))
            seen[x] = True
            seen[tail[rows]] = True
    if strict is None or np.count_nonzero(mask) == 1:      # no hit, or P = 0
        return strict, None
    weak_c = c[seen[orbit[c]] & (assoc[c] == c)]
    for x, tail, viol, plane in _two_absorbing_planes(ring, mask, weak_c):
        hit = _first_hit(viol & (plane != ring.zero))
        if hit is not None:
            return strict, (x, int(tail[hit[0]]), int(tail[hit[1]]))
    return strict, None


def _scan_one_absorbing(ring: FiniteRing, mask: np.ndarray):
    t = _OneAbsorbingTable.build(ring, mask)
    if not t.hits.any():
        return None, None
    wits = []
    for viol in (t.hits, t.hits & (t.prods != ring.zero)):
        hit = _first_hit(viol)         # in the hit row with the least first
        if hit is not None:
            x, y = divmod(int(t.first[hit[0]]), len(t.nu))
            hit = int(t.nu[x]), int(t.nu[y]), int(t.zs[hit[1]])
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


def find_one_triple_zeros(p: Ideal) -> list[tuple[int, int, int]]:
    """Every 1-triple zero of P, lexicographically ordered.

    Defined only for weakly 1-absorbing prime ideals; the triples are
    exactly what separates P from being 1-absorbing prime.
    """
    _require_proper(p)
    if not is_weakly_one_absorbing_prime(p).holds:
        raise NotW1AP(f"{p!r} is not weakly 1-absorbing prime")
    xs, ys, zs = _OneAbsorbingTable.build(p.ring, p.mask).triple_zeros()
    return [(int(a), int(b), int(c)) for a, b, c in zip(xs, ys, zs)]


# ---------------------------------------------------------------------------
# independent characterization of the weakly 1-absorbing prime property


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

    Conditions (iv) to (vi) quantify over the ideal lattice.
    """
    _require_proper(p)
    ring, mask = p.ring, p.mask
    mul, zero = ring.mul, ring.zero

    out = {"i": is_weakly_one_absorbing_prime(p).holds}

    # (P : w) and (0 : w) for every w = x*y outside P, one row each
    ws = ring.nonunit_products[1]
    ws = ws[~mask[ws]]
    wz = mul[ws]
    col, ann = mask[wz], wz == zero
    out["ii"] = bool((col == (mask | ann)).all())
    out["iii"] = bool(((col == mask).all(axis=1)
                       | (col == ann).all(axis=1)).all())

    lat = all_ideals(ring)
    kp = len(lat) - 1                        # proper ideals are the prefix
    p_idx = lat.index(p)
    le_p = lat.le[:, p_idx]

    # x*Q containment and nonvanishing for every lattice member Q, by
    # counting the q in Q with x*q outside P, and with x*q nonzero; the
    # set {x*i*j} lies in P iff x*(IJ) does, and is nonzero iff x*(IJ) is
    members, xnz = lat.member_products
    xin = (~mask[mul]).astype(np.float32) @ members == 0
    viol4 = xin[ws, :kp] & xnz[ws, :kp] & ~le_p[None, :kp]
    out["iv"] = not viol4.any()

    pt = lat.product_table
    pr = pt[:kp, :kp]
    lhs = xnz[:, pr] & xin[:, pr]
    viol5 = (lhs & ~xin[:, :kp, None] & ~le_p[None, None, :kp]
             & ~ring.unit_mask[:, None, None])
    out["v"] = not viol5.any()

    prod3 = pt[pr][:, :, :kp]
    viol6 = ((prod3 != 0) & le_p[prod3]
             & ~le_p[pr][:, :, None] & ~le_p[None, None, :kp])
    out["vi"] = not viol6.any()
    return out
