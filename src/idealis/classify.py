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

Each strict/weak pair is one family, and each family yields its
candidates as planes in lex order: prime is the single (x, y) plane,
2-absorbing has one (y, z) plane per x, and 1-absorbing one plane per
nonunit x, over nonunits y with x*y outside P and nonunits z outside
P. Leaving out pairs with x*y in P is not a shortcut: such triples
satisfy the disjunction by definition. One search, _least_violations,
reads every family's planes row-major, so its first hit is the least
violation. A weak violation is in particular a strict one, so the
strict witness is found at or before the weak one and one pass
resolves both. The 1-triple zeros of a weakly 1-absorbing prime ideal
are collected from the same 1-absorbing planes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ImproperIdeal, NotW1AP
from .ideals import Ideal, all_ideals
from .rings import FiniteRing


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


def _least_violations(planes, zero: int, weak_possible: bool = True):
    """Lex-least strict and weak violation over planes in lex order.

    A plane is (head, ys, zs, viol, prods): the coordinates it shares,
    the candidates along its two axes, its violation mask, and the
    products that make a violation weak when nonzero. With
    `weak_possible` False the search stops at the strict witness.
    """
    strict = None
    for head, ys, zs, viol, prods in planes:
        if not viol.any():
            continue
        if strict is None:
            i, j = np.argwhere(viol)[0]
            strict = head + (int(ys[i]), int(zs[j]))
            if not weak_possible:
                break
        wv = viol & (prods != zero)
        if wv.any():
            i, j = np.argwhere(wv)[0]
            return strict, head + (int(ys[i]), int(zs[j]))
    return strict, None


def _prime_planes(ring: FiniteRing, mask: np.ndarray):
    every = np.arange(ring.size)
    viol = mask[ring.mul] & ~mask[:, None] & ~mask[None, :]
    yield (), every, every, viol, ring.mul


def _two_absorbing_planes(ring: FiniteRing, mask: np.ndarray):
    mul = ring.mul
    every = np.arange(ring.size)
    yz_in = mask[mul]
    for x in range(ring.size):
        xrow = mul[x]
        x_in = mask[xrow]              # x*y in P, and x*z in P via the same row
        plane = mul[xrow]              # [y, z] = x*y*z
        viol = mask[plane] & ~x_in[:, None] & ~x_in[None, :] & ~yz_in
        yield (x,), every, every, viol, plane


def _one_absorbing_planes(ring: FiniteRing, mask: np.ndarray):
    """One plane per nonunit x, over nonunits y with x*y outside P and
    nonunits z outside P; pairs with x*y in P satisfy the conclusion."""
    mul = ring.mul
    nu = ring.nonunits
    zs = nu[~mask[nu]]
    for x in nu.tolist():
        xy = mul[x, nu]
        keep = ~mask[xy]
        if keep.any():
            plane = mul[np.ix_(xy[keep], zs)]
            yield (x,), nu[keep], zs, mask[plane], plane


def _scan_prime(ring: FiniteRing, mask: np.ndarray):
    return _least_violations(_prime_planes(ring, mask), ring.zero)


def _scan_two_absorbing(ring: FiniteRing, mask: np.ndarray):
    return _least_violations(_two_absorbing_planes(ring, mask), ring.zero)


def _scan_one_absorbing(ring: FiniteRing, mask: np.ndarray):
    mul, zero = ring.mul, ring.zero
    nu = ring.nonunits
    zs = nu[~mask[nu]]                 # candidate z values: nonunits outside P
    # existence pre-filter: a violation is some w = x*y outside P times
    # some z in zs landing in P, so check the deduplicated products first
    pair_prods = mul[np.ix_(nu, nu)]
    ws = np.unique(pair_prods[~mask[pair_prods]])
    if len(ws) == 0 or len(zs) == 0:
        return None, None
    wz = mul[np.ix_(ws, zs)]
    hits = mask[wz]
    if not hits.any():
        return None, None
    weak_possible = bool((hits & (wz != zero)).any())
    return _least_violations(_one_absorbing_planes(ring, mask), zero, weak_possible)


# each scan handles one key pair: asking for either member runs the scan once
_SCAN_FAMILIES = (
    (("prime", "weaklyPrime"), _scan_prime),
    (("twoAbsorbing", "weaklyTwoAbsorbing"), _scan_two_absorbing),
    (("oneAbsorbingPrime", "weaklyOneAbsorbingPrime"), _scan_one_absorbing),
)


def _scan_witness(p: Ideal, key: str) -> tuple | None:
    cached = p._scan_witnesses
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
    The witnesses come from the ideal's scan cache, so a second call
    rescans nothing."""
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


def _triple_zero_arrays(ring: FiniteRing, mask: np.ndarray):
    """All nonunit triples (x, y, z) with x*y*z = 0, x*y not in P and
    z not in P, as parallel index arrays in lexicographic order.

    P must be weakly 1-absorbing prime. Then no 1-absorbing violation
    has x*y*z != 0, so its 1-triple zeros are exactly its 1-absorbing
    violations, collected here from the same planes the scan reads.
    """
    xs, ys, zs = [], [], []
    for (x,), yc, zc, viol, _ in _one_absorbing_planes(ring, mask):
        yi, zi = np.nonzero(viol)
        xs.append(np.full(len(yi), x, dtype=np.intp))
        ys.append(yc[yi])
        zs.append(zc[zi])
    if not xs:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty.copy(), empty.copy()
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(zs)


def find_one_triple_zeros(p: Ideal) -> list[tuple[int, int, int]]:
    """Every 1-triple zero of P, lexicographically ordered.

    Defined only for weakly 1-absorbing prime ideals; the triples are
    exactly what separates P from being 1-absorbing prime.
    """
    _require_proper(p)
    if not is_weakly_one_absorbing_prime(p).holds:
        raise NotW1AP(f"{p!r} is not weakly 1-absorbing prime")
    xs, ys, zs = _triple_zero_arrays(p.ring, p.mask)
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
    nu = ring.nonunits

    out = {"i": is_weakly_one_absorbing_prime(p).holds}

    # (P : w) and (0 : w) for every w = x*y outside P, one row each
    ws = np.unique(mul[np.ix_(nu, nu)])
    ws = ws[~mask[ws]]
    col = mask[mul[ws]]
    ann = mul[ws] == zero
    out["ii"] = bool((col == (mask | ann)).all())
    out["iii"] = bool(((col == mask).all(axis=1)
                       | (col == ann).all(axis=1)).all())

    lat = all_ideals(ring)
    k = len(lat)
    kp = k - 1                               # proper ideals are the prefix
    p_idx = lat.index(p)
    le_p = lat.le[:, p_idx]

    # x*Q containment and nonvanishing for every lattice member Q; the
    # set {x*i*j} lies in P iff x*(IJ) does, and is nonzero iff x*(IJ) is
    xin = np.empty((ring.size, k), dtype=bool)
    xnz = np.empty((ring.size, k), dtype=bool)
    for qi in range(k):
        b = mul[:, lat[qi].arr]
        xin[:, qi] = mask[b].all(axis=1)
        xnz[:, qi] = (b != zero).any(axis=1)
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
