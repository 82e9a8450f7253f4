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
least violating tuple when the verdict is False. Scans walk x in
ascending order and vectorize the (y, z) plane, so the first violation
found row-major is the least one. Zero counts as a nonunit. Skipping
pairs with x*y in P inside the 1-absorbing scans is not a shortcut:
such triples satisfy the disjunction by definition.

Each strict/weak pair shares one fused scan; a weak violation is in
particular a strict violation, so the strict witness is always found at
or before the weak one and one pass resolves both.
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


def _scan_prime(ring: FiniteRing, mask: np.ndarray):
    viol = mask[ring.mul] & ~mask[:, None] & ~mask[None, :]
    strict = None
    if viol.any():
        x, y = np.argwhere(viol)[0]
        strict = (int(x), int(y))
    wv = viol & (ring.mul != ring.zero)
    weak = None
    if wv.any():
        x, y = np.argwhere(wv)[0]
        weak = (int(x), int(y))
    return strict, weak


def _scan_two_absorbing(ring: FiniteRing, mask: np.ndarray):
    mul, zero = ring.mul, ring.zero
    yz_in = mask[mul]
    strict = weak = None
    for x in range(ring.size):
        xrow = mul[x]
        x_in = mask[xrow]              # x*y in P, and x*z in P via the same row
        plane = mul[xrow]              # [y, z] = x*y*z
        viol = mask[plane] & ~x_in[:, None] & ~x_in[None, :] & ~yz_in
        if not viol.any():
            continue
        if strict is None:
            y, z = np.argwhere(viol)[0]
            strict = (x, int(y), int(z))
        wv = viol & (plane != zero)
        if wv.any():
            y, z = np.argwhere(wv)[0]
            weak = (x, int(y), int(z))
            break
    return strict, weak


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
    weak_exists = (hits & (wz != zero)).any()
    strict = weak = None
    for x in nu.tolist():
        xy = mul[x, nu]
        keep = ~mask[xy]               # pairs with x*y in P satisfy the conclusion
        if not keep.any():
            continue
        ys = nu[keep]
        plane = mul[np.ix_(xy[keep], zs)]
        viol = mask[plane]
        if not viol.any():
            continue
        if strict is None:
            yi, zi = np.argwhere(viol)[0]
            strict = (x, int(ys[yi]), int(zs[zi]))
            if not weak_exists:
                break
        wv = viol & (plane != zero)
        if wv.any():
            yi, zi = np.argwhere(wv)[0]
            weak = (x, int(ys[yi]), int(zs[zi]))
            break
    return strict, weak


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


def _scans(p: Ideal) -> dict[str, tuple | None]:
    return {k: _scan_witness(p, k) for k in VERDICT_KEYS}


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
    verdict. The implication diagram between the verdicts is asserted."""
    _require_proper(p)
    if p._report is not None:
        return p._report
    wits = _scans(p)
    verdicts = {k: wits[k] is None for k in VERDICT_KEYS}
    for src, dst in IMPLICATIONS:
        if verdicts[src] and not verdicts[dst]:
            raise AssertionError(
                f"implication {src} -> {dst} broken on {p!r}; engine bug")
    footnotes = (ZERO_IDEAL_FOOTNOTE,) if p.is_zero else ()
    p._report = PropertyReport(p, verdicts, dict(wits), footnotes)
    return p._report


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
    z not in P, as parallel index arrays in lexicographic order."""
    mul, zero = ring.mul, ring.zero
    nu = ring.nonunits
    z_in = mask[nu]
    xs, ys, zs = [], [], []
    for x in nu.tolist():
        xy = mul[x, nu]
        keep = ~mask[xy]
        if not keep.any():
            continue
        plane = mul[np.ix_(xy[keep], nu)]
        hits = (plane == zero) & ~z_in[None, :]
        if not hits.any():
            continue
        yi, zi = np.nonzero(hits)
        kept = nu[keep]
        xs.append(np.full(len(yi), x, dtype=np.intp))
        ys.append(kept[yi])
        zs.append(nu[zi])
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

    ws = np.unique(mul[np.ix_(nu, nu)])
    ws = ws[~mask[ws]]
    ok2 = ok3 = True
    for w in ws.tolist():
        col = mask[mul[:, w]]
        ann = mul[:, w] == zero
        if ok2 and not np.array_equal(col, mask | ann):
            ok2 = False
        if ok3 and not (np.array_equal(col, mask) or np.array_equal(col, ann)):
            ok3 = False
        if not (ok2 or ok3):
            break
    out["ii"], out["iii"] = ok2, ok3

    lat = all_ideals(ring)
    k = len(lat)
    kp = k - 1                               # proper ideals are the prefix
    p_idx = lat.index(p)
    le_p = lat.le[:, p_idx]

    ok4 = True
    for j_idx in range(kp):
        if le_p[j_idx]:
            continue
        jarr = lat[j_idx].arr
        b = mul[np.ix_(ws, jarr)]
        if (mask[b].all(axis=1) & (b != zero).any(axis=1)).any():
            ok4 = False
            break
    out["iv"] = ok4

    # x*Q containment and nonvanishing for every lattice member Q; the
    # set {x*i*j} lies in P iff x*(IJ) does, and is nonzero iff x*(IJ) is
    xin = np.empty((ring.size, k), dtype=bool)
    xnz = np.empty((ring.size, k), dtype=bool)
    for qi in range(k):
        b = mul[:, lat[qi].arr]
        xin[:, qi] = mask[b].all(axis=1)
        xnz[:, qi] = (b != zero).any(axis=1)
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
