"""Finite-model checks for the transfer and classification theorems.

Each check quantifies one statement about weakly 1-absorbing prime
ideals over a corpus of built rings and reports how many instances it
actually exercised. An instance is "tested" when every hypothesis held
and the conclusion was asserted, and "vacuous" when a gating hypothesis
failed; a passing check with zero tested instances is reported as
vacuous, never as pass, because it is not evidence.

Failures carry (ring, ideal) in DSL text so they can be replayed with
the classify command.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .classify import (
    _OneAbsorbingTable,
    is_one_absorbing_prime,
    is_prime,
    is_weakly_one_absorbing_prime,
    is_weakly_prime,
    tmm_characterize,
)
from .dsl import build_ring, ideal_text
from .ideals import (
    Ideal,
    all_ideals,
    annihilator,
    annihilator_ideal,
    image_ideal,
    is_field,
    is_quasi_local,
    is_reduced,
    jacobson_radical,
    maximal_ideals,
    preimage_ideal,
    radical,
    zero_ideal,
)
from .rings import (
    FiniteRing,
    Homomorphism,
    make_localization,
    make_product,
    make_quotient,
    make_zn,
    zn_isomorphism,
)

MAX_FAILURES = 20

# the transfer checks skip corpus rings above these sizes: they build a
# quotient per ideal, a localization per multiplicative set, or r x r
HOM_SIZE_LIMIT = 24
HOM_DIAGONAL_LIMIT = 8
QUOTIENT_SIZE_LIMIT = 36
LOCALIZATION_SIZE_LIMIT = 24


@dataclass
class TheoremCheck:
    check_id: str
    outcome: str                      # "pass" | "fail" | "vacuous"
    tested: int
    vacuous: int
    failures: list[dict] = field(default_factory=list)
    detail: str = ""


def _finish(check_id: str, tested: int, vacuous: int,
            failures: list[dict], detail: str = "") -> TheoremCheck:
    if len(failures) > MAX_FAILURES:
        extra = len(failures) - MAX_FAILURES
        failures = failures[:MAX_FAILURES]
        detail = (detail + f"; {extra} further failures suppressed").lstrip("; ")
    outcome = "fail" if failures else ("pass" if tested > 0 else "vacuous")
    return TheoremCheck(check_id, outcome, tested, vacuous, failures, detail)


def _fail(failures: list[dict], ring: FiniteRing,
          ideal: Ideal | None, note: str) -> None:
    failures.append({
        "ring": ring.text,
        "ideal": None if ideal is None else ideal_text(ideal),
        "note": note,
    })


def _w1ap(p: Ideal) -> bool:
    return is_weakly_one_absorbing_prime(p).holds


# ---------------------------------------------------------------------------
# shared ring-level facts


def non_w1ap_ideal(ring: FiniteRing) -> Ideal | None:
    """First proper ideal (lattice order) that is not weakly 1-absorbing
    prime, or None when all of them are."""
    return next((p for p in all_ideals(ring).proper if not _w1ap(p)), None)


def all_proper_w1ap(ring: FiniteRing) -> bool:
    return non_w1ap_ideal(ring) is None


def _power_is_zero(p: Ideal, k: int) -> bool:
    """P^k = 0, read from the product table (index 0 is the zero ideal)."""
    lat = all_ideals(p.ring)
    i = acc = lat.index(p)
    for _ in range(k - 1):
        acc = lat.product_table[acc, i]
    return acc == 0


# ---------------------------------------------------------------------------
# the checks


def check_radical_weakly_prime(rings: list[FiniteRing]) -> TheoremCheck:
    """In a reduced ring the radical of a weakly 1-absorbing prime ideal
    is weakly prime. Instances are proper ideals of reduced corpus
    rings; non-reduced rings and non-w1ap ideals count as vacuous."""
    tested = vacuous = 0
    failures: list[dict] = []
    reduced_rings = 0
    for r in rings:
        if not is_reduced(r):
            vacuous += len(all_ideals(r).proper)
            continue
        reduced_rings += 1
        for p in all_ideals(r).proper:
            if not _w1ap(p):
                vacuous += 1
                continue
            tested += 1
            if not is_weakly_prime(radical(p)).holds:
                _fail(failures, r, p, "radical is not weakly prime")
    detail = (f"{reduced_rings} reduced rings; the colon clause for regular "
              "non-units is empty here because regular elements coincide "
              "with units in finite rings")
    return _finish("radical_weakly_prime", tested, vacuous, failures, detail)


def _identity_hom(r: FiniteRing) -> Homomorphism:
    return Homomorphism(r, r, np.arange(r.size, dtype=np.int32))


def _diagonal_hom(r: FiniteRing) -> Homomorphism:
    rr = make_product(r, r)
    return Homomorphism(r, rr, np.arange(r.size, dtype=np.int64) * (r.size + 1))


def check_hom_transfer(rings: list[FiniteRing]) -> TheoremCheck:
    """Transfer along unit homomorphisms: the preimage of a weakly
    1-absorbing prime ideal under an injective nonunit-preserving map is
    weakly 1-absorbing prime, and the image under a surjection is, when
    the ideal contains the kernel.

    The hom corpus is identities, quotient projections, and diagonal
    embeddings r -> r x r built from the ring corpus.
    """
    tested = vacuous = 0
    failures: list[dict] = []
    homs: list[Homomorphism] = []
    for r in rings:
        if r.size <= HOM_SIZE_LIMIT:
            homs.append(_identity_hom(r))
            for q in all_ideals(r).proper:
                homs.append(make_quotient(r, q)[1])
        if r.size <= HOM_DIAGONAL_LIMIT:
            homs.append(_diagonal_hom(r))
    for f in homs:
        if f.is_injective:
            for p in all_ideals(f.target).proper:
                if not _w1ap(p):
                    continue
                if not f.preserves_nonunits:
                    vacuous += 1          # the nonunit hypothesis gates (i)
                    continue
                tested += 1
                if not _w1ap(preimage_ideal(f, p)):
                    _fail(failures, f.source, preimage_ideal(f, p),
                          f"preimage from {f.target.text} is not w1ap")
        if f.is_surjective:
            kernel_mask = np.zeros(f.source.size, dtype=bool)
            kernel_mask[list(f.kernel)] = True
            for p in all_ideals(f.source).proper:
                if not _w1ap(p):
                    continue
                if not kernel_mask[p.arr].all():
                    vacuous += 1          # kernel not inside the ideal
                    continue
                tested += 1
                if not _w1ap(image_ideal(f, p)):
                    _fail(failures, f.source, p,
                          f"image in {f.target.text} is not w1ap")
    return _finish("hom_transfer", tested, vacuous, failures,
                   f"{len(homs)} homomorphisms")


def check_quotient_transfer(rings: list[FiniteRing]) -> TheoremCheck:
    """Quotient behaviour: (i) P/Q is weakly 1-absorbing prime whenever
    P is and Q <= P; (ii) with unit lifting, Q and P/Q weakly
    1-absorbing prime force P to be; (iii) when the zero ideal is
    1-absorbing prime, weakly 1-absorbing prime ideals are 1-absorbing
    prime. Part (ii) pairs without unit lifting count as vacuous."""
    tested = vacuous = 0
    failures: list[dict] = []
    for r in rings:
        if r.size > QUOTIENT_SIZE_LIMIT:
            continue
        lat = all_ideals(r)
        proper = lat.proper
        units = set(np.flatnonzero(r.unit_mask).tolist())
        zero_one_abs = is_one_absorbing_prime(zero_ideal(r)).holds
        for qi, q in enumerate(proper):
            rq, proj = make_quotient(r, q)
            lifted = {int(proj.mapping[u]) for u in units}
            quotient_units = set(np.flatnonzero(rq.unit_mask).tolist())
            unit_lifting = lifted == quotient_units
            for pi, p in enumerate(proper):
                if not lat.le[qi, pi]:
                    continue
                image = image_ideal(proj, p)
                p_w1 = _w1ap(p)
                if p_w1:
                    tested += 1
                    if not _w1ap(image):
                        _fail(failures, r, p,
                              f"P/Q not w1ap for Q = {ideal_text(q)}")
                if _w1ap(q) and _w1ap(image):
                    if not unit_lifting:
                        vacuous += 1
                        continue
                    tested += 1
                    if not p_w1:
                        _fail(failures, r, p,
                              f"unit-lifting converse fails for Q = {ideal_text(q)}")
        if zero_one_abs:
            for p in proper:
                if not _w1ap(p):
                    continue
                tested += 1
                if not is_one_absorbing_prime(p).holds:
                    _fail(failures, r, p,
                          "zero ideal is 1-absorbing prime but P is not")
    return _finish("quotient_transfer", tested, vacuous, failures)


def _cyclic_mult_sets(r: FiniteRing) -> list[tuple[int, ...]]:
    """Multiplicative closures of {1, t}; closures that reach 0 are
    dropped since a multiplicative set may not contain zero."""
    out: dict[frozenset, tuple[int, ...]] = {}
    for t in range(r.size):
        cur = int(r.one)
        seen = {cur}
        ok = True
        for _ in range(r.size):
            cur = int(r.mul[cur, t])
            if cur == r.zero:
                ok = False
                break
            if cur in seen:
                break
            seen.add(cur)
        if ok:
            key = frozenset(seen)
            out.setdefault(key, tuple(sorted(seen)))
    return sorted(out.values(), key=lambda s: (len(s), s))


def check_localization_transfer(rings: list[FiniteRing]) -> TheoremCheck:
    """Localization behaviour: the extension of a weakly 1-absorbing
    prime ideal disjoint from S stays weakly 1-absorbing prime. The
    converse instances require S inside the regular elements; since
    regular elements are units in finite rings, instances where S
    contains a zero-divisor are recorded as vacuous."""
    tested = vacuous = 0
    converse_tested = 0
    failures: list[dict] = []
    for r in rings:
        if r.size > LOCALIZATION_SIZE_LIMIT:
            continue
        for s in _cyclic_mult_sets(r):
            rl, can = make_localization(r, s)
            s_arr = np.asarray(s, dtype=np.intp)
            s_regular = bool(r.unit_mask[s_arr].all())
            for p in all_ideals(r).proper:
                if p.mask[s_arr].any():
                    continue              # P meets S: out of scope
                extension = image_ideal(can, p)
                if _w1ap(p):
                    tested += 1
                    if not _w1ap(extension):
                        _fail(failures, r, p,
                              f"extension not w1ap for S = {s}")
                if not s_regular:
                    vacuous += 1          # converse needs S without zero-divisors
                    continue
                if _w1ap(extension):
                    tested += 1
                    converse_tested += 1
                    if not _w1ap(p):
                        _fail(failures, r, p,
                              f"converse fails for regular S = {s}")
    return _finish("localization_transfer", tested, vacuous, failures,
                   f"{converse_tested} converse instances with S inside the units")


def check_nonlocal_equivalence(rings: list[FiniteRing]) -> TheoremCheck:
    """In a non-quasi-local ring, an ideal whose element annihilators
    are never maximal is weakly prime exactly when it is weakly
    1-absorbing prime."""
    tested = vacuous = 0
    failures: list[dict] = []
    for r in rings:
        if is_quasi_local(r):
            continue
        max_masks = [m.mask for m in maximal_ideals(r)]
        for p in all_ideals(r).proper:
            ann_maximal = False
            for x in p.elements:
                ann = r.mul[x] == r.zero
                if any(np.array_equal(ann, mm) for mm in max_masks):
                    ann_maximal = True
                    break
            if ann_maximal:
                vacuous += 1
                continue
            tested += 1
            if is_weakly_prime(p).holds != _w1ap(p):
                _fail(failures, r, p, "weakly prime and w1ap disagree")
    return _finish("nonlocal_equivalence", tested, vacuous, failures)


def check_colon_characterization(rings: list[FiniteRing]) -> TheoremCheck:
    """The six colon/ideal-product conditions agree with the definitional
    scan on every proper ideal."""
    tested = 0
    failures: list[dict] = []
    for r in rings:
        for p in all_ideals(r).proper:
            tested += 1
            conds = tmm_characterize(p)
            if len(set(conds.values())) != 1:
                bad = " ".join(f"{k}={v}" for k, v in conds.items())
                _fail(failures, r, p, f"conditions disagree: {bad}")
    return _finish("colon_characterization", tested, 0, failures)


def check_triple_zero_annihilation(rings: list[FiniteRing]) -> TheoremCheck:
    """Every 1-triple zero (x, y, z) of a weakly 1-absorbing prime ideal
    satisfies xyP = 0; triples with x, y outside (P : z) additionally
    force xzP = yzP = xP^2 = yP^2 = zP^2 = 0 and P^3 = 0. Weakly
    1-absorbing prime ideals without a 1-triple zero are vacuous."""
    tested = vacuous = 0
    triples_seen = 0
    failures: list[dict] = []
    for r in rings:
        mul, zero = r.mul, r.zero
        lat = all_ideals(r)
        pt = lat.product_table
        for pi, p in enumerate(lat.proper):
            if not _w1ap(p):
                continue
            t = _OneAbsorbingTable.build(r, p.mask)
            xs, ys, zs = t.triple_zeros()
            if len(xs) == 0:
                vacuous += 1
                continue
            tested += 1
            triples_seen += len(xs)
            parr = p.arr
            uxy = t.ws[t.hits.any(axis=1)]      # x*y of every triple
            if (mul[np.ix_(uxy, parr)] != zero).any():
                _fail(failures, r, p, "xyP != 0 for some 1-triple zero")
                continue
            sel = ~p.mask[mul[xs, zs]] & ~p.mask[mul[ys, zs]]
            if not sel.any():
                continue
            p2 = pt[pi, pi]
            ok = True
            for vals in (mul[xs[sel], zs[sel]], mul[ys[sel], zs[sel]]):
                if (mul[np.ix_(np.unique(vals), parr)] != zero).any():
                    ok = False
            members = np.unique(np.concatenate([xs[sel], ys[sel], zs[sel]]))
            if (mul[np.ix_(members, lat[p2].arr)] != zero).any():
                ok = False
            if pt[p2, pi] != 0:
                ok = False
            if not ok:
                _fail(failures, r, p,
                      "strong triple-zero consequences fail (xzP, yzP, "
                      "xP^2, yP^2, zP^2 or P^3 nonzero)")
    return _finish("triple_zero_annihilation", tested, vacuous, failures,
                   f"{triples_seen} triples across the tested ideals")


def check_reduced_triple_zero(rings: list[FiniteRing]) -> TheoremCheck:
    """In a reduced ring a 1-triple zero of P with x, y outside (P : z)
    forces P = 0. The companion claim about nonzero weakly 1-absorbing
    prime ideals that are not 1-absorbing prime is unsatisfiable over
    finite rings (finite reduced rings are products of fields, where
    such ideals are prime), so those instances stay at zero."""
    tested = vacuous = 0
    nonzero_cases = 0
    failures: list[dict] = []
    for r in rings:
        if not is_reduced(r):
            continue
        mul = r.mul
        for p in all_ideals(r).proper:
            if not _w1ap(p):
                continue
            xs, ys, zs = _OneAbsorbingTable.build(r, p.mask).triple_zeros()
            sel = ~p.mask[mul[xs, zs]] & ~p.mask[mul[ys, zs]]
            if sel.any():
                tested += 1
                if not p.is_zero:
                    _fail(failures, r, p,
                          "qualifying 1-triple zero in a reduced ring "
                          "but P is nonzero")
            else:
                vacuous += 1
            if (len(xs) and not p.is_zero
                    and not is_one_absorbing_prime(p).holds):
                nonzero_cases += 1
                if sel.any():
                    _fail(failures, r, p, "triple with xz and yz outside P")
    return _finish("reduced_triple_zero", tested, vacuous, failures,
                   f"{nonzero_cases} nonzero non-1-absorbing cases "
                   "(provably none exist over finite rings)")


def check_idealization_transfer(rings: list[FiniteRing]) -> TheoremCheck:
    """P x M is weakly 1-absorbing prime in the trivial extension
    exactly when P is and every 1-triple zero of P has xy, xz, yz
    annihilating M. Both sides are computed independently, the left by a
    direct scan of the extension ring."""
    tested = 0
    failures: list[dict] = []
    extensions = 0
    for r in rings:
        if r.idealization is None:
            continue
        extensions += 1
        base, j = r.idealization
        k = r.module_size
        ann_m = j.mask                    # M = base/j is cyclic: Ann(M) = j
        mul = base.mul
        for p in all_ideals(base).proper:
            members = (p.arr[:, None] * k + np.arange(k)[None, :]).ravel()
            big = Ideal(r, members.tolist())
            lhs = _w1ap(big)
            if _w1ap(p):
                t = _OneAbsorbingTable.build(base, p.mask)
                xs, ys, zs = t.triple_zeros()
                rhs = bool(ann_m[mul[xs, ys]].all()
                           and ann_m[mul[xs, zs]].all()
                           and ann_m[mul[ys, zs]].all())
            else:
                rhs = False
            tested += 1
            if lhs != rhs:
                _fail(failures, base, p,
                      f"extension scan in {r.text} gives {lhs}, "
                      f"base criterion gives {rhs}")
    return _finish("idealization_transfer", tested, 0, failures,
                   f"{extensions} trivial extensions")


def check_product_prime_shape(rings: list[FiniteRing]) -> TheoremCheck:
    """Over a product of two non-fields, a nonzero proper ideal is
    weakly 1-absorbing prime iff it is prime iff it is weakly prime iff
    it is 1-absorbing prime iff it is a prime times the full factor."""
    tested = 0
    failures: list[dict] = []
    qualifying = 0
    for r in rings:
        if r.factors is None:
            continue
        left, right = r.factors
        if is_field(left) or is_field(right):
            continue
        qualifying += 1
        s2 = right.size
        for p in all_ideals(r).proper:
            if p.is_zero:
                continue
            p1 = Ideal(left, np.unique(p.arr // s2).tolist())
            p2 = Ideal(right, np.unique(p.arr % s2).tolist())
            if len(p) != len(p1) * len(p2):
                raise AssertionError("product ideal is not a box; engine bug")
            shape = ((len(p2) == s2 and p1.is_proper and is_prime(p1).holds)
                     or (len(p1) == left.size and p2.is_proper
                         and is_prime(p2).holds))
            verdicts = {
                "w1ap": _w1ap(p),
                "shape": shape,
                "prime": is_prime(p).holds,
                "weaklyPrime": is_weakly_prime(p).holds,
                "oneAbsorbingPrime": is_one_absorbing_prime(p).holds,
            }
            tested += 1
            if len(set(verdicts.values())) != 1:
                bad = " ".join(f"{k}={v}" for k, v in verdicts.items())
                _fail(failures, r, p, f"five-way equivalence broken: {bad}")
    return _finish("product_prime_shape", tested, 0, failures,
                   f"{qualifying} products of non-fields")


def check_product_all_ideals(rings: list[FiniteRing]) -> TheoremCheck:
    """All proper ideals of a product are weakly 1-absorbing prime
    exactly when it is a product of two fields."""
    tested = 0
    failures: list[dict] = []
    for r in rings:
        if r.factors is None:
            continue
        left, right = r.factors
        tested += 1
        lhs = all_proper_w1ap(r)
        rhs = is_field(left) and is_field(right)
        if lhs != rhs:
            _fail(failures, r, non_w1ap_ideal(r),
                  f"all-w1ap = {lhs} but two-fields = {rhs}")
    return _finish("product_all_ideals", tested, 0, failures)


def check_jacobson_dichotomy(rings: list[FiniteRing]) -> TheoremCheck:
    """When every proper ideal is weakly 1-absorbing prime, either
    Jac(A)^2 = 0, or every nonzero product xy of Jacobson elements has
    (0 : xy) = Jac(A) and (0 : Jac(A)^2) = Jac(A)."""
    tested = vacuous = 0
    failures: list[dict] = []
    for r in rings:
        if not all_proper_w1ap(r):
            vacuous += 1
            continue
        tested += 1
        lat = all_ideals(r)
        jac = jacobson_radical(r)
        ji = lat.index(jac)
        jac2 = lat[lat.product_table[ji, ji]]
        if jac2.is_zero:
            continue
        prods = r.mul[np.ix_(jac.arr, jac.arr)]
        nonzero = np.unique(prods[prods != r.zero])
        ok = all(
            annihilator(r, int(w)).elements == jac.elements
            for w in nonzero
        ) and annihilator_ideal(jac2).elements == jac.elements
        if not ok:
            _fail(failures, r, jac,
                  "Jac^2 nonzero and the annihilator alternative fails")
    return _finish("jacobson_dichotomy", tested, vacuous, failures)


def check_local_cube_zero(rings: list[FiniteRing]) -> TheoremCheck:
    """A quasi-local ring has all proper ideals weakly 1-absorbing prime
    exactly when the cube of its maximal ideal vanishes."""
    tested = vacuous = 0
    failures: list[dict] = []
    for r in rings:
        if not is_quasi_local(r):
            vacuous += 1
            continue
        tested += 1
        m = maximal_ideals(r)[0]
        lhs = all_proper_w1ap(r)
        rhs = _power_is_zero(m, 3)
        if lhs != rhs:
            _fail(failures, r, non_w1ap_ideal(r) or m,
                  f"all-w1ap = {lhs} but m^3 = 0 is {rhs}")
    return _finish("local_cube_zero", tested, vacuous, failures)


def check_local_square_one_absorbing(rings: list[FiniteRing]) -> TheoremCheck:
    """In a quasi-local ring whose maximal ideal squares to zero, every
    proper ideal is 1-absorbing prime. Quasi-local rings with a nonzero
    square count as vacuous."""
    tested = vacuous = 0
    failures: list[dict] = []
    for r in rings:
        if not is_quasi_local(r):
            continue
        m = maximal_ideals(r)[0]
        if not _power_is_zero(m, 2):
            vacuous += 1
            continue
        tested += 1
        for p in all_ideals(r).proper:
            if not is_one_absorbing_prime(p).holds:
                _fail(failures, r, p, "m^2 = 0 but P is not 1-absorbing prime")
    return _finish("local_square_one_absorbing", tested, vacuous, failures)


def check_two_maximal_bound(rings: list[FiniteRing]) -> TheoremCheck:
    """When every proper ideal is weakly 1-absorbing prime, the ring has
    at most two maximal ideals."""
    tested = vacuous = 0
    failures: list[dict] = []
    for r in rings:
        if not all_proper_w1ap(r):
            vacuous += 1
            continue
        tested += 1
        count = len(maximal_ideals(r))
        if count > 2:
            _fail(failures, r, None, f"{count} maximal ideals")
    return _finish("two_maximal_bound", tested, vacuous, failures)


def check_global_classification(rings: list[FiniteRing]) -> TheoremCheck:
    """Every proper ideal is weakly 1-absorbing prime exactly when the
    ring is quasi-local with m^3 = 0 or a product of two fields. The
    two-fields prong is decided by reducedness plus a two-element
    maximal spectrum; prime-order residue fields are additionally
    matched against Z_p by the isomorphism k -> k*1."""
    tested = 0
    failures: list[dict] = []
    iso_confirmed = 0
    for r in rings:
        tested += 1
        lhs = all_proper_w1ap(r)
        mx = maximal_ideals(r)
        if len(mx) == 1:
            rhs = _power_is_zero(mx[0], 3)
        elif len(mx) == 2 and is_reduced(r):
            rhs = True
            for m in mx:
                f = make_quotient(r, m)[0]
                if not is_field(f):
                    raise AssertionError("quotient by maximal not a field")
                if _is_prime_int(f.size):
                    if zn_isomorphism(f) is None:
                        raise AssertionError(
                            f"prime-order field not isomorphic to Z{f.size}")
                    iso_confirmed += 1
        else:
            rhs = False
        if lhs != rhs:
            _fail(failures, r, non_w1ap_ideal(r),
                  f"all-w1ap = {lhs} but classification shape = {rhs}")
    return _finish("global_classification", tested, 0, failures,
                   f"{iso_confirmed} residue fields matched against Z_p")


# ---------------------------------------------------------------------------
# Z_n table


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _is_prime_int(n: int) -> bool:
    return n >= 2 and _factorize(n) == {n: 1}


def zn_arithmetic_predicate(n: int) -> bool:
    """n = p^3 or n = p1*p2 with p1 != p2."""
    f = _factorize(n)
    if len(f) == 1:
        return next(iter(f.values())) == 3
    return len(f) == 2 and all(e == 1 for e in f.values())


def zn_boundary_flagged(n: int) -> bool:
    """Prime and prime-square n: the engine verdict is true there while
    the arithmetic shape predicate is false, so the row is emitted
    descriptively instead of asserted."""
    f = _factorize(n)
    return len(f) == 1 and next(iter(f.values())) in (1, 2)


def zn_classification(max_n: int, cap: int | None = None) -> list[dict]:
    """Engine verdict of all-proper-ideals-w1ap for Z_n against the
    arithmetic shape predicate, for 2 <= n <= max_n."""
    rows = []
    for n in range(2, max_n + 1):
        r = make_zn(n, cap=cap)
        rows.append({
            "n": n,
            "verdict": all_proper_w1ap(r),
            "predicted": zn_arithmetic_predicate(n),
            "flagged": zn_boundary_flagged(n),
        })
    return rows


def check_zn_table(rings: list[FiniteRing]) -> TheoremCheck:
    """Z_n corpus members against the arithmetic shape predicate. Prime
    and prime-square n are boundary rows: reported, never asserted."""
    tested = vacuous = 0
    failures: list[dict] = []
    flagged_rows = []
    for r in rings:
        if not isinstance(r.provenance, ex.Zn):
            continue
        n = r.provenance.n
        verdict = all_proper_w1ap(r)
        predicted = zn_arithmetic_predicate(n)
        if zn_boundary_flagged(n):
            vacuous += 1
            if verdict != predicted:
                flagged_rows.append(n)
            continue
        tested += 1
        if verdict != predicted:
            _fail(failures, r, non_w1ap_ideal(r),
                  f"engine says {verdict}, arithmetic shape says {predicted}")
    detail = ""
    if flagged_rows:
        detail = ("boundary n where the engine verdict is true but the "
                  "shape predicate is false: "
                  + ", ".join(str(n) for n in flagged_rows))
    return _finish("zn_table", tested, vacuous, failures, detail)


# ---------------------------------------------------------------------------
# corpus and driver

CHECKS = {
    "radical_weakly_prime": check_radical_weakly_prime,
    "hom_transfer": check_hom_transfer,
    "quotient_transfer": check_quotient_transfer,
    "localization_transfer": check_localization_transfer,
    "nonlocal_equivalence": check_nonlocal_equivalence,
    "colon_characterization": check_colon_characterization,
    "triple_zero_annihilation": check_triple_zero_annihilation,
    "reduced_triple_zero": check_reduced_triple_zero,
    "idealization_transfer": check_idealization_transfer,
    "product_prime_shape": check_product_prime_shape,
    "product_all_ideals": check_product_all_ideals,
    "jacobson_dichotomy": check_jacobson_dichotomy,
    "local_cube_zero": check_local_cube_zero,
    "local_square_one_absorbing": check_local_square_one_absorbing,
    "two_maximal_bound": check_two_maximal_bound,
    "global_classification": check_global_classification,
    "zn_table": check_zn_table,
}

CHECK_ORDER = tuple(CHECKS)           # the order checks run and print in


def default_corpus_exprs() -> list[ex.RingExpr]:
    """The fixed default corpus: Z_n for n <= 100, products Z_a x Z_b
    with ab <= 100, a triple product, both local algebras, and the
    trivial extensions of Z_n (n <= 8) by every proper quotient."""
    exprs: list[ex.RingExpr] = [ex.Zn(n) for n in range(2, 101)]
    for a in range(2, 11):
        for b in range(a, 100 // a + 1):
            exprs.append(ex.Product(ex.Zn(a), ex.Zn(b)))
    exprs.append(ex.Product(ex.Product(ex.Zn(2), ex.Zn(2)), ex.Zn(2)))
    exprs.append(ex.LocalAlg(2))
    exprs.append(ex.LocalAlg(3))
    for n in range(2, 9):
        gens = [0] + [d for d in range(2, n) if n % d == 0]
        for g in gens:
            exprs.append(ex.Idealize(ex.Zn(n), (g,)))
    return exprs


def corpus_hash(exprs: list[ex.RingExpr] | None = None) -> str:
    """Stable identifier of a corpus: sha256 over its canonical lines."""
    if exprs is None:
        exprs = default_corpus_exprs()
    text = "\n".join(ex.print_expr(e) for e in exprs) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def build_corpus(exprs: list[ex.RingExpr] | None = None,
                 cap: int | None = None) -> list[FiniteRing]:
    if exprs is None:
        exprs = default_corpus_exprs()
    return [build_ring(e, cap=cap) for e in exprs]


def run_checks(rings: list[FiniteRing]) -> list[TheoremCheck]:
    return [CHECKS[name](rings) for name in CHECK_ORDER]


def run_default_checks(cap: int | None = None) -> list[TheoremCheck]:
    return run_checks(build_corpus(cap=cap))
