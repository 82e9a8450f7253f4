"""Finite-model checks for the transfer and classification theorems.

Each check quantifies one statement about weakly 1-absorbing prime
ideals over a corpus of built rings and reports how many instances it
actually exercised. An instance is "tested" when every hypothesis held
and the conclusion was asserted, and "vacuous" when a gating hypothesis
failed; a passing check with zero tested instances is reported as
vacuous, never as pass, because it is not evidence.

Each check is a generator over its instances. It yields VACUOUS for an
instance whose gate failed, and (ring, ideal, note) for a tested one,
with note None when the conclusion held; a tested instance whose
conclusion covers several ideals yields a list of such triples, one per
ideal. It returns its detail line. CHECKS wraps each generator in the
one tally that counts the instances and records the failures.

Failures carry (ring, ideal) in DSL text so they can be replayed with
the classify command.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Generator
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .classify import (
    _triple_zero_blocks,
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


VACUOUS = object()        # yielded for an instance whose gate failed
Instances = Generator[object, None, "str | None"]     # a check's generator


def _tally(check_id: str, instances: Instances) -> TheoremCheck:
    """Count what a check's generator yields, record the failures in DSL
    text (the first MAX_FAILURES of them) and decide the outcome."""
    tested = vacuous = 0
    failures: list[dict] = []
    while True:
        try:
            item = next(instances)
        except StopIteration as done:
            detail = done.value or ""
            break
        if item is VACUOUS:
            vacuous += 1
            continue
        tested += 1
        for ring, ideal, note in item if isinstance(item, list) else [item]:
            if note is not None:
                failures.append({
                    "ring": ring.text,
                    "ideal": None if ideal is None else ideal_text(ideal),
                    "note": note,
                })
    if len(failures) > MAX_FAILURES:
        extra = len(failures) - MAX_FAILURES
        failures = failures[:MAX_FAILURES]
        detail = (detail + f"; {extra} further failures suppressed").lstrip("; ")
    outcome = "fail" if failures else ("pass" if tested > 0 else "vacuous")
    return TheoremCheck(check_id, outcome, tested, vacuous, failures, detail)


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


def check_radical_weakly_prime(rings: list[FiniteRing]) -> Instances:
    """In a reduced ring the radical of a weakly 1-absorbing prime ideal
    is weakly prime. Instances are proper ideals of reduced corpus
    rings; non-reduced rings and non-w1ap ideals count as vacuous."""
    reduced_rings = 0
    for r in rings:
        if not is_reduced(r):
            yield from (VACUOUS for _ in all_ideals(r).proper)
            continue
        reduced_rings += 1
        for p in all_ideals(r).proper:
            if not _w1ap(p):
                yield VACUOUS
                continue
            yield r, p, (None if is_weakly_prime(radical(p)).holds
                         else "radical is not weakly prime")
    return (f"{reduced_rings} reduced rings; the colon clause for regular "
            "non-units is empty here because regular elements coincide "
            "with units in finite rings")


def check_hom_transfer(rings: list[FiniteRing]) -> Instances:
    """Transfer along unit homomorphisms: the preimage of a weakly
    1-absorbing prime ideal under an injective nonunit-preserving map is
    weakly 1-absorbing prime, and the image under a surjection is, when
    the ideal contains the kernel.

    The hom corpus is identities, quotient projections, and diagonal
    embeddings r -> r x r built from the ring corpus.
    """
    homs: list[Homomorphism] = []
    for r in rings:
        if r.size <= HOM_SIZE_LIMIT:
            homs.append(Homomorphism(r, r, np.arange(r.size)))
            for q in all_ideals(r).proper:
                homs.append(make_quotient(r, q)[1])
        if r.size <= HOM_DIAGONAL_LIMIT:
            diagonal = np.arange(r.size) * (r.size + 1)       # a -> (a, a)
            homs.append(Homomorphism(r, make_product(r, r), diagonal))
    for f in homs:
        if f.is_injective:
            for p in all_ideals(f.target).proper:
                if not _w1ap(p):
                    continue
                if not f.preserves_nonunits:
                    yield VACUOUS         # the nonunit hypothesis gates (i)
                    continue
                pre = preimage_ideal(f, p)
                yield f.source, pre, (None if _w1ap(pre) else
                                      f"preimage from {f.target.text} is not w1ap")
        if f.is_surjective:
            kernel_mask = f.mapping == f.target.zero
            for p in all_ideals(f.source).proper:
                if not _w1ap(p):
                    continue
                if not kernel_mask[p.mask].all():
                    yield VACUOUS         # kernel not inside the ideal
                    continue
                yield f.source, p, (None if _w1ap(image_ideal(f, p)) else
                                    f"image in {f.target.text} is not w1ap")
    return f"{len(homs)} homomorphisms"


def check_quotient_transfer(rings: list[FiniteRing]) -> Instances:
    """Quotient behaviour: (i) P/Q is weakly 1-absorbing prime whenever
    P is and Q <= P; (ii) with unit lifting, Q and P/Q weakly
    1-absorbing prime force P to be; (iii) when the zero ideal is
    1-absorbing prime, weakly 1-absorbing prime ideals are 1-absorbing
    prime. Part (ii) pairs without unit lifting count as vacuous."""
    for r in rings:
        if r.size > QUOTIENT_SIZE_LIMIT:
            continue
        lat = all_ideals(r)
        proper = lat.proper
        for qi, q in enumerate(proper):
            rq, proj = make_quotient(r, q)
            unit_lifting = np.array_equal(np.unique(proj.mapping[r.unit_mask]),
                                          np.flatnonzero(rq.unit_mask))
            for pi, p in enumerate(proper):
                if not lat.le[qi, pi]:
                    continue
                image = image_ideal(proj, p)
                p_w1 = _w1ap(p)
                if p_w1:
                    yield r, p, (None if _w1ap(image) else
                                 f"P/Q not w1ap for Q = {ideal_text(q)}")
                if _w1ap(q) and _w1ap(image):
                    if unit_lifting:
                        yield r, p, (None if p_w1 else "unit-lifting converse "
                                     f"fails for Q = {ideal_text(q)}")
                    else:
                        yield VACUOUS
        if is_one_absorbing_prime(zero_ideal(r)).holds:
            for p in proper:
                if _w1ap(p):
                    yield r, p, (None if is_one_absorbing_prime(p).holds else
                                 "zero ideal is 1-absorbing prime but P is not")


def _cyclic_mult_sets(r: FiniteRing) -> list[tuple[int, ...]]:
    """Multiplicative closures of {1, t}; closures that reach 0 are
    dropped since a multiplicative set may not contain zero."""
    out: dict[frozenset, tuple[int, ...]] = {}
    for t in range(r.size):
        cur = int(r.one)
        seen = {cur}
        for _ in range(r.size):
            cur = int(r.mul[cur, t])
            if cur == r.zero or cur in seen:
                break
            seen.add(cur)
        if cur != r.zero:
            out.setdefault(frozenset(seen), tuple(sorted(seen)))
    return sorted(out.values(), key=lambda s: (len(s), s))


def check_localization_transfer(rings: list[FiniteRing]) -> Instances:
    """Localization behaviour: the extension of a weakly 1-absorbing
    prime ideal disjoint from S stays weakly 1-absorbing prime. The
    converse instances require S inside the regular elements; since
    regular elements are units in finite rings, instances where S
    contains a zero-divisor are recorded as vacuous."""
    converse_tested = 0
    for r in rings:
        if r.size > LOCALIZATION_SIZE_LIMIT:
            continue
        for s in _cyclic_mult_sets(r):
            can = make_localization(r, s)[1]
            s_arr = np.asarray(s, dtype=np.intp)
            s_regular = bool(r.unit_mask[s_arr].all())
            for p in all_ideals(r).proper:
                if p.mask[s_arr].any():
                    continue              # P meets S: out of scope
                extension = image_ideal(can, p)
                if _w1ap(p):
                    yield r, p, (None if _w1ap(extension) else
                                 f"extension not w1ap for S = {s}")
                if not s_regular:
                    yield VACUOUS         # converse needs S without zero-divisors
                elif _w1ap(extension):
                    converse_tested += 1
                    yield r, p, (None if _w1ap(p) else
                                 f"converse fails for regular S = {s}")
    return f"{converse_tested} converse instances with S inside the units"


def check_nonlocal_equivalence(rings: list[FiniteRing]) -> Instances:
    """In a non-quasi-local ring, an ideal whose element annihilators
    are never maximal is weakly prime exactly when it is weakly
    1-absorbing prime."""
    for r in rings:
        if is_quasi_local(r):
            continue
        # ann[x] is the mask of (0 : x); marked, the x it makes maximal
        ann = r.mul == r.zero
        maxes = np.stack([m.mask for m in maximal_ideals(r)])
        marked = (ann[:, None] == maxes).all(axis=2).any(axis=1)
        for p in all_ideals(r).proper:
            if marked[p.mask].any():
                yield VACUOUS
                continue
            yield r, p, (None if is_weakly_prime(p).holds == _w1ap(p)
                         else "weakly prime and w1ap disagree")


def _disagreement(verdicts: dict[str, bool], what: str) -> str | None:
    """None when all the verdicts agree, else what and every verdict."""
    if len(set(verdicts.values())) == 1:
        return None
    return what + ": " + " ".join(f"{k}={v}" for k, v in verdicts.items())


def check_colon_characterization(rings: list[FiniteRing]) -> Instances:
    """The six colon/ideal-product conditions agree with the definitional
    scan on every proper ideal."""
    for r in rings:
        for p in all_ideals(r).proper:
            yield r, p, _disagreement(tmm_characterize(p), "conditions disagree")


def check_triple_zero_annihilation(rings: list[FiniteRing]) -> Instances:
    """Every 1-triple zero (x, y, z) of a weakly 1-absorbing prime ideal
    satisfies xyP = 0; triples with x, y outside (P : z) additionally
    force xzP = yzP = xP^2 = yP^2 = zP^2 = 0 and P^3 = 0. The ideals
    with no 1-triple zero, the 1-absorbing prime ones, are vacuous.
    Class triples (see classify) stand for, and count, their members."""
    triples_seen = 0
    for r in rings:
        cl, lat = r.nonunit_classes, all_ideals(r)
        pt, sizes = lat.product_table, cl.sizes
        for pi, p in enumerate(lat.proper):
            if not _w1ap(p):
                continue
            if is_one_absorbing_prime(p).holds:         # no 1-triple zero
                yield VACUOUS
                continue
            p2, in_p = pt[pi, pi], p.mask[cl.ab]
            out_p = ~annihilator_ideal(p).mask[cl.ab]           # w*P != 0
            out_p2 = ~annihilator_ideal(lat[p2]).mask[cl.reps]  # x*P^2 != 0
            xy = qual = strong = False
            for xs, cube in _triple_zero_blocks(r, p.mask):
                triples_seen += int(sizes[xs] @ (cube @ sizes) @ sizes)
                xy |= (cube & out_p[xs, :, None]).any()
                q = cube & ~in_p[xs, None, :] & ~in_p[None]     # xz, yz outside P
                qual |= q.any()
                strong |= (q & (out_p[xs, None, :] | out_p[None])).any()
                strong |= (q & (out_p2[xs, None, None] | out_p2[:, None] | out_p2)).any()
            strong |= qual and pt[p2, pi] != 0                  # P^3 != 0
            yield r, p, ("xyP != 0 for some 1-triple zero" if xy else
                         "strong triple-zero consequences fail (xzP, yzP, "
                         "xP^2, yP^2, zP^2 or P^3 nonzero)" if strong else None)
    return f"{triples_seen} triples across the tested ideals"


def check_reduced_triple_zero(rings: list[FiniteRing]) -> Instances:
    """In a reduced ring a 1-triple zero of P with x, y outside (P : z)
    forces P = 0. The companion claim about nonzero weakly 1-absorbing
    prime ideals that are not 1-absorbing prime is unsatisfiable over
    finite rings (finite reduced rings are products of fields, where
    such ideals are prime), so those instances stay at zero."""
    nonzero_cases = 0
    for r in rings:
        if not is_reduced(r):
            continue
        for p in all_ideals(r).proper:
            if not _w1ap(p):
                continue
            if not p.is_zero and not is_one_absorbing_prime(p).holds:
                nonzero_cases += 1
            in_p = p.mask[r.nonunit_classes.ab]         # stop at a qualifying triple
            if not any((cube & ~in_p[xs, None, :] & ~in_p[None]).any()
                       for xs, cube in _triple_zero_blocks(r, p.mask)):
                yield VACUOUS
                continue
            yield r, p, (None if p.is_zero else
                         "qualifying 1-triple zero in a reduced ring "
                         "but P is nonzero")
    return (f"{nonzero_cases} nonzero non-1-absorbing cases "
            "(provably none exist over finite rings)")


def check_idealization_transfer(rings: list[FiniteRing]) -> Instances:
    """P x M is weakly 1-absorbing prime in the trivial extension
    exactly when P is and every 1-triple zero of P has xy, xz, yz
    annihilating M. Both sides are computed independently, the left by a
    direct scan of the extension ring."""
    extensions = 0
    for r in rings:
        if r.idealization is None:
            continue
        extensions += 1
        base, j = r.idealization
        k = r.module_size
        out_m = ~j.mask[base.nonunit_classes.ab]    # M = base/j is cyclic: Ann(M) = j
        for p in all_ideals(base).proper:
            members = (np.flatnonzero(p.mask)[:, None] * k + np.arange(k)).ravel()
            lhs = _w1ap(Ideal(r, members.tolist()))
            rhs = _w1ap(p) and not any(       # some xy, xz or yz outside Ann(M)
                (cube & (out_m[xs, :, None] | out_m[xs, None, :] | out_m[None])).any()
                for xs, cube in _triple_zero_blocks(base, p.mask))
            yield base, p, (None if lhs == rhs else
                            f"extension scan in {r.text} gives {lhs}, "
                            f"base criterion gives {rhs}")
    return f"{extensions} trivial extensions"


def check_product_prime_shape(rings: list[FiniteRing]) -> Instances:
    """Over a product of two non-fields, a nonzero proper ideal is
    weakly 1-absorbing prime iff it is prime iff it is weakly prime iff
    it is 1-absorbing prime iff it is a prime times the full factor."""
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
            p1 = Ideal(left, np.flatnonzero(p.mask) // s2)
            p2 = Ideal(right, np.flatnonzero(p.mask) % s2)
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
            yield r, p, _disagreement(verdicts, "five-way equivalence broken")
    return f"{qualifying} products of non-fields"


def check_product_all_ideals(rings: list[FiniteRing]) -> Instances:
    """All proper ideals of a product are weakly 1-absorbing prime
    exactly when it is a product of two fields."""
    for r in rings:
        if r.factors is None:
            continue
        left, right = r.factors
        bad = non_w1ap_ideal(r)
        lhs = bad is None
        rhs = is_field(left) and is_field(right)
        yield r, bad, (None if lhs == rhs else
                       f"all-w1ap = {lhs} but two-fields = {rhs}")


def check_jacobson_dichotomy(rings: list[FiniteRing]) -> Instances:
    """When every proper ideal is weakly 1-absorbing prime, either
    Jac(A)^2 = 0, or every nonzero product xy of Jacobson elements has
    (0 : xy) = Jac(A) and (0 : Jac(A)^2) = Jac(A)."""
    for r in rings:
        if not all_proper_w1ap(r):
            yield VACUOUS
            continue
        lat = all_ideals(r)
        jac = jacobson_radical(r)
        ji = lat.index(jac)
        jac2 = lat[lat.product_table[ji, ji]]
        ok = jac2.is_zero
        if not ok:
            prods = r.mul[np.ix_(jac.mask, jac.mask)]
            nonzero = np.unique(prods[prods != r.zero])
            ok = (((r.mul[nonzero] == r.zero) == jac.mask).all()      # (0 : xy)
                  and annihilator_ideal(jac2).elements == jac.elements)
        yield r, jac, (None if ok else
                       "Jac^2 nonzero and the annihilator alternative fails")


def check_local_cube_zero(rings: list[FiniteRing]) -> Instances:
    """A quasi-local ring has all proper ideals weakly 1-absorbing prime
    exactly when the cube of its maximal ideal vanishes."""
    for r in rings:
        if not is_quasi_local(r):
            yield VACUOUS
            continue
        m = maximal_ideals(r)[0]
        bad = non_w1ap_ideal(r)
        lhs = bad is None
        rhs = _power_is_zero(m, 3)
        yield r, bad or m, (None if lhs == rhs else
                            f"all-w1ap = {lhs} but m^3 = 0 is {rhs}")


def check_local_square_one_absorbing(rings: list[FiniteRing]) -> Instances:
    """In a quasi-local ring whose maximal ideal squares to zero, every
    proper ideal is 1-absorbing prime. Quasi-local rings with a nonzero
    square count as vacuous."""
    for r in rings:
        if not is_quasi_local(r):
            continue
        m = maximal_ideals(r)[0]
        if not _power_is_zero(m, 2):
            yield VACUOUS
            continue
        yield [(r, p, None if is_one_absorbing_prime(p).holds else
                "m^2 = 0 but P is not 1-absorbing prime")
               for p in all_ideals(r).proper]


def check_two_maximal_bound(rings: list[FiniteRing]) -> Instances:
    """When every proper ideal is weakly 1-absorbing prime, the ring has
    at most two maximal ideals."""
    for r in rings:
        if not all_proper_w1ap(r):
            yield VACUOUS
            continue
        count = len(maximal_ideals(r))
        yield r, None, None if count <= 2 else f"{count} maximal ideals"


def check_global_classification(rings: list[FiniteRing]) -> Instances:
    """Every proper ideal is weakly 1-absorbing prime exactly when the
    ring is quasi-local with m^3 = 0 or a product of two fields. The
    two-fields prong is decided by reducedness plus a two-element
    maximal spectrum; prime-order residue fields are additionally
    matched against Z_p by the isomorphism k -> k*1."""
    iso_confirmed = 0
    for r in rings:
        bad = non_w1ap_ideal(r)
        lhs = bad is None
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
        yield r, bad, (None if lhs == rhs else
                       f"all-w1ap = {lhs} but classification shape = {rhs}")
    return f"{iso_confirmed} residue fields matched against Z_p"


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


def _zn_row(r: FiniteRing) -> dict:
    """The Z_n table row of r = Z_n: the engine verdict of
    all-proper-ideals-w1ap, the arithmetic shape predicate and the
    boundary flag."""
    n = r.provenance.n
    return {
        "n": n,
        "verdict": all_proper_w1ap(r),
        "predicted": zn_arithmetic_predicate(n),
        "flagged": zn_boundary_flagged(n),
    }


def zn_classification(max_n: int, cap: int | None = None) -> list[dict]:
    """Engine verdict of all-proper-ideals-w1ap for Z_n against the
    arithmetic shape predicate, for 2 <= n <= max_n."""
    return [_zn_row(make_zn(n, cap=cap)) for n in range(2, max_n + 1)]


def check_zn_table(rings: list[FiniteRing]) -> Instances:
    """Z_n corpus members against the arithmetic shape predicate. Prime
    and prime-square n are boundary rows: reported, never asserted."""
    flagged_rows = []
    for r in rings:
        if not isinstance(r.provenance, ex.Zn):
            continue
        row = _zn_row(r)
        verdict, predicted = row["verdict"], row["predicted"]
        if row["flagged"]:
            yield VACUOUS
            if verdict != predicted:
                flagged_rows.append(row["n"])
        elif verdict == predicted:
            yield r, None, None
        else:
            yield r, non_w1ap_ideal(r), (f"engine says {verdict}, "
                                         f"arithmetic shape says {predicted}")
    if flagged_rows:
        return ("boundary n where the engine verdict is true but the "
                "shape predicate is false: "
                + ", ".join(str(n) for n in flagged_rows))


# ---------------------------------------------------------------------------
# corpus and driver


def _checked(check_id: str, check: Callable[[list[FiniteRing]], Instances]):
    """rings -> TheoremCheck: the tally of check(rings)."""
    return lambda rings: _tally(check_id, check(rings))


CHECKS = {check_id: _checked(check_id, check) for check_id, check in {
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
}.items()}

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
