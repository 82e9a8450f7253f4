"""Acceptance suite: ten numbered criteria, one test each.

Each test name carries its criterion number, so a verbose pytest run
prints one PASS/FAIL line per criterion. Runtime budgets are asserted
with a wall clock inside the criterion that pins them.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

from conftest import capped
from idealis import (
    CapExceeded,
    ElementOutOfRange,
    ImproperIdeal,
    NotMultClosed,
    NotPrime,
    ParseError,
    ZeroInS,
    all_ideals,
    build_corpus,
    build_ring,
    build_ring_text,
    colon,
    find_one_triple_zeros,
    ideal_gen,
    ideal_product,
    ideal_text,
    is_one_absorbing_prime,
    is_prime,
    is_quasi_local,
    is_weakly_one_absorbing_prime,
    is_weakly_prime,
    is_weakly_two_absorbing,
    make_local_algebra,
    make_localization,
    make_product,
    make_zn,
    maximal_ideals,
    parse_ideal,
    parse_ring,
    print_expr,
    resolve_literal,
    zero_ideal,
    zn_classification,
    zn_isomorphism,
)
from idealis.classify import IMPLICATIONS, classify, witness_violates
from idealis.expr import Idealize, LocalAlg, Localize, Product, Quotient, Zn
from idealis.rings import element_literal
from idealis.theorems import (
    CHECKS,
    all_proper_w1ap,
    non_w1ap_ideal,
    zn_boundary_flagged,
)
from scan_oracle import oracle_witnesses


def _by_id(checks):
    return {c.check_id: c for c in checks}


def test_criterion_01_golden_examples():
    start = time.monotonic()

    p = ideal_gen(make_zn(12), [4])
    assert is_weakly_one_absorbing_prime(p).holds
    wp = is_weakly_prime(p)
    assert not wp.holds and wp.witness == (2, 2)

    q = ideal_gen(make_zn(30), [6])
    assert is_weakly_two_absorbing(q).holds
    w = is_weakly_one_absorbing_prime(q)
    assert not w.holds and w.witness == (2, 2, 3)

    z = zero_ideal(make_zn(6))
    assert is_weakly_one_absorbing_prime(z).holds
    oa = is_one_absorbing_prime(z)
    assert not oa.holds
    assert next(find_one_triple_zeros(z)) == (2, 2, 3)

    f = zero_ideal(make_zn(4))
    assert is_one_absorbing_prime(f).holds
    pr = is_prime(f)
    assert not pr.holds and pr.witness == (2, 2)

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"golden cases took {elapsed:.2f}s"
    print(f"criterion 1 PASS in {elapsed:.3f}s")


def test_criterion_02_implication_diagram():
    start = time.monotonic()
    rings = [make_zn(n) for n in range(2, 101)]
    for a in range(2, 11):
        for b in range(a, 100 // a + 1):
            rings.append(make_product(make_zn(a), make_zn(b)))

    separated = {arrow: None for arrow in IMPLICATIONS}
    ideals = 0
    for r in rings:
        for p in all_ideals(r).proper:
            rep = classify(p)
            ideals += 1
            for arrow in IMPLICATIONS:
                src, dst = arrow
                assert not rep.verdicts[src] or rep.verdicts[dst], (
                    f"{src} held without {dst} for {p!r}")
                if separated[arrow] is None and rep.verdicts[dst] \
                        and not rep.verdicts[src]:
                    separated[arrow] = (r.text, p.generators)

    missing = [a for a, hit in separated.items() if hit is None]
    assert not missing, f"no separating example for {missing}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"implication sweep took {elapsed:.2f}s"
    print(f"criterion 2 PASS: {ideals} ideals, {len(rings)} rings, "
          f"{elapsed:.2f}s; separations: {separated}")


def test_criterion_03_characterization_oracle(default_checks):
    c = _by_id(default_checks)["colon_characterization"]
    assert c.outcome == "pass" and not c.failures and c.vacuous == 0
    expected = sum(len(all_ideals(r)) - 1 for r in build_corpus())
    assert c.tested == expected, (c.tested, expected)
    print(f"criterion 3 PASS: six-way agreement on {c.tested} ideals")


def test_criterion_04_triple_zero_consequences(default_checks):
    c = _by_id(default_checks)["triple_zero_annihilation"]
    assert c.outcome == "pass" and not c.failures and c.tested > 0

    # independent replay on the small cyclic slice
    replayed = 0
    for n in range(2, 31):
        r = make_zn(n)
        for p in all_ideals(r).proper:
            if not is_weakly_one_absorbing_prime(p).holds:
                continue
            p3 = ideal_product(ideal_product(p, p), p)
            for x, y, z in find_one_triple_zeros(p):
                replayed += 1
                xy = r.mul[x, y]
                assert all(r.mul[xy, a] == 0 for a in p.elements)
                cz = colon(p, z)
                if x not in cz and y not in cz:
                    assert p3.is_zero
    print(f"criterion 4 PASS: harness {c.tested} ideals, "
          f"replayed {replayed} triples")


def test_criterion_05_zn_classification_table():
    start = time.monotonic()
    rows = zn_classification(500)
    elapsed = time.monotonic() - start
    assert [row["n"] for row in rows] == list(range(2, 501))
    flagged = []
    for row in rows:
        if row["flagged"]:
            flagged.append(row["n"])
            continue
        assert row["verdict"] == row["predicted"], row
    assert elapsed < 60.0, f"sweep took {elapsed:.2f}s"
    assert flagged == [n for n in range(2, 501) if zn_boundary_flagged(n)]
    print(f"criterion 5 PASS in {elapsed:.2f}s; "
          f"{len(flagged)} boundary n emitted, not asserted: {flagged}")


def test_criterion_06_product_and_local_shapes():
    assert all_proper_w1ap(make_product(make_zn(2), make_zn(3)))

    triple = build_ring_text("Z2 x Z2 x Z2")
    assert not all_proper_w1ap(triple)
    bad = non_w1ap_ideal(triple)
    assert bad is not None
    v = is_weakly_one_absorbing_prime(bad)
    assert not v.holds
    assert witness_violates(bad, "weaklyOneAbsorbingPrime", v.witness)

    for n in (8, 27):
        r = make_zn(n)
        assert is_quasi_local(r)
        m = maximal_ideals(r)[0]
        assert ideal_product(ideal_product(m, m), m).is_zero
        assert all_proper_w1ap(r)

    la = make_local_algebra(2)
    assert all_proper_w1ap(la)
    m = maximal_ideals(la)[0]
    assert ideal_product(m, m).is_zero
    for p in all_ideals(la).proper:
        assert is_one_absorbing_prime(p).holds
    print(f"criterion 6 PASS: triple-product counterexample "
          f"generators {bad.generators}, witness {v.witness}")


def test_criterion_07_localization_oracle(default_checks):
    loc, _ = make_localization(make_zn(12), {1, 3, 9})
    assert loc.size == 4 and zn_isomorphism(loc) is not None
    c = _by_id(default_checks)["localization_transfer"]
    assert c.outcome == "pass" and c.tested >= 1
    print(f"criterion 7 PASS: Loc(Z12, 1, 3, 9) is Z4; "
          f"{c.tested} transfer instances")


def test_criterion_08_idealization_equivalence():
    start = time.monotonic()
    exprs = []
    for n in range(2, 9):
        gens = [0] + [d for d in range(2, n) if n % d == 0]
        exprs.extend(f"Idealize(Z{n}, ({g}))" for g in gens)
    rings = [build_ring_text(t) for t in exprs]
    c = CHECKS["idealization_transfer"](rings)
    assert c.outcome == "pass" and not c.failures
    assert c.tested == 26      # sum over (n, J) of proper ideals of Z_n
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"idealization sweep took {elapsed:.2f}s"
    print(f"criterion 8 PASS: {c.tested} base ideals over "
          f"{len(rings)} trivial extensions in {elapsed:.2f}s")


def _fuzz_expr(rng, depth, max_n=300, max_lit=40):
    kinds = ["zn", "zn", "local"]
    if depth > 0:
        kinds += ["product", "quotient", "localize", "idealize"]
    kind = rng.choice(kinds)
    sub = (depth - 1, max_n, max_lit)
    if kind == "zn":
        return Zn(rng.randint(2, max_n))
    if kind == "local":
        return LocalAlg(rng.choice((2, 3, 5, 7)))
    if kind == "product":
        return Product(_fuzz_expr(rng, *sub), _fuzz_expr(rng, *sub))
    if kind == "quotient":
        return Quotient(_fuzz_expr(rng, *sub), _fuzz_literals(rng, max_lit))
    if kind == "localize":
        elems = tuple(_fuzz_literal(rng, 1, max_lit)
                      for _ in range(rng.randint(1, 3)))
        return Localize(_fuzz_expr(rng, *sub), elems)
    return Idealize(_fuzz_expr(rng, *sub), _fuzz_literals(rng, max_lit))


def _fuzz_literal(rng, depth, max_lit=40):
    if depth > 0 and rng.random() < 0.3:
        return (_fuzz_literal(rng, depth - 1, max_lit),
                _fuzz_literal(rng, depth - 1, max_lit))
    return rng.randint(0, max_lit)


def _fuzz_literals(rng, max_lit=40):
    return tuple(_fuzz_literal(rng, 2, max_lit) for _ in range(rng.randint(0, 3)))


# the documented domain errors of a well-formed expression; anything
# else escaping a build is a bug
FUZZ_BUILD_ERRORS = (CapExceeded, NotMultClosed, ZeroInS, ElementOutOfRange,
                     ImproperIdeal, NotPrime)
FUZZ_CAP = 64


def _check_literal_round_trips(ring, text):
    # the built ring prints its canonical form: sorted S, reduced generators
    assert parse_ring(ring.text) == ring.provenance, text
    for a in range(ring.size):
        assert resolve_literal(ring, element_literal(ring, a)) == a, (text, a)
    for p in all_ideals(ring):
        assert parse_ideal(ideal_text(p), ring) == p, (text, ideal_text(p))


def _check_classification(ring, text):
    # every witness violates its definition and is the oracle's witness
    for p in all_ideals(ring).proper:
        rep = classify(p)
        for key, wit in rep.witnesses.items():
            assert wit is None or witness_violates(p, key, wit), (text, key, wit)
        assert rep.witnesses == oracle_witnesses(p), (text, ideal_text(p))


def test_criterion_09_dsl_round_trip():
    rng = random.Random(20260816)
    built = 0
    for i in range(1000):
        e = _fuzz_expr(rng, 4)
        text = print_expr(e)
        assert parse_ring(text) == e, f"AST {i}: {text}"
        try:
            ring = capped(FUZZ_CAP, build_ring, e)
        except FUZZ_BUILD_ERRORS:
            continue
        built += 1
        _check_literal_round_trips(ring, text)
        _check_classification(ring, text)
    assert built >= 100, f"only {built} fuzzed rings built"

    # malformed inputs: seeded mutations of valid texts must either
    # parse or raise a positioned ParseError, never anything else
    crashes = 0
    for i in range(500):
        e = _fuzz_expr(rng, 2)
        text = list(print_expr(e))
        op = rng.randrange(3)
        pos = rng.randrange(len(text))
        if op == 0:
            del text[pos]
        elif op == 1:
            text.insert(pos, rng.choice("()/x,Z9 Q"))
        else:
            text[pos] = rng.choice("()/x,Z9 Q")
        try:
            parse_ring("".join(text))
        except ParseError as err:
            assert isinstance(err.offset, int) and err.offset >= 0
            assert err.expected
        except Exception:
            crashes += 1
    assert crashes == 0

    # small factors and literals, so that products of quotients,
    # localizations and idealizations fit under the cap and get built
    small = random.Random(20261017)
    built_small = 0
    for i in range(500):
        e = _fuzz_expr(small, 2, max_n=4, max_lit=3)
        try:
            ring = capped(FUZZ_CAP, build_ring, e)
        except FUZZ_BUILD_ERRORS:
            continue
        built_small += 1
        _check_literal_round_trips(ring, print_expr(e))
        _check_classification(ring, print_expr(e))
    assert built_small >= 100, f"only {built_small} small fuzzed rings built"
    print(f"criterion 9 PASS: 1000 round trips, 500 mutations, no crashes; "
          f"{built + built_small} fuzzed rings built with literals and "
          "ideals re-parsed and every proper ideal classified")


def test_criterion_10_default_verify():
    # the child imports idealis from this checkout's src/, as pytest does
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "idealis.cli", "verify", "--default"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    rows = [ln.split() for ln in proc.stdout.splitlines()
            if ln and not ln.startswith((" ", "corpus", "check"))]
    assert len(rows) == 17
    for name, outcome, tested, vacuous in rows:
        assert outcome == "pass", (name, outcome)
        assert int(tested) >= 1, (name, tested)
    # the whole table, tested/vacuous counts and detail lines included
    golden = Path(__file__).parent / "golden" / "verify_default.txt"
    assert proc.stdout == golden.read_text()
    print("criterion 10 PASS: verify --default exit 0, "
          "17 checks pass, all non-vacuous")
