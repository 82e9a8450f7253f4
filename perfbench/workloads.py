"""The three benchmark workloads and their correctness references.

Each workload draws the order of every pass's inputs from a seeded
random.Random; the inputs themselves are fixed, so every seed does the
same work and runs on different seeds compare. Every pass builds fresh
rings from expression text (so the per-ring caches start empty, as in
one CLI call), and each answer is checked against a reference that
idealis did not compute in this run: committed digests of the CLI
output at the commit that defined the benchmark, and structure theorems
decided by this file's own factorization.

A pass returns the wall and CPU time of every call into idealis as one
segment, keyed by (group, call): the group is a ring's preparation, one
operation, one check or one rendering, named by its input, so the same
segment can be compared across passes. A pass also returns the number
of operations attempted and failed, and counts of the work done.
Checking happens outside the timed segments.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from idealis import (
    CHECK_ORDER,
    CHECKS,
    VERDICT_KEYS,
    all_ideals,
    build_ring,
    classify,
    is_one_absorbing_prime,
    is_prime,
    is_two_absorbing,
    is_weakly_one_absorbing_prime,
    parse_ring,
    witness_violates,
)
from idealis.cli import classification_report, render_checks
from idealis.theorems import all_proper_w1ap

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# One pass classifies every ring below once. Every ring family and
# property the scans depend on is present; the 2-absorbing scan is
# O(n^3) per ideal and dominates. A pass is kept to about 4 s, so that a
# run repeats every call a dozen times: the least of many repeats is what
# keeps the metrics steady on a shared host. So 360-element rings, which
# take 2-4 s each, are left out, and the Boolean ring is Z2^6: the
# lattice of Z2^7 alone would be over a tenth of the pass.
CLASSIFY_POOL = (
    "Z4 x Z60",                             # product, 36 ideals
    "Z240",                                 # Z_n with many divisors
    "Z16 x Z16",                            # products of prime powers
    "Z9 x Z27",
    "Z2 x Z2 x Z2 x Z2 x Z2 x Z2",          # Boolean ring, 64 ideals
    "LocalAlg(5)",                          # local ring
    "Idealize(Z64, (4))",                   # trivial extension
    "Z720/(120)",                           # quotient
)

# A product with a quotient factor cannot be rendered today: element
# literals recompute factor sizes from the expression. Its tables equal
# those of KNOWN_FAILURE_TWIN, whose elements, verdicts and witnesses are
# the reference once it renders.
KNOWN_FAILURE = "Z2 x Z720/(120)"
KNOWN_FAILURE_TWIN = "Z2 x Z120"

# The search universe for these sizes: Z_n, then Z_a x Z_b, a <= b, ab = n.
SWEEP_SIZES = range(100, 200)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def factorize(n: int) -> dict[int, int]:
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


def is_prime_int(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def zn_all_w1ap(n: int) -> bool:
    """Every proper ideal of Z_n is weakly 1-absorbing prime iff n is
    p, p^2, p^3 or p*q for distinct primes p, q."""
    exps = sorted(factorize(n).values())
    return exps in ([1], [2], [3], [1, 1])


def sweep_universe(sizes) -> list[tuple[str, bool]]:
    """(ring text, expected all-w1ap verdict) for the search universe.
    Z_a x Z_b has every proper ideal w1ap iff a and b are both prime."""
    out = []
    for n in sizes:
        out.append((f"Z{n}", zn_all_w1ap(n)))
        for a in range(2, n + 1):
            if a * a > n:
                break
            if n % a == 0:
                b = n // a
                out.append((f"Z{a} x Z{b}", is_prime_int(a) and is_prime_int(b)))
    return out


@dataclass
class PassResult:
    ops: int = 0
    failed: int = 0
    wall: dict = field(default_factory=dict)    # (group, call) -> seconds
    cpu: dict = field(default_factory=dict)     # (group, call) -> process CPU seconds
    op_keys: list = field(default_factory=list)     # groups that are operations
    counts: Counter = field(default_factory=Counter)

    def timed(self, group, call):
        return _Timed(self, (group, call))


class _Timed:
    """Records the wall and CPU time of one call as one segment."""

    def __init__(self, res: PassResult, key):
        self.res, self.key = res, key

    def __enter__(self):
        self.w0, self.c0 = time.perf_counter(), time.process_time()

    def __exit__(self, *exc):
        self.res.wall[self.key] = time.perf_counter() - self.w0
        self.res.cpu[self.key] = time.process_time() - self.c0
        return False


def _report_failure(what: str) -> None:
    print(f"benchmark: {what} raised", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def render_classify(ring, proper) -> str:
    """The bytes `idealis classify R` prints for all proper ideals."""
    report = classification_report(ring, proper, [ring.text])
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def table_digest(output: str) -> str:
    """Digest of elements, verdicts and witnesses only: what a ring with
    identical tables but another name must reproduce."""
    rows = [{k: e[k] for k in ("elements", "verdicts", "witnesses")}
            for e in json.loads(output)["ideals"]]
    return sha256(canonical(rows))


def witnesses_revalidate(p, entry: dict) -> bool:
    """Every printed verdict has a witness exactly when it is false, and
    every printed witness violates its definition on p."""
    for key in VERDICT_KEYS:
        wit = entry["witnesses"][key]
        if entry["verdicts"][key] != (wit is None):
            return False
        if wit is not None and not witness_violates(p, key, tuple(wit)):
            return False
    return True


class ClassifyLarge:
    """`idealis classify R` for every ring of CLASSIFY_POOL. One
    operation is one proper ideal: its prime, 2-absorbing and
    1-absorbing scans, then classify() reading the cache."""

    name = "classify_large"

    def __init__(self, seed: int, pool=CLASSIFY_POOL):
        self.rng = random.Random(seed)
        self.pool = tuple(pool)
        self.ref = load_reference("classify_large")

    def next_inputs(self):
        order = list(self.pool)
        self.rng.shuffle(order)
        return order, self.rng.getrandbits(32)

    def run_pass(self, inputs, tracer) -> PassResult:
        order, ideal_seed = inputs
        ideal_rng = random.Random(ideal_seed)
        res = PassResult()
        for text in order:
            self._ring(text, ideal_rng, tracer, res)
        return res

    def _ring(self, text, ideal_rng, tracer, res) -> None:
        ref = self.ref["rings"][text]
        res.ops += ref["proper_ideals"]
        prepare = (text, "prepare")
        try:
            with tracer.span("ring", new_op=True):
                with tracer.span("dsl.parse"), res.timed(prepare, "parse"):
                    expr = parse_ring(text)
                with tracer.span("rings.build"), res.timed(prepare, "build"):
                    ring = build_ring(expr)
                with tracer.span("ideals.lattice"), res.timed(prepare, "lattice"):
                    lat = all_ideals(ring)
                with tracer.span("ideals.covers"), res.timed(prepare, "covers"):
                    lat.covers
                proper = lat.proper
                order = list(range(len(proper)))
                ideal_rng.shuffle(order)
                for i in order:
                    p = proper[i]
                    op = (text, i)
                    res.op_keys.append(op)
                    with tracer.span("op", new_op=True):
                        with tracer.span("classify.prime"), res.timed(op, "prime"):
                            is_prime(p)
                        with (tracer.span("classify.two_absorbing"),
                              res.timed(op, "two_absorbing")):
                            is_two_absorbing(p)
                        with (tracer.span("classify.one_absorbing"),
                              res.timed(op, "one_absorbing")):
                            is_one_absorbing_prime(p)
                        with tracer.span("classify.classify"), res.timed(op, "classify"):
                            classify(p)
                with tracer.span("cli.report"), res.timed((text, "report"), "report"):
                    output = render_classify(ring, proper)
        except Exception:
            _report_failure(f"classify {text}")
            res.failed += ref["proper_ideals"]
            return
        res.counts["rings.built"] += 1
        res.counts["rings.elements"] += ring.size
        res.counts["ideals.lattice_ideals"] += len(lat)
        res.counts["classify.ideals_scanned"] += len(proper)
        res.failed += self.count_wrong(text, proper, output)

    def count_wrong(self, text, proper, output: str) -> int:
        """Operations whose printed entry differs from the reference or
        whose printed witnesses do not re-validate; every operation of
        the ring fails when only the rest of the output differs."""
        ref = self.ref["rings"][text]
        entries = json.loads(output)["ideals"]
        if len(entries) != len(proper) or len(proper) != ref["proper_ideals"]:
            return ref["proper_ideals"]
        wrong = sum(sha256(canonical(e)) != d or not witnesses_revalidate(p, e)
                    for p, e, d in zip(proper, entries, ref["ideal_sha256"]))
        if wrong == 0 and sha256(output) != ref["sha256"]:
            return ref["proper_ideals"]
        return wrong

    def probe_known_failure(self) -> dict:
        """Classify KNOWN_FAILURE once, outside the timed passes.
        status: "fails" while the defect stands, "matches" once it
        renders the reference, "wrong" if it renders anything else."""
        try:
            ring = build_ring(parse_ring(KNOWN_FAILURE))
            output = render_classify(ring, all_ideals(ring).proper)
        except Exception as err:            # the defect under watch
            return {"ring": KNOWN_FAILURE, "status": "fails",
                    "error": f"{type(err).__name__}: {err}"}
        ok = table_digest(output) == self.ref["known_failure"]["table_sha256"]
        return {"ring": KNOWN_FAILURE, "status": "matches" if ok else "wrong"}


class W1apSweep:
    """The all-proper-ideals-w1ap decision behind `zn_table` and
    `search`, over the search universe of SWEEP_SIZES. One operation is
    one ring, from parse through the lattice to its verdict."""

    name = "w1ap_sweep"

    def __init__(self, seed: int, sizes=SWEEP_SIZES):
        self.rng = random.Random(seed)
        self.universe = sweep_universe(sizes)

    def next_inputs(self):
        order = list(self.universe)
        self.rng.shuffle(order)
        return order

    def run_pass(self, inputs, tracer) -> PassResult:
        res = PassResult()
        for text, expected in inputs:
            res.ops += 1
            res.op_keys.append(text)
            try:
                with tracer.span("op", new_op=True):
                    with tracer.span("dsl.parse"), res.timed(text, "parse"):
                        expr = parse_ring(text)
                    with tracer.span("rings.build"), res.timed(text, "build"):
                        ring = build_ring(expr)
                    with tracer.span("ideals.lattice"), res.timed(text, "lattice"):
                        lat = all_ideals(ring)
                    verdict = True
                    scanned = 0
                    for p in lat.proper:
                        scanned += 1
                        with (tracer.span("classify.one_absorbing"),
                              res.timed(text, ("one_absorbing", scanned))):
                            holds = is_weakly_one_absorbing_prime(p).holds
                        if not holds:
                            verdict = False
                            break
            except Exception:
                _report_failure(f"sweep {text}")
                res.failed += 1
                continue
            res.counts["rings.built"] += 1
            res.counts["rings.elements"] += ring.size
            res.counts["ideals.lattice_ideals"] += len(lat)
            res.counts["classify.ideals_scanned"] += scanned
            if verdict != expected:
                res.failed += 1
        return res


class VerifyCorpus:
    """`idealis verify --corpus references/verify_corpus.txt`, in a
    seeded order. That corpus is a fixed random half of the 260-ring
    default corpus (see make_references.py): a pass over all of it takes 5-10 s, too few repeats of each
    call in a run to keep the metrics steady on a shared host. Each
    corpus ring is built as build_corpus builds it,
    then its lattice, ideal product table, weakly 1-absorbing scans and
    all-w1ap decision are computed, each in its own span, before the
    checks run. The checks compute exactly these, so the work is
    unchanged and no check pays for what later checks reuse. One
    operation is one check instance (tested or vacuous); one latency
    sample is the preparation of one corpus ring."""

    name = "verify_corpus"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.lines = (REFERENCE_DIR / "verify_corpus.txt").read_text().splitlines()
        self.ref = load_reference("verify_corpus")

    def next_inputs(self):
        order = list(self.lines)
        self.rng.shuffle(order)
        return order

    def expected_table(self, lines) -> str:
        """The committed table, except that the zn_table boundary list
        follows the corpus order, as the check reports it."""
        position = {text: i for i, text in enumerate(lines)}
        ref_list = self.ref["zn_boundary"]
        ordered = sorted(ref_list, key=lambda n: position[f"Z{n}"])
        return self.ref["table"].replace(", ".join(map(str, ref_list)),
                                         ", ".join(map(str, ordered)))

    def run_pass(self, inputs, tracer) -> PassResult:
        """A failed check, a changed instance count or any other change
        alters the table, and then every operation of the pass fails."""
        res = PassResult()
        res.ops = self.ref["instances"]
        try:
            table = self._run(inputs, tracer, res)
        except Exception:
            _report_failure("verify")
            res.failed = res.ops
            return res
        if table != self.expected_table(inputs):
            res.failed = res.ops
        return res

    def _run(self, lines, tracer, res) -> str:
        rings = []
        for text in lines:
            res.op_keys.append(text)
            with tracer.span("ring", new_op=True):
                with tracer.span("dsl.parse"), res.timed(text, "parse"):
                    expr = parse_ring(text)
                with tracer.span("rings.build"), res.timed(text, "build"):
                    ring = build_ring(expr)
                with tracer.span("ideals.lattice"), res.timed(text, "lattice"):
                    lat = all_ideals(ring)
                with tracer.span("ideals.product_table"), res.timed(text, "product_table"):
                    lat.product_table
                for j, p in enumerate(lat.proper):
                    with (tracer.span("classify.one_absorbing"),
                          res.timed(text, ("one_absorbing", j))):
                        is_weakly_one_absorbing_prime(p)
                with tracer.span("theorems.w1ap_prepass"), res.timed(text, "prepass"):
                    all_proper_w1ap(ring)
            rings.append(ring)
            res.counts["rings.built"] += 1
            res.counts["rings.elements"] += ring.size
            res.counts["ideals.lattice_ideals"] += len(lat)
            res.counts["classify.ideals_scanned"] += len(lat) - 1
        checks = []
        for check_id in CHECK_ORDER:
            with (tracer.span(f"theorems.{check_id}", new_op=True),
                  res.timed(check_id, "check")):
                checks.append(CHECKS[check_id](rings))
        with tracer.span("cli.render_checks", new_op=True), res.timed("render", "render"):
            table = render_checks(checks)
        res.counts["theorems.instances"] += sum(c.tested + c.vacuous for c in checks)
        return table


WORKLOADS = {w.name: w for w in (ClassifyLarge, W1apSweep, VerifyCorpus)}
