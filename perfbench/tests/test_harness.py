"""Tests of the benchmark itself: injected wrong answers must count as
failed operations, and tracing must not change the work counted.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import idealis.cli  # noqa: E402
import pytest  # noqa: E402
from idealis import Verdict  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import NoTracer, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ClassifyLarge,
    VerifyCorpus,
    W1apSweep,
    render_classify,
    sweep_universe,
)

SMALL_POOL = ("Z720/(120)", "LocalAlg(5)")
SMALL_SIZES = range(100, 110)


def one_pass(wl, tracer=None):
    return wl.run_pass(wl.next_inputs(), tracer or NoTracer())


def real_output(text):
    ring = idealis.build_ring_text(text)
    proper = idealis.all_ideals(ring).proper
    return proper, render_classify(ring, proper)


def tamper(output, change):
    doc = json.loads(output)
    change(doc["ideals"])
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_clean_passes_have_no_failures():
    assert one_pass(ClassifyLarge(1, SMALL_POOL)).failed == 0
    assert one_pass(W1apSweep(1, SMALL_SIZES)).failed == 0


def test_wrong_verdict_counts_as_failed_operation():
    wl = ClassifyLarge(1, SMALL_POOL)
    proper, output = real_output("Z720/(120)")

    def flip(entries):
        entries[3]["verdicts"]["prime"] = not entries[3]["verdicts"]["prime"]

    assert wl.count_wrong("Z720/(120)", proper, output) == 0
    assert wl.count_wrong("Z720/(120)", proper, tamper(output, flip)) == 1


def test_wrong_witness_counts_as_failed_operation():
    wl = ClassifyLarge(1, SMALL_POOL)
    proper, output = real_output("Z720/(120)")
    entries = json.loads(output)["ideals"]
    j, key = next((j, k) for j, e in enumerate(entries)
                  for k, w in e["witnesses"].items() if w is not None)

    def move(entries):
        entries[j]["witnesses"][key] = [0] * len(entries[j]["witnesses"][key])

    assert wl.count_wrong("Z720/(120)", proper, tamper(output, move)) == 1


def test_wrong_verdict_from_engine_raises_failed_ops(monkeypatch):
    real = idealis.cli.classify

    def lying(p):
        rep = real(p)
        if not p.is_zero:
            return rep
        verdicts = dict(rep.verdicts, weaklyPrime=not rep.verdicts["weaklyPrime"])
        return dataclasses.replace(rep, verdicts=verdicts)

    monkeypatch.setattr(idealis.cli, "classify", lying)
    res = one_pass(ClassifyLarge(1, SMALL_POOL))
    assert res.failed == 2                       # the zero ideal of each ring
    assert res.ops == 15 + 8


def test_wrong_sweep_verdict_raises_failed_ops(monkeypatch):
    monkeypatch.setattr(workloads, "is_weakly_one_absorbing_prime",
                        lambda p: Verdict(True, None))
    res = one_pass(W1apSweep(1, SMALL_SIZES))
    expected_false = [t for t, v in sweep_universe(SMALL_SIZES) if not v]
    assert res.failed == len(expected_false) > 0
    assert res.ops == len(sweep_universe(SMALL_SIZES))


def test_changed_verify_table_fails_every_operation(monkeypatch):
    real = workloads.render_checks
    monkeypatch.setattr(workloads, "render_checks",
                        lambda checks: real(checks).replace("pass", "fail", 1))
    res = one_pass(VerifyCorpus(1))
    assert res.failed == res.ops == VerifyCorpus(1).ref["instances"]


def test_sweep_reference_rules():
    # structure theorems, decided by the benchmark's own factorization
    verdicts = dict(sweep_universe([101, 121, 125, 143, 105, 12]))
    assert verdicts["Z101"] and verdicts["Z121"] and verdicts["Z125"]
    assert verdicts["Z143"] and not verdicts["Z105"] and not verdicts["Z12"]
    assert verdicts["Z11 x Z11"] and not verdicts["Z5 x Z25"]
    assert not verdicts["Z2 x Z6"] and not verdicts["Z3 x Z4"]


def test_sweep_universe_is_the_search_universe():
    for n in SMALL_SIZES:
        ours = [t for t, _ in sweep_universe([n])]
        assert ours == [r.text for r in idealis.cli._search_rings(n, None)]


@pytest.mark.parametrize("make", [
    lambda: ClassifyLarge(5, SMALL_POOL),
    lambda: W1apSweep(5, SMALL_SIZES),
    lambda: VerifyCorpus(5),
])
def test_traced_and_untraced_passes_count_the_same_work(make):
    wl = make()
    inputs = wl.next_inputs()
    tracer = Tracer()
    untraced = wl.run_pass(inputs, NoTracer())
    traced = wl.run_pass(inputs, tracer)
    assert untraced.failed == traced.failed == 0
    assert untraced.counts == traced.counts
    assert untraced.counts["rings.built"] > 0
    assert untraced.counts["ideals.lattice_ideals"] > 0
    assert untraced.counts["classify.ideals_scanned"] > 0
    assert tracer.spans
    if isinstance(wl, VerifyCorpus):
        assert untraced.counts["theorems.instances"] == wl.ref["instances"]


def test_runs_report_the_metrics_benchmark_json_names():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wl = W1apSweep(1, range(100, 140))          # over 100 operations per pass
    passes, untraced = run.run_untraced(wl, 0, NoTracer())
    assert len(passes) == run.MIN_PASSES
    assert set(untraced["metrics"]) | {"setup_s", "peak_rss_mb"} == {
        m["name"] for m in spec["end_to_end"]}
    assert all(v > 0 for v in untraced["metrics"].values())
    _, traced = run.run_traced(wl, 0, Tracer(), NoTracer())
    assert traced["count_mismatches"] == 0
    assert set(traced["metrics"]) | {"cli.known_failures"} == {
        m["name"] for m in spec["per_layer"]}
    assert traced["metrics"]["classify.two_absorbing_s"] == 0


def test_verify_reference_follows_corpus_order():
    wl = VerifyCorpus(7)
    order = wl.next_inputs()
    assert order != wl.lines
    assert wl.expected_table(wl.lines) == wl.ref["table"]
    assert wl.expected_table(order) != wl.ref["table"]


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    with tracer.span("outer", new_op=True):
        with tracer.span("inner"):
            sum(range(20000))
        sum(range(20000))
    (inner,) = [s for s in tracer.spans if s[0] == "inner"]
    (outer,) = [s for s in tracer.spans if s[0] == "outer"]
    assert inner[4] == outer[3] and inner[5] == outer[5] == 1
    selfs = tracer.self_times()
    assert selfs["inner"] == pytest.approx(inner[2] - inner[1])
    assert selfs["outer"] == pytest.approx((outer[2] - outer[1]) - selfs["inner"])
