"""Benchmark harness for idealis.

    python3 perfbench/run.py --workload classify_large --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

One run measures one workload (see workloads.py) in this process, with
one thread, in passes until about --seconds seconds after it started. With --trace 0 it
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced passes over the same inputs and reports the per-layer metrics
from the traced ones. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A fuller record,
with the run environment and sample counts, goes to
perfbench/results/<workload>-seed<seed>-trace<t>.json; a traced run also
writes its spans next to it as JSON lines.

--workload all runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import os
import time

STARTED = time.perf_counter()   # a run's --seconds count from here

# all load comes from this one thread; native libraries must not add more
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("classify_large", "w1ap_sweep", "verify_corpus")

MIN_PASSES = 3              # each segment's time is its best of at least this many
MIN_LATENCY_SAMPLES = 100   # so that 10 samples lie beyond the 90th percentile

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "ops_per_s": "1/s",
    "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB",
}
COUNT_NAMES = ("rings.built", "rings.elements", "ideals.lattice_ideals",
               "classify.ideals_scanned", "theorems.instances")
HARNESS_SPANS = ("ring", "op")     # the harness's own grouping spans


def import_engine():
    """Import idealis from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import idealis
    except ImportError as err:
        raise SystemExit(f"benchmark: cannot import idealis from {SRC}: {err}")
    if not Path(idealis.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: idealis was imported from {idealis.__file__}, "
                         f"not from {SRC}")
    return idealis


def layer_spans() -> list[str]:
    from idealis import CHECK_ORDER
    return (["dsl.parse", "rings.build", "ideals.lattice", "ideals.covers",
             "ideals.product_table", "classify.prime", "classify.two_absorbing",
             "classify.one_absorbing", "classify.classify",
             "theorems.w1ap_prepass"]
            + [f"theorems.{c}" for c in CHECK_ORDER]
            + ["cli.report", "cli.render_checks"])


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(idealis, args, passes: int) -> dict:
    import numpy
    src = hashlib.sha256()
    for path in sorted((SRC / "idealis").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "idealis": idealis.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": 1,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "source_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
    }


def probe_setup(args) -> float:
    """Wall time of a fresh process that imports idealis, builds this
    workload's inputs and loads its references, then exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def percentile_90(samples: list[float]) -> float:
    if len(samples) < MIN_LATENCY_SAMPLES:
        raise ValueError(f"{len(samples)} latency samples; a 90th percentile "
                         f"needs {MIN_LATENCY_SAMPLES}")
    return statistics.quantiles(samples, n=10)[-1]


def best_of(passes, attr: str) -> dict:
    """Each segment's least time over the passes. Every pass repeats the
    same segments on fresh rings, so the least is the segment's cost with
    the least interference from the rest of the machine."""
    best: dict = {}
    for p in passes:
        for key, value in getattr(p, attr).items():
            best[key] = min(value, best.get(key, value))
    return best


def run_pass(wl, inputs, tracer):
    """A ring and its lattice refer to each other, so the rings of earlier
    passes are freed only by the cycle collector. Collecting them before
    every pass starts each pass from the heap of a fresh process and makes
    peak RSS one pass's, whatever the number of passes."""
    gc.collect()
    return wl.run_pass(inputs, tracer)


def run_untraced(wl, deadline: float, no_tracer, between=lambda: None):
    """Passes until the next one would end after the deadline, at least
    MIN_PASSES of them. between() runs before the first pass and after
    every pass, untimed."""
    passes, elapsed_each = [], []
    between()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(wl, wl.next_inputs(), no_tracer))
        between()
        elapsed_each.append(time.perf_counter() - t0)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() + statistics.median(elapsed_each) > deadline):
            break
    wall, cpu = best_of(passes, "wall"), best_of(passes, "cpu")
    op_ms = defaultdict(float)
    for (group, _), t in wall.items():
        op_ms[group] += t * 1e3
    latencies = [op_ms[k] for k in passes[0].op_keys]
    metrics = {
        "wall_s": sum(wall.values()),
        "cpu_s": sum(cpu.values()),
        "ops_per_s": passes[0].ops / sum(wall.values()),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": percentile_90(latencies),
    }
    samples = {"wall_s": len(passes), "cpu_s": len(passes),
               "ops_per_s": len(passes), "op_p50_ms": len(latencies),
               "op_p90_ms": len(latencies)}
    return passes, {"metrics": metrics, "samples": samples}


def run_traced(wl, deadline: float, tracer, no_tracer) -> tuple[list, dict]:
    """Pairs of passes over the same inputs, one untraced and one traced,
    alternating which goes first. Both must count the same work."""
    untraced, traced, elapsed_each = [], [], []
    mismatched_counts = 0
    while True:
        t0 = time.perf_counter()
        inputs = wl.next_inputs()
        if len(traced) % 2 == 0:
            u = run_pass(wl, inputs, no_tracer)
            t = run_pass(wl, inputs, tracer)
        else:
            t = run_pass(wl, inputs, tracer)
            u = run_pass(wl, inputs, no_tracer)
        untraced.append(u)
        traced.append(t)
        mismatched_counts += u.counts != t.counts
        elapsed_each.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(elapsed_each) > deadline:
            break
    n = len(traced)
    self_times = tracer.self_times()
    metrics = {f"{name}_s": self_times.get(name, 0.0) / n for name in layer_spans()}
    for name in COUNT_NAMES:
        metrics[name] = sum(p.counts[name] for p in traced) / n
    metrics["harness.self_s"] = sum(self_times.get(s, 0.0) for s in HARNESS_SPANS) / n
    # means, like the per-layer times, so that layer shares add up
    traced_wall = sum(sum(p.wall.values()) for p in traced) / n
    untraced_wall = sum(sum(p.wall.values()) for p in untraced) / n
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    info = {"metrics": metrics, "samples": {"traced_passes": n},
            "count_mismatches": mismatched_counts}
    return untraced + traced, info


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def run_one(args) -> int:
    idealis = import_engine()
    from spans import NoTracer, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0
    probe = getattr(wl, "probe_known_failure", None)
    known = probe() if probe else None

    deadline = STARTED + args.seconds
    setup = []
    if args.trace:
        tracer = Tracer()
        passes, info = run_traced(wl, deadline, tracer, NoTracer())
        known_count = int(known is not None and known["status"] == "fails")
        info["metrics"]["cli.known_failures"] = known_count
    else:
        passes, info = run_untraced(wl, deadline, NoTracer(),
                                    between=lambda: setup.append(probe_setup(args)))
        info["metrics"]["setup_s"] = statistics.median(setup)
        info["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        info["samples"]["setup_s"] = len(setup)

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    correct = (failed == 0 and info.get("count_mismatches", 0) == 0
               and (known is None or known["status"] != "wrong"))
    metrics = {k: {"value": v, "unit": unit_of(k)}
               for k, v in sorted(info["metrics"].items())}

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": environment(idealis, args, len(passes)),
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_ops_frac": {"value": failed / attempted, "base": attempted},
        "known_failure": known,
        "metrics": {k: dict(v, samples=info["samples"].get(k))
                    for k, v in metrics.items()},
        "count_mismatches": info.get("count_mismatches"),
        "setup_samples_s": setup,
        "passes": [{"wall_s": sum(p.wall.values()), "cpu_s": sum(p.cpu.values()),
                    "ops": p.ops, "failed": p.failed, "counts": dict(p.counts)}
                   for p in passes],
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if args.trace:
        tracer.write(f"{stem}.spans.jsonl")

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes, "
          f"failed {failed}/{attempted}")
    if known is not None:
        print(f"known failure {known['ring']}: {known['status']}")
    for name, m in metrics.items():
        n = info["samples"].get(name)
        print(f"  {name:38} {m['value']:>16.6f} {m['unit']:6}"
              + (f" (n={n})" if n else ""))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; one table of every metric."""
    rows, ok = {}, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        rows[name] = json.loads(out.strip().splitlines()[-1])
        ok = ok and rows[name]["correct"]
    names = sorted({m for r in rows.values() for m in r["metrics"]})
    print(f"{'metric':38} {'unit':6}" + "".join(f" {w:>16}" for w in rows))
    for m in names:
        unit = next(r["metrics"][m]["unit"] for r in rows.values() if m in r["metrics"])
        print(f"{m:38} {unit:6}" + "".join(
            f" {r['metrics'][m]['value']:>16.6f}" if m in r["metrics"] else f" {'-':>16}"
            for r in rows.values()))
    print(f"{'failed/attempted':45}" + "".join(
        f" {str(r['failed']) + '/' + str(r['attempted']):>16}" for r in rows.values()))
    print(f"{'correct':45}" + "".join(f" {str(r['correct']):>16}" for r in rows.values()))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
