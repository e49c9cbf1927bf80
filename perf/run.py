#!/usr/bin/env python3
"""Run the host-time benchmark.

    python3 perf/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace [0|1]] [--smoke] [--out FILE]

Without ``--workload`` it runs all five workloads (churn, storm, pager,
tables, check) one after another.  Each workload runs in its own child
interpreter (``PYTHONHASHSEED=0``, one thread), so at most one core is
loaded.  The child does one untimed warmup repeat, then timed repeats
on freshly booted kernels until ``--seconds`` have passed, checks every
output, and reports medians.  ``--trace`` adds a second set of repeats
with every layer boundary wrapped (``perf/trace.py``) and reports the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output checked out and no op failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
OUT = os.path.join(PERF, "out")

if __name__ == "__main__":
    # Run as a script, the interpreter put perf/ first on sys.path; the
    # repository root (for the ``perf`` package) and src/ (for
    # ``repro``) go there instead, so perf/trace.py never shadows the
    # standard library's ``trace``.
    sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]

from perf.compare import iqr  # noqa: E402
from perf.trace import LAYERS  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402
from repro.analysis.flow import FLOW_PASS_NAMES  # noqa: E402
from repro.obs.telemetry import STAGES  # noqa: E402

DEFAULT_SEED = 1987
DEFAULT_SECONDS = 12
#: Timed repeats per run, whatever the time budget.
MIN_REPEATS = 3
#: A child that runs longer is killed, so a run ends within 3 minutes.
CHILD_TIMEOUT_S = 170

#: End-to-end metrics: name -> unit.  Every workload reports all five.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "peak_rss_mb": "MiB",
}

#: The flow passes and the two lints, timed one by one on ``check``.
ANALYSIS_PASSES = (*FLOW_PASS_NAMES, "layering", "concurrency")
#: Per-layer metrics (from ``--trace``): name -> unit.
PER_LAYER = {
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
    "hw.tlb_hit_ratio": "ratio",
    "pmap.shootdowns_per_fault": "ratio",
    "pmap.ipis": "count",
    "core.chain_walks_per_fault": "ratio",
    "core.pageins": "count",
    "core.pageouts": "count",
    "core.object_cache_hit_ratio": "ratio",
    "pager.retries": "count",
    "pager.faults_parked": "count",
    "pager.readahead_pageins": "count",
    "sched.tasks_completed_during_pager_wait": "count",
    "obs.events_per_fault": "ratio",
    **{f"sim.stage_share.{stage}": "ratio" for stage in STAGES},
    **{f"analysis.{name}_share": "ratio" for name in ANALYSIS_PASSES},
    "analysis.modules_analyzed_cold": "count",
    "analysis.modules_analyzed_warm": "count",
}


# -- statistics -------------------------------------------------------

def percentile(values, q: float) -> float:
    """The *q*-th percentile, interpolating between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def entry(value: float, unit: str, n: int, spread: float = 0.0) -> dict:
    """One reported metric: its value, unit, sample count and IQR."""
    return {"value": value, "unit": unit, "n": n, "iqr": spread}


def median_entry(samples, unit: str) -> dict:
    return entry(statistics.median(samples), unit, len(samples),
                 iqr(samples))


# -- one workload, in this process -------------------------------------

class Repeat:
    """One timed repeat of a workload."""

    def __init__(self, workload, tracer=None) -> None:
        # The previous repeat's kernels are garbage (reference cycles);
        # collect them here, not at some random point of a timed run.
        gc.collect()
        start = time.perf_counter()
        state = workload.setup()
        ready = time.perf_counter()
        self.outcome = (tracer.root(workload.run, state) if tracer
                        else workload.run(state))
        done = time.perf_counter()
        self.setup_s = ready - start
        self.run_s = done - ready
        stats, self.sim, self.counters = workload.simulated(state)
        workload.verify(state, self.outcome)
        self.digest = hashlib.sha256(
            json.dumps(stats, sort_keys=True).encode()).hexdigest()

    def op_us(self, q: float) -> float:
        """The *q*-th percentile of this repeat's op latencies, in µs."""
        return percentile(self.outcome.latencies_ns, q) / 1000.0


def repeats(workload, seconds: float, smoke: bool, tracer=None) -> list:
    done = [Repeat(workload, tracer)]
    if smoke:
        return done
    deadline = time.perf_counter() + seconds
    while len(done) < MIN_REPEATS or time.perf_counter() < deadline:
        done.append(Repeat(workload, tracer))
    return done


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    """Run one workload in this process; returns its full report."""
    workload = WORKLOADS[name](seed, smoke)
    tracer = None
    traced: list = []
    timings: dict = {}
    try:
        if not smoke:
            Repeat(workload)            # warmup: imports, lazy set-up
        budget = seconds / 2 if trace else seconds
        plain = repeats(workload, budget, smoke)
        if trace:
            from perf.trace import Tracer
            tracer = Tracer().install()
            try:
                traced = repeats(workload, budget, smoke, tracer)
            finally:
                tracer.uninstall()
            timings = workload.pass_timings()
    finally:
        workload.close()
    return summarize(name, seed, smoke, plain, traced, tracer, timings)


def summarize(name, seed, smoke, plain, traced, tracer, timings) -> dict:
    runs = plain + traced
    outcomes = [r.outcome for r in runs]
    errors = [e for o in outcomes for e in o.errors][:10]
    digests = sorted({r.digest for r in runs})
    if len(digests) > 1:
        errors.append(f"simulation differs between repeats: {digests}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": median_entry([r.setup_s for r in plain], "s"),
        "run_s": median_entry([r.run_s for r in plain], "s"),
        "op_p50_us": median_entry([r.op_us(50) for r in plain], "us"),
        "op_p99_us": median_entry([r.op_us(99) for r in plain], "us"),
        "peak_rss_mb": entry(rss_mb, "MiB", 1),
    }
    if plain[0].outcome.faults:
        metrics["faults_per_s"] = median_entry(
            [r.outcome.faults / r.run_s for r in plain], "1/s")
    for key in plain[0].outcome.extra:
        metrics[key] = median_entry([r.outcome.extra[key] for r in plain],
                                    "s")
    sim = plain[0].sim
    for key, unit in (("fault_p99_us", "sim_us"), ("elapsed_ms", "sim_ms")):
        if key in sim:
            metrics[f"sim_{key}"] = entry(sim[key], unit, len(plain))
    report = {
        "workload": name, "seed": seed, "smoke": smoke,
        "repeats": len(plain), "traced_repeats": len(traced),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "errors": errors,
        "sim_digest": digests[0],
        "metrics": metrics,
    }
    if tracer is not None:
        report["per_layer"], report["layer_self_s"] = per_layer(
            plain, traced, tracer, timings)
        report["span_calls"] = tracer.calls
        errors += trace_problems(name, tracer)
    report["correct"] = not errors and report["failed"] == 0
    return report


def per_layer(plain, traced, tracer, timings):
    """The ``--trace`` metrics, and each layer's self seconds per traced
    repeat."""
    n = len(traced)
    total = sum(tracer.self_s.values())
    layers = {}
    for layer in LAYERS:
        layers[f"{layer}.self_share"] = tracer.self_s[layer] / total
        layers[f"{layer}.calls"] = tracer.layer_calls[layer] / n
    layers["trace.overhead_ratio"] = (
        statistics.median(r.run_s for r in traced)
        / statistics.median(r.run_s for r in plain))
    layers.update(traced[-1].counters)
    faults = traced[-1].outcome.faults
    emits = tracer.calls.get("EventBus.emit", 0) / n
    layers["obs.events_per_fault"] = emits / faults if faults else 0.0
    spent = sum(timings.values())
    for key in ANALYSIS_PASSES:
        layers[f"analysis.{key}_share"] = \
            timings[key] / spent if spent else 0.0
    metrics = {key: entry(layers.get(key, 0), unit, n)
               for key, unit in PER_LAYER.items()}
    self_s = {layer: tracer.self_s[layer] / n for layer in LAYERS}
    self_s["traced_run_s"] = sum(r.run_s for r in traced) / n
    return metrics, self_s


def trace_problems(name: str, tracer) -> list:
    """Write the kept spans as a Chrome trace and validate it."""
    from repro.obs import validate_chrome_trace

    trace = tracer.chrome_trace(f"perf {name}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{name}.json"), "w") as handle:
        json.dump(trace, handle)
    return [f"trace: {p}" for p in validate_chrome_trace(trace)[:5]]


# -- the parent: one child interpreter per workload ---------------------

def run_child(args, name: str):
    """Run *name* in a fresh interpreter; returns its report or None."""
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        child = subprocess.run(command, env=env, cwd=ROOT,
                               stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {CHILD_TIMEOUT_S}s",
              file=sys.stderr)
        return None
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"{name}: child exited {child.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def show(report: dict) -> None:
    name = report["workload"]
    print(f"== {name}: seed {report['seed']}, {report['repeats']} timed "
          f"repeats"
          + (f" + {report['traced_repeats']} traced" if
             report["traced_repeats"] else "")
          + f", {report['attempted']} ops, {report['failed']} failed ==")
    for table in ("metrics", "per_layer"):
        for key, m in report.get(table, {}).items():
            print(f"  {key:<42} {m['value']:>14.6g} {m['unit']:<7} "
                  f"n={m['n']:<7} iqr={m['iqr']:.4g}")
    for layer, seconds in report.get("layer_self_s", {}).items():
        print(f"  self_s {layer:<35} {seconds:>14.6g} s")
    print(f"  sim_digest {report['sim_digest']}")
    for error in report["errors"]:
        print(f"  FAILED: {error}")


def result_line(report: dict, trace: int) -> str:
    table = report["per_layer"] if trace else report["metrics"]
    wanted = PER_LAYER if trace else END_TO_END
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {key: {"value": table[key]["value"],
                          "unit": table[key]["unit"]} for key in wanted},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the Mach VM simulator.")
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed seconds per workload (default "
                             f"{DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes, one repeat, no warmup")
    parser.add_argument("--out", help="write the full reports as JSON")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        report = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke)
        print(json.dumps(report))
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = {}
    for name in names:
        report = run_child(args, name)
        if report is None:
            return 2
        reports[name] = report
        show(report)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "trace": args.trace,
                       "workloads": reports}, handle, indent=1)
    ok = all(r["correct"] for r in reports.values())
    if args.workload:
        print(result_line(reports[args.workload], args.trace))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
