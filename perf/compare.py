#!/usr/bin/env python3
"""Compare two sets of benchmark runs of the same benchmark code.

    python3 perf/compare.py A1.json [A2.json ...] -- B1.json [B2.json ...]
    python3 perf/compare.py --record SET.json RUN1.json [RUN2.json ...]

Each file is a ``perf/run.py --out`` report, or a baseline file under
``perf/results/`` (which holds several).  For every (workload, metric)
that ``BENCHMARK.json`` lists as end to end, it prints the median and
IQR of each set's run medians, the ratio B/A, and a verdict against the
metric's bound:

* ``worse`` / ``better`` - B's median is off A's by more than the bound;
* ``unchanged`` - within the bound;
* ``unresolved`` - a set's own IQR is wider than the bound, unless
  every run of one set beats every run of the other.

Simulated metrics (``sim_*``) and ``sim_digest`` are exact: any
difference is ``worse``.  Runs alternate A, B, A, B ... on one host.
The exit code is 1 when any verdict is ``worse``.

``--record`` stores a set of runs as one baseline file: the reports
plus, per (workload, metric), the set's ``n``, median and IQR.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load_runs(paths) -> list:
    """Every run report in *paths* (a baseline file holds several)."""
    runs = []
    for path in paths:
        with open(path) as handle:
            data = json.load(handle)
        runs += data["runs"] if "runs" in data else [data]
    return runs


def iqr(values) -> float:
    """Distance between the first and third quartiles."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(runs) -> dict:
    """{workload: {metric: {n, median, iqr}}} over the runs' medians."""
    values: dict = {}
    for run in runs:
        for name, report in run["workloads"].items():
            for metric, m in report["metrics"].items():
                values.setdefault(name, {}).setdefault(metric, []) \
                    .append(m["value"])
    return {name: {metric: {"n": len(v), "median": statistics.median(v),
                            "iqr": iqr(v)}
                   for metric, v in metrics.items()}
            for name, metrics in values.items()}


def verdict(a: list, b: list, better: str, bound: float) -> str:
    """Judge set *b* against set *a* for one metric."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(x, y):
        return sign * (x - y) < 0

    median_a, median_b = statistics.median(a), statistics.median(b)
    if any(iqr(s) > bound * abs(statistics.median(s)) for s in (a, b)):
        if all(beats(y, x) for x in a for y in b):
            return "better"
        if all(beats(x, y) for x in a for y in b):
            return "worse"
        return "unresolved"
    change = sign * (median_b - median_a) / abs(median_a)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def compare(runs_a: list, runs_b: list, spec: dict) -> list:
    """Rows of (workload, metric, A values, B values, verdict)."""

    def values(runs, name, metric):
        return [run["workloads"][name]["metrics"][metric]["value"]
                for run in runs if name in run["workloads"]]

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    rows = []
    for name in names:
        if not (values(runs_a, name, "run_s")
                and values(runs_b, name, "run_s")):
            continue
        metrics = runs_a[0]["workloads"][name]["metrics"]
        for metric in metrics:
            a, b = values(runs_a, name, metric), values(runs_b, name, metric)
            if metric in bounds:
                m = bounds[metric]
                rows.append((name, metric, a, b,
                             verdict(a, b, m["better"], m["bound"])))
            elif metric.startswith("sim_"):
                rows.append((name, metric, a, b,
                             "unchanged" if set(a) == set(b)
                             and len(set(a)) == 1 else "worse"))
        digests = {run["workloads"][name]["sim_digest"]
                   for run in runs_a + runs_b if name in run["workloads"]}
        rows.append((name, "sim_digest", [], [],
                     "unchanged" if len(digests) == 1 else "worse"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--record"] and len(argv) > 2:
        runs = load_runs(argv[2:])
        with open(argv[1], "w") as handle:
            json.dump({"summary": summarize(runs), "runs": runs}, handle,
                      indent=1)
        return 0
    split = argv.index("--") if "--" in argv else 0
    set_a, set_b = argv[:split], argv[split + 1:]
    if not set_a or not set_b:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    rows = compare(load_runs(set_a), load_runs(set_b), spec)
    print(f"{'workload':<8} {'metric':<16} {'A median':>12} {'A iqr':>10} "
          f"{'B median':>12} {'B iqr':>10} {'B/A':>7}  verdict")
    for name, metric, a, b, judged in rows:
        if not a:
            print(f"{name:<8} {metric:<16} {'':>57}  {judged}")
            continue
        median_a, median_b = statistics.median(a), statistics.median(b)
        ratio = median_b / median_a if median_a else float("nan")
        print(f"{name:<8} {metric:<16} {median_a:>12.6g} {iqr(a):>10.4g} "
              f"{median_b:>12.6g} {iqr(b):>10.4g} {ratio:>7.3f}  {judged}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
