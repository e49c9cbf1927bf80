"""Fault tail-latency telemetry: histograms, attribution, storm, gates.

The contracts of the telemetry PR:

* the log-bucket :class:`~repro.obs.metrics.Histogram` stays within its
  ~3% quantization bound of the exact order statistics while keeping a
  bounded bucket table no matter how many samples are recorded;
* :class:`~repro.obs.FaultTelemetry` turns the span stream of either
  fault lane into per-stage self-time attribution that never invents
  time (stage shares bounded by the measured totals);
* the worst-percentile faults export as *valid* Chrome trace_event
  JSON — including batch-lane faults with nested spans and streams
  where several events share one simulated tick;
* the storm load generator is deterministic for a fixed seed, so the
  quick storms' simulated p99s are pinned exactly, and the pager
  storm gates itself: ``repro storm --pager`` exits 1 when a cell's
  v2 p99 loses to its own serialized control;
* the instrumentation stays free when observability is off: the fault
  path allocates zero ``Event`` objects and its throughput is within a
  few percent of a bus stubbed down to nothing.
"""

from __future__ import annotations

import gc
import json
import random
import time

import pytest

import repro.bench.storm as storm_mod
import repro.obs.bus as bus_mod
from repro.bench.storm import (
    run_pager_storm_matrix,
    run_storm,
    run_storm_matrix,
)
from repro.bench.testing import BENCH_ARCHS, QUICK_ARCHS, make_spec
from repro.cli import main
from repro.core.constants import FaultType
from repro.core.kernel import MachKernel
from repro.obs import (
    FaultTelemetry,
    STAGES,
    format_latency_report,
    validate_chrome_trace,
)
from repro.obs.bus import EventBus
from repro.obs.metrics import Histogram
from tests.difftest.harness import (
    apply_ops,
    boot as difftest_boot,
    fingerprint,
    generate_ops,
)


def boot(arch: str = "generic", **kwargs) -> MachKernel:
    kwargs.setdefault("memory_frames", 64)
    spec = make_spec(name=f"telemetry-{arch}", pmap_name=arch, **kwargs)
    return MachKernel(spec)


# ---------------------------------------------------------------------
# The log-bucket histogram
# ---------------------------------------------------------------------

def _nearest_rank(samples: list, p: float) -> float:
    rank = max(0, min(len(samples) - 1,
                      int(round(p / 100.0 * (len(samples) - 1)))))
    return samples[rank]


class TestLogBucketHistogram:

    def test_percentiles_within_bucket_error_of_exact(self):
        rng = random.Random(0x41)
        hist = Histogram("lat", unit="us")
        samples = [rng.lognormvariate(4.0, 1.6) for _ in range(5000)]
        for value in samples:
            hist.record(value)
        samples.sort()
        for p in (10, 50, 90, 95, 99, 99.9):
            exact = _nearest_rank(samples, p)
            approx = hist.percentile(p)
            # 2/2**6 relative quantization plus the fixed-point grain.
            assert abs(approx - exact) <= max(exact * 0.032, 0.13), \
                f"p{p}: {approx} vs exact {exact}"

    def test_bucket_table_stays_bounded(self):
        rng = random.Random(7)
        hist = Histogram("wide")
        for _ in range(200_000):
            hist.record(rng.uniform(0, 1e9))
        assert hist.count == 200_000
        # 64 sub-buckets x ~40 powers of two, not 200k samples.
        assert len(hist._buckets) < 4000

    def test_min_max_mean_total_are_exact(self):
        hist = Histogram("exact")
        values = [3.0, 1000.5, 0.25, 77.0]
        for value in values:
            hist.record(value)
        assert hist.min == 0.25
        assert hist.max == 1000.5
        assert hist.total == pytest.approx(sum(values))
        assert hist.mean == pytest.approx(sum(values) / 4)

    def test_extreme_ranks_report_exact_extremes(self):
        hist = Histogram("ranks")
        for value in (5.0, 9.0, 123456.0):
            hist.record(value)
        assert hist.percentile(0) == 5.0
        assert hist.percentile(100) == 123456.0

    def test_percentiles_monotonic(self):
        rng = random.Random(11)
        hist = Histogram("mono")
        for _ in range(1000):
            hist.record(rng.expovariate(1 / 500.0))
        previous = hist.percentile(0)
        for p in range(1, 101):
            current = hist.percentile(p)
            assert current >= previous
            previous = current

    def test_merge_equals_single_recording(self):
        rng = random.Random(23)
        values = [rng.uniform(0, 5000) for _ in range(2000)]
        combined = Histogram("all")
        first, second = Histogram("a"), Histogram("b")
        for i, value in enumerate(values):
            combined.record(value)
            (first if i % 2 else second).record(value)
        first.merge(second)
        assert first.count == combined.count
        assert first.total == pytest.approx(combined.total)
        assert first.min == combined.min
        assert first.max == combined.max
        for p in (50, 95, 99):
            assert first.percentile(p) == combined.percentile(p)

    def test_empty_histogram_edges(self):
        hist = Histogram("empty", unit="us")
        assert hist.count == 0
        assert hist.percentile(50) == 0.0
        assert hist.mean == 0.0
        digest = hist.to_dict()
        assert digest["count"] == 0
        assert "n=0" in hist.summary()

    def test_summary_format_is_stable(self):
        hist = Histogram("fault_latency_us", unit="us")
        hist.record(10.0)
        summary = hist.summary()
        assert summary.startswith("fault_latency_us: n=1 min=10.0us ")
        for token in ("p50=", "p95=", "max=", "mean="):
            assert token in summary

    def test_to_dict_reports_the_bench_digest_keys(self):
        hist = Histogram("digest")
        hist.record(4.0)
        assert set(hist.to_dict()) == {"count", "total", "mean", "min",
                                       "max", "p50", "p95", "p99",
                                       "p999"}


# ---------------------------------------------------------------------
# FaultTelemetry attribution
# ---------------------------------------------------------------------

def _cow_workload(kernel):
    """Writes (zero fill), a fork, child writes (copy up), then a
    forget/refault pass and one batch resolution."""
    page = kernel.page_size
    task = kernel.task_create(name="tele")
    addr = task.vm_allocate(6 * page)
    for off in range(0, 6 * page, page):
        task.write(addr + off, b"warm")
    child = task.fork(name="tele-child")
    for off in range(0, 6 * page, page):
        child.write(addr + off, b"C")
    for off in range(0, 6 * page, page):
        task.pmap.forget(addr + off)
        task.read(addr + off, 1)
    for off in range(0, 6 * page, page):
        task.pmap.forget(addr + off)
    kernel.fault_batch(task, addr, 6, FaultType.READ)
    return task


class TestFaultTelemetryAttribution:

    def test_fault_count_matches_kernel_stats(self):
        kernel = boot()
        before = kernel.stats.faults
        with FaultTelemetry().attach(kernel) as telemetry:
            _cow_workload(kernel)
        report = telemetry.report()
        assert report["faults"] == kernel.stats.faults - before > 0

    def test_zero_fill_and_copy_up_stages_attributed(self):
        kernel = boot()
        with FaultTelemetry().attach(kernel) as telemetry:
            _cow_workload(kernel)
        stages = telemetry.report()["stages"]
        assert stages["zero_fill"]["count"] >= 6
        assert stages["copy_up"]["count"] >= 6
        assert stages["map_lookup"]["count"] > 0
        assert stages["pmap_enter"]["count"] > 0

    def test_stage_shares_bounded_by_total(self):
        report, _ = run_storm(arch="generic", tasks=3, pages=4,
                              rounds=2)
        shares = [d["share"] for d in report["stages"].values()]
        assert all(0.0 <= share <= 1.0 for share in shares)
        # Self-time attribution never invents time: everything the
        # stages claim (plus the derived remainder) fits in the
        # measured fault total, modulo the folded-in trap probe.
        assert sum(shares) <= 1.05

    def test_report_orders_percentiles(self):
        report, _ = run_storm(arch="generic", tasks=3, pages=4,
                              rounds=2)
        assert report["faults"] > 0
        assert (report["p50_us"] <= report["p95_us"]
                <= report["p99_us"] <= report["p999_us"]
                <= report["max_us"])

    def test_pager_wait_dominates_under_paging_pressure(self):
        report, _ = run_storm(arch="generic", tasks=4, pages=4,
                              rounds=2)
        stages = report["stages"]
        assert "pager_wait" in stages
        # The tail of an overcommitted storm is pager RPC + the
        # synchronous reclaim stall, not bookkeeping.
        heavy = stages["pager_wait"]["share"] \
            + stages.get("reclaim", {}).get("share", 0.0)
        assert heavy > 0.5

    def test_worst_faults_sorted_and_bounded(self):
        _, telemetry = run_storm(arch="generic", tasks=3, pages=4,
                                 rounds=2, keep_worst=5)
        worst = telemetry.worst_faults()
        assert 0 < len(worst) <= 5
        latencies = [info["latency_us"] for info in worst]
        assert latencies == sorted(latencies, reverse=True)
        assert latencies[0] == telemetry.report()["max_us"]
        for info in worst:
            assert {"latency_us", "task", "vaddr", "track", "stage_us",
                    "events", "truncated"} <= set(info)

    def test_detach_stops_observing(self):
        kernel = boot()
        telemetry = FaultTelemetry().attach(kernel)
        telemetry.detach()
        _cow_workload(kernel)
        assert telemetry.report()["faults"] == 0

    def test_format_latency_report_renders_stage_table(self):
        report, _ = run_storm(arch="generic", tasks=3, pages=4,
                              rounds=1)
        text = format_latency_report(report)
        assert "p999=" in text
        assert "share" in text
        for stage in report["stages"]:
            assert stage in text


# ---------------------------------------------------------------------
# Worst-fault Chrome-trace export
# ---------------------------------------------------------------------

class TestWorstChromeTrace:

    def test_batch_lane_trace_is_valid_and_nested(self):
        kernel = boot()
        page = kernel.page_size
        with FaultTelemetry().attach(kernel) as telemetry:
            task = kernel.task_create(name="batch")
            addr = task.vm_allocate(8 * page)
            for off in range(0, 8 * page, page):
                task.write(addr + off, b"w")
            for off in range(0, 8 * page, page):
                task.pmap.forget(addr + off)
            kernel.fault_batch(task, addr, 8, FaultType.READ)
        trace = telemetry.worst_chrome_trace()
        assert validate_chrome_trace(trace) == []
        names = {entry.get("name") for entry in trace}
        assert "vm/fault" in names
        assert names & {f"stage/{s}" for s in STAGES}, \
            "no stage spans in the exported trace"

    def test_same_tick_events_export_valid(self):
        # A standalone bus has the zero clock: every event lands on the
        # same simulated tick, the degenerate case for span pairing.
        bus = EventBus()
        with FaultTelemetry().attach(bus) as telemetry:
            with bus.span("vm", "fault", task="t0", vaddr=0):
                with bus.span("stage", "zero_fill"):
                    pass
            with bus.span("vm", "fault", task="t0", vaddr=4096):
                pass
        report = telemetry.report()
        assert report["faults"] == 2
        trace = telemetry.worst_chrome_trace()
        assert validate_chrome_trace(trace) == []
        timestamps = {entry["ts"] for entry in trace
                      if entry.get("ph") in ("B", "E")}
        assert timestamps == {0.0}

    def test_empty_telemetry_exports_valid_empty_trace(self):
        telemetry = FaultTelemetry()
        trace = telemetry.worst_chrome_trace()
        assert validate_chrome_trace(trace) == []
        assert not [entry for entry in trace
                    if entry.get("ph") in ("B", "E")]

    def test_event_cap_marks_truncation(self):
        bus = EventBus()
        telemetry = FaultTelemetry().attach(bus)
        with bus.span("vm", "fault", task="t0"):
            for _ in range(bus_mod.FAULT_EVENT_CAP):
                bus.emit("stage", "zero_fill", phase="i")
        telemetry.detach()
        worst = telemetry.worst_faults()
        assert worst and worst[0]["truncated"]


# ---------------------------------------------------------------------
# Overhead guards: observability off must stay free
# ---------------------------------------------------------------------

class TestOverheadGuard:

    def test_unsubscribed_fault_path_allocates_zero_events(self,
                                                           monkeypatch):
        created = []

        class CountingEvent(bus_mod.Event):
            def __init__(self, *args, **kwargs):
                created.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bus_mod, "Event", CountingEvent)
        kernel = boot()
        _cow_workload(kernel)
        kernel.pageout_daemon.run()
        assert created == [], \
            "fault path allocated events with no subscriber attached"

    def test_disabled_throughput_within_5pct_of_uninstrumented(self):
        # "Uninstrumented" proxy: the bus API stubbed down to constant
        # attributes — what the code would cost if every emit site were
        # deleted, minus one attribute load per site.  Interleaved
        # min-of-N so machine noise hits both variants alike.
        pages, rounds, trials = 32, 4, 9

        def setup():
            kernel = boot(memory_frames=pages * 4)
            task = kernel.task_create(name="ovh")
            page = kernel.page_size
            addr = task.vm_allocate(pages * page)
            for off in range(0, pages * page, page):
                task.write(addr + off, b"w")
            return kernel, task, addr

        def measure(kernel, task, addr):
            page = kernel.page_size
            start = time.perf_counter()
            for _ in range(rounds):
                for off in range(0, pages * page, page):
                    task.pmap.forget(addr + off)
                for off in range(0, pages * page, page):
                    task.read(addr + off, 1)
            return time.perf_counter() - start

        saved = {name: EventBus.__dict__[name]
                 for name in ("span", "emit")}
        disabled_kernel = setup()
        stubbed_kernel = setup()

        def attempt():
            disabled, stubbed = [], []
            gc_was_enabled = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                for _ in range(trials):
                    disabled.append(measure(*disabled_kernel))
                    EventBus.span = \
                        lambda self, *a, **k: bus_mod._NULL_SPAN
                    EventBus.emit = lambda self, *a, **k: None
                    try:
                        stubbed.append(measure(*stubbed_kernel))
                    finally:
                        for name, attr in saved.items():
                            setattr(EventBus, name, attr)
            finally:
                if gc_was_enabled:
                    gc.enable()
                for name, attr in saved.items():
                    setattr(EventBus, name, attr)
            return min(disabled), min(stubbed)

        # A wall-clock bound, so give noise a few chances to clear: the
        # true overhead is what *survives* repeated measurement.
        ratios = []
        for _ in range(3):
            best_disabled, best_stubbed = attempt()
            ratios.append(best_disabled / best_stubbed)
            if best_disabled <= best_stubbed * 1.05:
                return
        pytest.fail(
            f"obs-disabled fault path consistently > 5% over the "
            f"uninstrumented proxy: ratios {[f'{r:.3f}' for r in ratios]}")


# ---------------------------------------------------------------------
# The storm load generator
# ---------------------------------------------------------------------

class TestStorm:

    def test_report_is_deterministic_for_a_seed(self):
        first, _ = run_storm(arch="generic", tasks=3, pages=4,
                             rounds=2, seed=0x5EED)
        second, _ = run_storm(arch="generic", tasks=3, pages=4,
                              rounds=2, seed=0x5EED)
        assert first == second

    def test_matrix_quick_covers_the_quick_archs(self):
        payload, telemetries = run_storm_matrix(
            quick=True, tasks=2, pages=3, rounds=1)
        assert set(payload["archs"]) == set(QUICK_ARCHS)
        assert set(telemetries) == set(QUICK_ARCHS)
        for report in payload["archs"].values():
            assert report["faults"] > 0
            assert report["stages"]
        assert json.loads(json.dumps(payload)) == payload

    def test_cli_storm_json_and_trace(self, tmp_path, capsys):
        out = tmp_path / "storm.json"
        trace_out = tmp_path / "trace.json"
        assert main(["storm", "--arch", "generic", "--tasks", "2",
                     "--pages", "3", "--rounds", "1", "--json",
                     "--out", str(out),
                     "--trace-out", str(trace_out)]) == 0
        payload = json.loads(out.read_text())
        report = payload["archs"]["generic"]
        for key in ("p50_us", "p99_us", "p999_us", "stages"):
            assert key in report
        trace = json.loads(trace_out.read_text())
        assert validate_chrome_trace(trace) == []

    def test_quick_storm_p99s_are_pinned(self):
        payload, _ = run_storm_matrix(quick=True)
        assert {arch: cell["p99_us"]
                for arch, cell in payload["archs"].items()} == {
            "generic": 92554.0, "vax": 92818.0, "sun3": 92834.0}

    def test_quick_pager_storm_p99s_are_pinned(self):
        payload, _ = run_pager_storm_matrix(quick=True)
        assert {arch: (cell["p99_us"], cell["serialized"]["p99_us"])
                for arch, cell in payload["archs"].items()} == {
            "generic": (722.0, 20242.0),
            "vax": (986.0, 20256.0),
            "sun3": (1482.0, 20482.0)}

    def test_pager_storm_counts_each_failed_read_once(self, monkeypatch):
        """Every pager operation stalls, so retry budgets run out and
        reads raise: the report's ``fault_errors`` is the telemetry's
        count of failed faults, one per read that raised."""
        from repro.sched.scheduler import ThreadContext

        raised = []
        read = ThreadContext.read

        def counting_read(self, address, size):
            try:
                return read(self, address, size)
            except Exception:
                raised.append(address)
                raise

        monkeypatch.setattr(ThreadContext, "read", counting_read)
        monkeypatch.setattr(storm_mod, "PAGER_STALL_RATE", 1.0)
        report, _ = storm_mod.run_pager_storm("generic", tasks=2,
                                              pages=3, rounds=1)
        assert raised
        assert report["fault_errors"] == len(raised)

    def test_cli_storm_text_table(self, capsys):
        assert main(["storm", "--arch", "generic", "--tasks", "2",
                     "--pages", "3", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "faults:" in out
        assert "share" in out


# ---------------------------------------------------------------------
# Differential gate with telemetry attached
# ---------------------------------------------------------------------

class TestDifftestWithTelemetry:

    @pytest.mark.parametrize("arch", sorted(BENCH_ARCHS))
    def test_lanes_agree_with_telemetry_attached(self, arch):
        """Attaching the observer must not perturb either fault lane
        (same fingerprints as each other), and both lanes must count
        the same faults."""
        ops = generate_ops(0x7E1E, nops=60)
        results = {}
        for mode, reference in (("fast", False), ("reference", True)):
            kernel = difftest_boot(arch, reference=reference)
            with FaultTelemetry().attach(kernel) as telemetry:
                tasks, errors = apply_ops(kernel, ops)
            results[mode] = (fingerprint(kernel, tasks), errors,
                             telemetry.report()["faults"])
        fast, ref = results["fast"], results["reference"]
        assert fast[1] == ref[1]
        assert fast[0] == ref[0]
        assert fast[2] == ref[2] > 0


# ---------------------------------------------------------------------
# The pager storm's self-contained SLO gate
# ---------------------------------------------------------------------

class TestPagerStormGate:

    @staticmethod
    def _forced(monkeypatch, ratios):
        """Make ``repro storm --pager`` see one cell per arch with the
        given ``p99_vs_serialized`` ratios."""
        def matrix(**_kwargs):
            archs = {
                arch: {"p99_us": 100.0, "p99_vs_serialized": ratio,
                       "elapsed_vs_serialized": ratio,
                       "serialized": {"p99_us": 100.0},
                       "tasks_completed_during_pager_wait": 0,
                       "readahead_pageins": 0}
                for arch, ratio in ratios.items()}
            payload = {"tasks": 1, "pages": 1, "rounds": 1,
                       "stall_rate": 0.05, "archs": archs}
            return payload, {}
        monkeypatch.setattr(storm_mod, "run_pager_storm_matrix", matrix)

    def test_quick_pager_storm_passes(self, capsys):
        assert main(["storm", "--pager", "--quick"]) == 0
        assert "SLO FAIL" not in capsys.readouterr().err

    def test_passes_when_every_cell_beats_its_control(
            self, monkeypatch, capsys):
        self._forced(monkeypatch, {"generic": 0.5, "vax": 1.0})
        assert main(["storm", "--pager", "--json"]) == 0

    @pytest.mark.parametrize("json_mode", [False, True],
                             ids=["text", "json"])
    def test_fails_when_a_cell_loses_to_its_control(
            self, monkeypatch, capsys, json_mode):
        self._forced(monkeypatch, {"generic": 0.5, "vax": 1.25})
        argv = ["storm", "--pager"] + (["--json"] if json_mode else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "vax" in err and "1.250x" in err
        assert "generic" not in err

    @pytest.mark.parametrize("json_mode", [False, True],
                             ids=["text", "json"])
    def test_fails_when_a_cell_has_no_ratio(self, monkeypatch, capsys,
                                            json_mode):
        self._forced(monkeypatch, {"sun3": None})
        argv = ["storm", "--pager"] + (["--json"] if json_mode else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "sun3: no p99_vs_serialized ratio" in captured.err
        if not json_mode:
            assert "(n/a)" in captured.out
