"""Self-tests of the benchmark: ``python -m pytest perf -q``.

They run every workload once at ``--smoke`` shapes (traced and
untraced) and check what the benchmark promises: every metric is
reported, every wrapped boundary fires, tracing leaves the simulation
unchanged, seeds fix the inputs, a corrupted read is caught, and the
command-line contract holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perf import compare, run, trace
from perf.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Wrapped boundaries each workload must cross, by span name.
EXPECTED_SPANS = {
    "churn": (
        "AddressMap.lookup", "MMU.translate", "MachKernel.fault_batch",
        "MachKernel.translate_for", "Pmap.enter", "Pmap.enter_batch",
        "Pmap.forget", "Pmap.hw_lookup", "Pmap.remove",
        "PmapSystem.shootdown", "Sun3VacPmap.enter", "Sun3VacPmap.remove",
        "TLB.fill", "TLB.invalidate_range", "Task.read",
    ),
    "storm": (
        "DefaultPager.data_request", "DefaultPager.data_write",
        "EventBus.emit", "MachKernel.request_object_data",
        "PageoutDaemon.run", "PhysicalMemory.copy_frame",
        "ResidentPageTable.allocate", "Scheduler.step", "Task.write",
        "ThreadContext.read", "ThreadContext.write",
        "VMObjectManager.collapse", "VMObjectManager.shadow",
    ),
    "pager": (
        "FaultyPager.data_request", "PhysicalMemory.zero_frame",
        "Scheduler.service_pager_wait", "StoreBackedPager.data_request",
    ),
    "tables": (
        "BsdSUT.create_process", "BsdSUT.dirty_data", "BsdSUT.fork_op",
        "BsdSUT.install_program", "BsdSUT.read_file_op", "BsdSUT.reap",
        "BsdSUT.touch_text", "BsdSUT.write_file_op", "BsdSUT.zero_fill_op",
        "BsdVmSystem.create_process", "BsdVmSystem.exec", "BsdVmSystem.fork",
        "BsdVmSystem.read_file", "BsdVmSystem.write_file",
        "BufferCache.read", "BufferCache.write", "FileSystem.read",
        "FileSystem.write", "MachSUT.create_process", "MachSUT.dirty_data",
        "MachSUT.fork_op", "MachSUT.install_program", "MachSUT.read_file_op",
        "MachSUT.reap", "MachSUT.touch_text", "MachSUT.write_file_op",
        "MachSUT.zero_fill_op", "Pmap.protect", "SimDisk.read_block",
        "SimDisk.write_block", "SunOsVmSystem.fork", "Task.fork",
        "UnixProcess.exec", "UnixProcess.fork", "UnixProcess.read_file",
        "UnixProcess.write_file", "VnodePager.data_request",
        "workloads.measure_fork", "workloads.measure_read_file",
        "workloads.measure_zero_fill", "workloads.run_compile_workload",
    ),
    # The conformance pass drives an external pager and its ports.
    "check": (
        "ExternalPagerAdapter.data_request", "Port.send",
        "analysis.lint_source_concurrency", "analysis.lint_source_tree",
        "analysis.run_flow_passes",
    ),
}

#: Implementations wrapped because they are entry points of their layer,
#: which none of the five workloads reaches.
UNCROSSED_SPANS = {
    "ExternalPagerAdapter.data_write", "FaultyPager.data_write",
    "NetMemoryPager.data_request", "NetMemoryPager.data_write",
    "Port.receive", "ScriptedPager.data_request", "ScriptedPager.data_write",
    "StoreBackedPager.data_write", "Sun3VacPmap.protect",
    "VnodePager.data_write", "_WrappingPager.data_request",
    "_WrappingPager.data_write",
}


@pytest.fixture(scope="module")
def traced():
    """A traced smoke report of every workload (one run each)."""
    return {name: run.measure(name, seed=7, seconds=0, trace=True,
                              smoke=True)
            for name in WORKLOADS}


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert spec["paths"] == ["perf"]


def test_every_workload_reports_every_metric(traced):
    for name, report in traced.items():
        assert report["correct"], (name, report["errors"])
        assert report["attempted"] > 0 and report["failed"] == 0
        for table, wanted in (("metrics", run.END_TO_END),
                              ("per_layer", run.PER_LAYER)):
            for key, unit in wanted.items():
                metric = report[table][key]
                assert metric["unit"] == unit and metric["n"] >= 1, \
                    (name, key)
        for key in run.END_TO_END:
            assert report["metrics"][key]["value"] > 0, (name, key)


def test_every_boundary_fires_where_expected(traced):
    wrapped = {trace.span_name(owner, attr)
               for owner, attr in trace.boundaries()}
    expected = {span for spans in EXPECTED_SPANS.values() for span in spans}
    assert wrapped == expected | UNCROSSED_SPANS
    for name, spans in EXPECTED_SPANS.items():
        calls = traced[name]["span_calls"]
        assert [span for span in spans if not calls.get(span)] == [], name


def test_self_times_cover_the_traced_run(traced):
    for name, report in traced.items():
        self_s = report["layer_self_s"]
        total = sum(self_s[layer] for layer in trace.LAYERS)
        assert total == pytest.approx(self_s["traced_run_s"], rel=0.05)
        shares = sum(report["per_layer"][f"{layer}.self_share"]["value"]
                     for layer in trace.LAYERS)
        assert shares == pytest.approx(1.0)


def test_layer_shares_follow_the_workloads(traced):
    def share(name, layer):
        return traced[name]["per_layer"][f"{layer}.self_share"]["value"]

    assert share("churn", "obs") < 0.01         # the bus is inactive
    assert share("storm", "obs") > 0.1
    assert share("check", "analysis") > 0.95
    for name in ("churn", "storm", "pager", "tables"):
        assert share(name, "analysis") == 0


def test_tracing_leaves_the_simulation_unchanged(traced):
    # A report is correct only when every repeat, traced or not, hashed
    # its simulated statistics to the same digest.
    for name in ("churn", "storm", "pager", "tables"):
        report = traced[name]
        assert report["traced_repeats"] == 1 and report["correct"]
        untraced = run.measure(name, seed=7, seconds=0, trace=False,
                               smoke=True)
        assert untraced["sim_digest"] == report["sim_digest"]


#: The seeded inputs of each simulator workload's setup state.
SEEDED_INPUTS = {
    "churn": lambda cells: [cell.forget for cell in cells],
    "storm": lambda cells: [r.orders for cell in cells for r in cell.regions],
    "pager": lambda cells: [r.content for cell in cells for r in cell.readers],
}


@pytest.mark.parametrize("name", sorted(SEEDED_INPUTS))
def test_seed_fixes_the_inputs(name):
    first = run.measure(name, seed=11, seconds=0, trace=False, smoke=True)
    again = run.measure(name, seed=11, seconds=0, trace=False, smoke=True)
    assert first["sim_digest"] == again["sim_digest"]

    def inputs(seed):
        return SEEDED_INPUTS[name](WORKLOADS[name](seed, smoke=True).setup())

    assert inputs(11) == inputs(11) != inputs(12)


def test_a_corrupted_read_is_detected(monkeypatch):
    from repro.hw.physmem import PhysicalMemory

    read = PhysicalMemory.read
    calls = []

    def corrupt_one(self, addr, size):
        data = read(self, addr, size)
        calls.append(addr)
        if len(calls) == 50:
            return bytes([data[0] ^ 0xFF]) + data[1:]
        return data

    monkeypatch.setattr(PhysicalMemory, "read", corrupt_one)
    report = run.measure("churn", seed=7, seconds=0, trace=False,
                         smoke=True)
    assert not report["correct"]
    assert report["failed"] == 1
    assert "expected" in report["errors"][0]


def test_compare_verdicts():
    same = [1.0, 1.02, 0.98]
    assert compare.verdict(same, [1.01, 0.99, 1.0], "lower", 0.1) \
        == "unchanged"
    assert compare.verdict(same, [1.3, 1.31, 1.29], "lower", 0.1) \
        == "worse"
    assert compare.verdict(same, [1.3, 1.31, 1.29], "higher", 0.1) \
        == "better"
    noisy = [1.0, 1.5, 0.6]
    assert compare.verdict(noisy, [1.05, 1.1, 1.0], "lower", 0.1) \
        == "unresolved"
    assert compare.verdict(noisy, [2.0, 2.1, 1.9], "lower", 0.1) \
        == "worse"


def test_command_line_contract():
    child = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "tables", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert child.returncode == 0
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perf"), tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "churn", "--smoke"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170)
    assert child.returncode != 0
    assert child.stdout.strip() == ""
