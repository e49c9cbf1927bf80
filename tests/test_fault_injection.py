"""Fault injection: the kernel survives errant pagers, disk errors and
lossy IPC — typed errors only, bounded simulated-clock retries, never a
hang — and every randomized failure is replayable from its seed.

The deterministic half uses :class:`ScriptedPager` to pin exact failure
sequences; the randomized half replays the seed corpus in
``tests/data/fault_seeds.txt`` and sweeps the acceptance matrix (each
fault class on several pmap architectures) via the same cells that
``python -m repro faultsweep`` runs.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.matrix import (
    FAULT_SEED,
    FAULT_TRIES,
    cell_seed,
    fault_line,
    run_fault_cell,
)
from repro.core.errors import (
    DiskIOError,
    IPCTimeoutError,
    InvalidArgumentError,
    KernReturn,
    PagerCrashedError,
    PagerDeadError,
    PagerGarbageError,
    PagerStallError,
    PagerTimeoutError,
    ResourceShortageError,
)
from repro.core.kernel import MachKernel
from repro.fs.disk import SimDisk
from repro.fs.filesystem import FileSystem
from repro.hw.machine import Machine
from repro.inject import (
    CHAOS,
    FaultConfig,
    FaultInjector,
    FaultyPager,
    ScriptedPager,
    StoreBackedPager,
)
from repro.ipc.kernel_server import MSG_VM_ALLOCATE, MSG_VM_READ, MSG_VM_WRITE
from repro.pager.vnode_pager import map_file

from tests.conftest import make_spec

PAGE = 4096
CORPUS = Path(__file__).parent / "data" / "fault_seeds.txt"


def _object_at(task, addr):
    found, entry = task.vm_map.lookup_entry(addr)
    assert found
    return entry.vm_object


def _scripted_region(kernel, task, npages=2, script=()):
    """Map a ScriptedPager-backed region filled with 0xAB."""
    data = b"\xab" * (npages * kernel.page_size)
    pager = ScriptedPager(StoreBackedPager(data), script)
    addr = kernel.vm_allocate_with_pager(task, npages * kernel.page_size,
                                         pager)
    return addr, pager


class TestScriptedPagerPolicy:
    """Exact failure sequences against the kernel's retry/dead-pager
    policy (no randomness)."""

    def test_stall_then_recover(self, kernel, task):
        addr, pager = _scripted_region(
            kernel, task, script=[ScriptedPager.STALL])
        before = kernel.clock.now_us
        assert task.read(addr, 1) == b"\xab"
        # The retry was charged to the simulated clock, not hidden.
        assert kernel.stats.pager_retries >= 1
        assert kernel.clock.now_us - before >= kernel.pager_timeout_us
        assert not _object_at(task, addr).pager_dead

    def test_stall_forever_becomes_timeout(self, kernel, task):
        addr, pager = _scripted_region(
            kernel, task, script=[ScriptedPager.STALL] * 16)
        before = kernel.clock.now_us
        with pytest.raises(PagerTimeoutError):
            task.read(addr, 1)
        # Exponential backoff: 1 + 2 + 4 timeouts of wait were charged.
        assert kernel.clock.now_us - before >= 7 * kernel.pager_timeout_us
        obj = _object_at(task, addr)
        assert obj.pager_dead
        assert kernel.stats.pagers_declared_dead == 1
        # A dead pager fails *fast*: no further retries are burned.
        retries = kernel.stats.pager_retries
        with pytest.raises(PagerDeadError):
            task.read(addr + kernel.page_size, 1)
        assert kernel.stats.pager_retries == retries

    def test_crash_then_default_pager_adoption(self, kernel, task):
        addr, pager = _scripted_region(
            kernel, task, script=[ScriptedPager.CRASH])
        with pytest.raises(PagerCrashedError):
            task.read(addr, 1)
        obj = _object_at(task, addr)
        assert obj.pager_dead
        with pytest.raises(PagerDeadError):
            task.read(addr, 1)
        kernel.adopt_orphaned_object(obj)
        assert kernel.stats.orphans_adopted == 1
        # Degraded service: the crashed pager's data is gone (zero
        # fill), but the region works again — reads, writes, pageout.
        assert task.read(addr, 1) == b"\x00"
        task.write(addr, b"new")
        assert task.read(addr, 3) == b"new"

    def test_adoption_requires_dead_pager(self, kernel, task):
        addr, pager = _scripted_region(kernel, task)
        assert task.read(addr, 1) == b"\xab"
        with pytest.raises(InvalidArgumentError):
            kernel.adopt_orphaned_object(_object_at(task, addr))

    def test_garbage_reply_kills_pager(self, kernel, task):
        addr, pager = _scripted_region(
            kernel, task, script=[ScriptedPager.GARBAGE])
        with pytest.raises(PagerGarbageError):
            task.read(addr, 1)
        assert _object_at(task, addr).pager_dead

    def test_dead_pager_zero_fill_policy(self, kernel, task):
        kernel.dead_pager_zero_fill = True
        addr, pager = _scripted_region(
            kernel, task, script=[ScriptedPager.CRASH])
        with pytest.raises(PagerCrashedError):
            task.read(addr, 1)
        # With the degrade-to-zero-fill policy the next fault is served,
        # not failed.
        assert task.read(addr, 1) == b"\x00"
        assert kernel.stats.dead_pager_zero_fills >= 1


class TestDiskFailureSemantics:
    """DiskIOError is transient: retried, then propagated typed — and
    never kills the pager (the medium may recover)."""

    def _mapped_file(self, kernel, npages=2):
        fs = FileSystem(kernel.machine, nblocks=2048)
        fs.create("/f")
        fs.write("/f", b"D" * (npages * fs.block_size))
        # Flush the write-back cache so reads actually hit the disk.
        fs.buffer_cache.sync()
        task = kernel.task_create(name="mapper")
        addr = map_file(kernel, task, fs, "/f")
        return fs, task, addr

    def test_bounded_error_burst_is_retried(self, kernel):
        fs, task, addr = self._mapped_file(kernel)
        injector = FaultInjector(
            seed=7, config=FaultConfig(disk_read_error=1.0, max_faults=2))
        with injector.armed(fs.disk):
            assert task.read(addr, 1) == b"D"
        assert kernel.stats.pager_retries >= 2
        assert not _object_at(task, addr).pager_dead

    def test_persistent_errors_propagate_typed(self, kernel):
        fs, task, addr = self._mapped_file(kernel)
        injector = FaultInjector(
            seed=7, config=FaultConfig(disk_read_error=1.0))
        with injector.armed(fs.disk):
            with pytest.raises(DiskIOError):
                task.read(addr, 1)
        # The filesystem is not an errant task: the vnode pager stays
        # alive, and the same read succeeds once the medium recovers.
        assert not _object_at(task, addr).pager_dead
        assert task.read(addr, 1) == b"D"

    def test_pageout_write_failure_loses_no_data(self):
        kernel = MachKernel(make_spec(memory_frames=64))
        fs = FileSystem(kernel.machine, nblocks=2048)
        kernel.attach_swap_filesystem(fs, total_slots=64)
        task = kernel.task_create()
        npages = 8
        addr = task.vm_allocate(npages * PAGE)
        for i in range(npages):
            task.write(addr + i * PAGE, bytes([i + 1]))
        injector = FaultInjector(
            seed=3, config=FaultConfig(disk_write_error=1.0))
        slots_free = kernel.default_pager.swap.slots_free
        with injector.armed(fs.disk):
            kernel.pageout_daemon.run(
                target=kernel.vm.resident.free_count + 4)
        assert kernel.stats.pageout_failures > 0
        # Failed launders kept the pages dirty and leaked no swap slots.
        assert kernel.default_pager.swap.slots_free == slots_free
        for i in range(npages):
            assert task.read(addr + i * PAGE, 1) == bytes([i + 1])
        # Disarmed, pageout drains normally again.
        before = kernel.stats.pageouts
        kernel.pageout_daemon.run(target=kernel.vm.resident.free_count + 2)
        assert kernel.stats.pageouts > before
        from repro.analysis.invariants import assert_all
        assert_all(kernel)

    def test_swap_slot_not_leaked_on_write_error(self):
        kernel = MachKernel(make_spec())
        fs = FileSystem(kernel.machine, nblocks=2048)
        kernel.attach_swap_filesystem(fs, total_slots=8)
        swap = kernel.default_pager.swap
        injector = FaultInjector(
            seed=9, config=FaultConfig(disk_write_error=1.0))
        with injector.armed(fs.disk):
            for _ in range(3 * swap.total_slots):
                with pytest.raises(DiskIOError):
                    swap.write_slot(b"x" * PAGE)
        # Every failed allocation was returned to the pool; a flaky
        # disk must not manufacture "swap file full".
        assert swap.slots_free == swap.total_slots
        slot = swap.write_slot(b"y" * PAGE)
        assert swap.read_slot(slot)[:1] == b"y"

    def test_latency_spike_charges_simulated_clock(self):
        machine = Machine(make_spec())
        disk = SimDisk(machine, nblocks=8)
        injector = FaultInjector(
            seed=1, config=FaultConfig(disk_latency_spike=1.0,
                                       max_faults=1))
        disk.injector = injector
        before = machine.clock.now_us
        disk.read_block(0)
        disk.injector = None
        assert machine.clock.now_us - before \
            >= injector.config.disk_spike_us
        assert injector.summary() == "disk-spike=1"


class TestLossyIPC:
    """KernelServer.call over a transport that drops, duplicates and
    delays messages."""

    def test_dropped_request_is_retried(self, kernel, task):
        injector = FaultInjector(
            seed=5, config=FaultConfig(ipc_drop=1.0, max_faults=1))
        with injector.armed():
            reply = kernel.server.call(task.task_port, MSG_VM_ALLOCATE,
                                       size=PAGE)
        kr, fields = kernel.server.result_of(reply)
        assert kr is KernReturn.SUCCESS
        assert kernel.server.calls_retried >= 1

    def test_total_loss_times_out_typed(self, kernel, task):
        injector = FaultInjector(seed=5, config=FaultConfig(ipc_drop=1.0))
        with injector.armed():
            with pytest.raises(IPCTimeoutError):
                kernel.server.call(task.task_port, MSG_VM_ALLOCATE,
                                   size=PAGE)

    def test_duplicate_reply_cannot_answer_later_call(self, kernel, task):
        injector = FaultInjector(
            seed=5, config=FaultConfig(ipc_duplicate=1.0, max_faults=1))
        server = kernel.server
        with injector.armed():
            reply = server.call(task.task_port, MSG_VM_ALLOCATE,
                                size=PAGE)
        kr, fields = server.result_of(reply)
        assert kr is KernReturn.SUCCESS
        # The duplicated request produced an extra reply; it must have
        # been drained, so this later round trip sees its own answer.
        addr = fields["address"]
        server.call(task.task_port, MSG_VM_WRITE, address=addr,
                    data=b"dup")
        kr, fields = server.result_of(
            server.call(task.task_port, MSG_VM_READ, address=addr,
                        size=3))
        assert kr is KernReturn.SUCCESS
        assert fields["data"] == b"dup"

    def test_delayed_message_still_arrives(self, kernel, task):
        injector = FaultInjector(
            seed=5, config=FaultConfig(ipc_delay=1.0, ipc_delay_ops=2,
                                       max_faults=1))
        with injector.armed():
            reply = kernel.server.call(task.task_port, MSG_VM_ALLOCATE,
                                       size=PAGE)
        assert kernel.server.result_of(reply)[0] is KernReturn.SUCCESS


class TestDeterminism:
    """Same seed, same faults — and every failure names its seed."""

    def test_cell_replay_is_identical(self):
        first = run_fault_cell("generic", "pager-crash", seed=1234,
                               quick=True)
        second = run_fault_cell("generic", "pager-crash", seed=1234,
                                quick=True)
        assert (first.ok, first.injected, first.typed_errors) \
            == (second.ok, second.injected, second.typed_errors)

    def test_injected_errors_name_their_seed(self):
        machine = Machine(make_spec())
        disk = SimDisk(machine, nblocks=8)
        injector = FaultInjector(
            seed=99, config=FaultConfig(disk_read_error=1.0))
        disk.injector = injector
        with pytest.raises(DiskIOError, match="seed 99"):
            disk.read_block(0)
        disk.injector = None
        pager = FaultyPager(
            StoreBackedPager(b"x"),
            FaultInjector(seed=77, config=FaultConfig(pager_stall=1.0)))
        with pytest.raises(PagerStallError, match="seed 77"):
            pager.data_request(None, 0, 1, None)

    def test_cell_result_reports_seed(self):
        result = run_fault_cell("generic", "pager-stall", seed=42,
                                quick=True)
        assert "seed=42" in fault_line(result)


def _corpus_entries():
    entries = []
    for line in CORPUS.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        arch, scenario, seed = line.split()
        entries.append((arch, scenario, int(seed, 0)))
    return entries


@pytest.mark.parametrize(("arch", "scenario", "seed"), _corpus_entries())
def test_corpus_replay(arch, scenario, seed):
    """Previously-found seeds stay green: the regression corpus replays
    exact fault sequences the sweep once survived."""
    result = run_fault_cell(arch, scenario, seed, quick=True)
    assert result.ok, (f"corpus regression: {fault_line(result)} "
                       f"(replay: run_fault_cell({arch!r}, {scenario!r}, "
                       f"{seed}, quick=True))")


MATRIX_ARCHS = ("generic", "vax", "sun3", "ns32082")
MATRIX_SCENARIOS = ("pager-stall", "pager-crash", "pager-garbage",
                    "disk-error", "ipc-loss")


@pytest.mark.parametrize("scenario", MATRIX_SCENARIOS)
@pytest.mark.parametrize("arch", MATRIX_ARCHS)
def test_survival_matrix(arch, scenario):
    """The acceptance matrix: every fault class, on ≥3 architectures,
    with faults actually injected, survives — reproducibly."""
    seed = cell_seed(FAULT_SEED, arch, scenario)
    result = run_fault_cell(arch, scenario, seed, quick=True,
                            tries=FAULT_TRIES)
    line = fault_line(result)
    assert result.injected > 0, f"cell injected no faults: {line}"
    assert result.ok, (f"cell failed — replay with "
                       f"run_fault_cell({arch!r}, {scenario!r}, "
                       f"{result.cell.seed}, quick=True): {line}")
