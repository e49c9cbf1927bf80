"""The benchmark's five workloads.

Each workload is a :class:`Workload` with the same four methods:

* ``setup()`` boots fresh kernels and builds the inputs for one repeat
  (host time reported as ``setup_s``);
* ``run(state)`` is the timed part: a closed loop in which every
  simulated thread issues its next access only after the previous one
  returned.  It checks each result as it goes and returns an
  :class:`Outcome`;
* ``simulated(state)`` returns every simulated statistic of the repeat
  (hashed into ``sim_digest``), its exact simulated metrics, and the
  layer counters;
* ``verify(state, outcome)`` runs the untimed end-of-repeat checks.

All inputs (forget and visit orders, warm bytes, pager contents,
injector seeds) come from ``random.Random`` seeded with the run seed,
so a seed fixes the simulation bit for bit.  Only public ``repro``
functions are called.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import random
import re
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import repro
from repro import hw
from repro.bench import workloads as bench
from repro.bench.workloads import (
    FORK_TEST_PROGRAM,
    KB,
    MB,
    THIRTEEN_PROGRAMS,
    BsdSUT,
    MachSUT,
    SunOsSUT,
)
from repro.core.constants import FaultType
from repro.core.errors import PagerError
from repro.core.kernel import MachKernel
from repro.hw.machine import MachineSpec
from repro.inject.injector import FaultConfig, FaultInjector
from repro.inject.pagers import FaultyPager, StoreBackedPager
from repro.obs.telemetry import STAGES, FaultTelemetry
from repro.sched.scheduler import Scheduler, ThreadState

#: The six registered pmaps and the machine shape each boots on.
ARCHS = {
    "generic": dict(hw_page_size=4096, default_page_size=4096),
    "vax": dict(hw_page_size=512, default_page_size=4096),
    "rt_pc": dict(hw_page_size=2048, default_page_size=4096),
    "sun3": dict(hw_page_size=8192, default_page_size=8192,
                 mmu_contexts=8),
    "sun3_vac": dict(hw_page_size=8192, default_page_size=8192,
                     mmu_contexts=8),
    "ns32082": dict(hw_page_size=512, default_page_size=4096,
                    va_limit=16 * MB, buggy_rmw_reports_read=True),
}

#: Probability that a pager operation stalls in the ``pager`` workload.
#: About 40% of reads send a request, so at 5% only 1-2% of reads stall
#: and the p99 op sits on the edge of the stalled population, swinging
#: with the seed (17% spread over ten seeds); at 10% it lies inside it.
PAGER_STALL_RATE = 0.10
#: Readahead window (pages) offered to the ``pager`` workload's pagers.
PAGER_READAHEAD = 4
#: Retry budget for the ``pager`` workload.  With the kernel default (3)
#: a request fails when four attempts in a row stall (1e-4 at a 10%
#: stall rate), which would fail runs; at 8 it is 1e-9 per request.
#: Every retry and its backoff stay on the blocking path.
PAGER_RETRIES = 8


def boot(arch: str, frames: int, ncpus: int = 1) -> MachKernel:
    """A fresh kernel on *arch* with *frames* physical frames."""
    shape = {"va_limit": 1 << 30, **ARCHS[arch]}
    page = shape["default_page_size"]
    spec = MachineSpec(name=f"perf-{arch}", pmap_name=arch, ncpus=ncpus,
                       memory_segments=((0, frames * page),), **shape)
    return MachKernel(spec)


def kernel_statistics(kernel: MachKernel) -> dict:
    """Every simulated statistic of one kernel (digest material)."""
    pmaps = kernel.pmap_system
    return {
        "vm": dataclasses.asdict(kernel.vm_statistics()),
        "kernel": dict(vars(kernel.stats)),
        "tlb": [dict(vars(cpu.tlb.stats)) for cpu in kernel.machine.cpus],
        "pmap": [pmaps.shootdowns, pmaps.ipis_sent,
                 pmaps.deferred_flushes],
        "chain_walks": kernel.vm.objects.chain_walks,
        "clock_us": [kernel.clock.cpu_us, kernel.clock.elapsed_us],
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_counters(kernels, telemetries=()) -> dict:
    """The per-layer counters, summed over a repeat's kernels (setup
    included), plus the simulated wait attribution of its telemetry."""

    def total(read) -> int:
        return sum(read(kernel) for kernel in kernels)

    faults = total(lambda k: k.stats.faults)
    hits = total(lambda k: sum(c.tlb.stats.hits for c in k.machine.cpus))
    misses = total(lambda k: sum(c.tlb.stats.misses
                                 for c in k.machine.cpus))
    cache_hits = total(lambda k: k.vm.objects.cache_hits)
    created = total(lambda k: k.vm.objects.objects_created)
    counters = {
        "hw.tlb_hit_ratio": _ratio(hits, hits + misses),
        "pmap.shootdowns_per_fault":
            _ratio(total(lambda k: k.pmap_system.shootdowns), faults),
        "pmap.ipis": total(lambda k: k.pmap_system.ipis_sent),
        "core.chain_walks_per_fault":
            _ratio(total(lambda k: k.vm.objects.chain_walks), faults),
        "core.pageins": total(lambda k: k.stats.pageins),
        "core.pageouts": total(lambda k: k.stats.pageouts),
        "core.object_cache_hit_ratio":
            _ratio(cache_hits, cache_hits + created),
        "pager.retries": total(lambda k: k.stats.pager_retries),
        "pager.faults_parked": total(lambda k: k.stats.faults_parked),
        "pager.readahead_pageins":
            total(lambda k: k.stats.readahead_pageins),
        "sched.tasks_completed_during_pager_wait":
            total(lambda k: k.stats.tasks_completed_during_pager_wait),
    }
    fault_time = sum(t.latency.total for t in telemetries)
    for stage in STAGES:
        counters[f"sim.stage_share.{stage}"] = _ratio(
            sum(t.stage_hist[stage].total for t in telemetries),
            fault_time)
    return counters


class Outcome:
    """What one timed run did: ops attempted and failed, the host
    latency of each timed op, and faults resolved."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: The first few failure descriptions.
        self.errors: list[str] = []
        self.latencies_ns: list[int] = []
        self.faults = 0
        #: Workload-specific host timings (``check``: cold_s, warm_s).
        self.extra: dict[str, float] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    def expect(self, got: bytes, want: bytes, *where) -> None:
        """Check single-byte reads, one op per byte: each wrong byte is a
        failed op.  *where* locates them and is only formatted on
        failure."""
        self.attempted += len(want)
        if got != want:
            wrong = sum(a != b for a, b in zip(got, want)) \
                + abs(len(got) - len(want))
            self.failed += wrong - 1
            self.fail(f"{' '.join(map(str, where))}: read {got!r}, "
                      f"expected {want!r}")

    def reap(self, scheduler: Scheduler, arch: str) -> None:
        """Count every simulated thread that died as a failed op."""
        for thread in scheduler.threads:
            if thread.state is ThreadState.FAILED:
                self.attempted += 1
                self.fail(f"{arch}: thread {thread.thread.name} raised "
                          f"{thread.error!r}")


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


class Workload:
    """Defaults for the optional parts of a workload."""

    def verify(self, state, out: Outcome) -> None:
        """Untimed end-of-repeat checks (none by default)."""

    def pass_timings(self) -> dict:
        """Host seconds per analysis pass (``check`` only)."""
        return {}

    def close(self) -> None:
        """Remove anything the workload left in its checkout."""


class Churn(Workload):
    """Forget/refault on a warm region: the bare fault path.

    On every pmap, a region of ``pages`` pages is warmed with 4x as many
    frames as it needs (no reclaim) and no telemetry.  Each round forgets
    every mapping in a fresh seeded order and refaults it: first through
    ``MachKernel.fault_batch`` (then re-reading every page), then through
    single ``task.read`` calls, whose latencies are the op latencies.
    """

    name = "churn"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.pages, self.batch_rounds, self.scalar_rounds = \
            (8, 3, 2) if smoke else (64, 100, 40)

    def setup(self):
        cells = []
        for arch in ARCHS:
            rng = random.Random(f"{self.seed}:churn:{arch}")
            kernel = boot(arch, frames=4 * self.pages)
            task = kernel.task_create(name="churn")
            page = kernel.page_size
            base = task.vm_allocate(self.pages * page)
            offsets = [index * page for index in range(self.pages)]
            warm = {off: bytes([rng.randrange(1, 256)]) for off in offsets}
            for off in offsets:
                task.write(base + off, warm[off])
            rounds = self.batch_rounds + self.scalar_rounds
            visit = [_shuffled(rng, offsets) for _ in range(rounds)]
            cells.append(SimpleNamespace(
                arch=arch, kernel=kernel, task=task, base=base,
                forget=[[base + off for off in _shuffled(rng, offsets)]
                        for _ in range(rounds)],
                visit=[[base + off for off in order] for order in visit],
                expected=[b"".join(warm[off] for off in order)
                          for order in visit]))
        return cells

    def run(self, cells) -> Outcome:
        out = Outcome()
        clock = time.perf_counter_ns
        latencies = out.latencies_ns
        for cell in cells:
            kernel, task, base = cell.kernel, cell.task, cell.base
            forget, read = task.pmap.forget, task.read
            before = kernel.stats.faults
            for round_no in range(self.batch_rounds):
                for addr in cell.forget[round_no]:
                    forget(addr)
                kernel.fault_batch(task, base, self.pages, FaultType.READ)
                got = [read(addr, 1) for addr in cell.visit[round_no]]
                out.expect(b"".join(got), cell.expected[round_no],
                           cell.arch, "round", round_no)
            for round_no in range(self.batch_rounds, len(cell.visit)):
                for addr in cell.forget[round_no]:
                    forget(addr)
                got = []
                for addr in cell.visit[round_no]:
                    start = clock()
                    got.append(read(addr, 1))
                    latencies.append(clock() - start)
                out.expect(b"".join(got), cell.expected[round_no],
                           cell.arch, "round", round_no)
            out.faults += kernel.stats.faults - before
        return out

    def simulated(self, cells):
        kernels = [cell.kernel for cell in cells]
        stats = {cell.arch: kernel_statistics(cell.kernel)
                 for cell in cells}
        sim = {"elapsed_ms": sum(k.clock.elapsed_us for k in kernels)
               / 1000.0}
        return stats, sim, layer_counters(kernels)


class Storm(Workload):
    """A telemetry-on fault storm under memory pressure.

    On every pmap: ``tasks`` tasks of ``pages`` pages each, about 2x
    overcommitted, on 2 simulated CPUs, with ``FaultTelemetry`` attached.
    Every other task has a copy-on-write child that overwrites each of
    its pages, and an evictor thread runs the pageout daemon each round.
    Faulters forget and re-read their pages, resolve one batch per
    round and write one page; a byte model of every parent and child
    page checks each read.
    """

    name = "storm"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.tasks, self.pages, self.rounds = \
            (4, 4, 2) if smoke else (16, 16, 4)

    def setup(self):
        cells = []
        for arch in ARCHS:
            rng = random.Random(f"{self.seed}:storm:{arch}")
            kernel = boot(arch, frames=max(16, self.tasks * self.pages // 2),
                          ncpus=2)
            telemetry = FaultTelemetry(keep_worst=8).attach(kernel)
            page = kernel.page_size
            offsets = [index * page for index in range(self.pages)]
            regions = []
            for i in range(self.tasks):
                task = kernel.task_create(name=f"storm{i}")
                base = task.vm_allocate(self.pages * page)
                model = {off: bytes([rng.randrange(1, 256)])
                         for off in offsets}
                for off in offsets:
                    task.write(base + off, model[off])
                child = task.fork(name=f"storm{i}-cow") if i % 2 == 0 \
                    else None
                regions.append(SimpleNamespace(
                    task=task, child=child, base=base, model=model,
                    orders=[_shuffled(rng, offsets)
                            for _ in range(self.rounds)],
                    child_model={off: bytes([rng.randrange(1, 256)])
                                 for off in offsets},
                    writes=[bytes([rng.randrange(1, 256)])
                            for _ in range(self.rounds)]))
            cells.append(SimpleNamespace(arch=arch, kernel=kernel,
                                         telemetry=telemetry,
                                         regions=regions))
        return cells

    def run(self, cells) -> Outcome:
        out = Outcome()
        clock = time.perf_counter_ns
        latencies = out.latencies_ns
        pages, rounds, tasks = self.pages, self.rounds, self.tasks

        def faulter(arch, kernel, i, region):
            task, base, model = region.task, region.base, region.model
            forget = task.pmap.forget

            def body(ctx):
                for _ in range(i):
                    yield               # staggered start: the ramp
                for round_no, order in enumerate(region.orders):
                    for off in order:
                        forget(base + off)
                    for off in order:
                        start = clock()
                        got = ctx.read(base + off, 1)
                        latencies.append(clock() - start)
                        out.expect(got, model[off], arch, f"storm{i}",
                                   "offset", off)
                        yield
                    for off in order:
                        forget(base + off)
                    kernel.fault_batch(task, base, pages, FaultType.READ)
                    yield
                    off = order[round_no % pages]
                    start = clock()
                    ctx.write(base + off, region.writes[round_no])
                    latencies.append(clock() - start)
                    out.attempted += 1
                    model[off] = region.writes[round_no]
                    yield
            return body

        def cow_child(region):
            def body(ctx):
                for off in region.orders[0]:
                    start = clock()
                    ctx.write(region.base + off, region.child_model[off])
                    latencies.append(clock() - start)
                    out.attempted += 1
                    yield
            return body

        def evictor(kernel):
            def body(ctx):
                for _ in range(rounds):
                    for _ in range(tasks):
                        yield
                    kernel.pageout_daemon.run()
                    yield
            return body

        for cell in cells:
            kernel = cell.kernel
            before = kernel.stats.faults
            sched = Scheduler(kernel)
            for i, region in enumerate(cell.regions):
                sched.spawn(region.task,
                            faulter(cell.arch, kernel, i, region),
                            name=f"storm{i}-f")
                if region.child is not None:
                    sched.spawn(region.child, cow_child(region),
                                name=f"storm{i}-cow")
            sched.spawn(cell.regions[0].task, evictor(kernel),
                        name="storm-evict")
            sched.run(raise_on_failure=False)
            out.reap(sched, cell.arch)
            out.faults += kernel.stats.faults - before
        return out

    def simulated(self, cells):
        return _telemetry_summary(cells)

    def verify(self, cells, out: Outcome) -> None:
        for cell in cells:
            for i, region in enumerate(cell.regions):
                views = [(region.task, region.model, "parent")]
                if region.child is not None:
                    views.append((region.child, region.child_model,
                                  "child"))
                for task, model, who in views:
                    for off, want in model.items():
                        out.expect(task.read(region.base + off, 1), want,
                                   cell.arch, f"storm{i}", who, "final",
                                   "offset", off)


class Pager(Workload):
    """Readers behind a stalling external-style pager.

    On every pmap: ``tasks`` readers map ``pages`` pages from a
    ``FaultyPager(StoreBackedPager)`` that stalls 10% of operations
    (seeded), once per round for ``rounds`` rounds, and read every page
    in a seeded order.  Readahead is 4 pages, telemetry is on, and a
    fleet of staggered zero-fill fillers runs on CPU time the default
    ``Scheduler`` lends out during pager backoffs.  Every read is
    compared with the pager's content; typed pager errors are failed
    ops.  Pager contents are built in setup.
    """

    name = "pager"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.tasks, self.pages, self.rounds = \
            (4, 4, 2) if smoke else (16, 16, 4)

    def setup(self):
        cells = []
        for arch in ARCHS:
            rng = random.Random(f"{self.seed}:pager:{arch}")
            kernel = boot(arch, frames=self.tasks * self.pages * 2 + 16,
                          ncpus=2)
            telemetry = FaultTelemetry(keep_worst=8).attach(kernel)
            kernel.readahead_pages = PAGER_READAHEAD
            kernel.max_pager_retries = PAGER_RETRIES
            injector = FaultInjector(rng.getrandbits(32),
                                     FaultConfig(pager_stall=PAGER_STALL_RATE))
            size = self.pages * kernel.page_size
            readers = []
            for i in range(self.tasks):
                content = rng.randbytes(size)
                readers.append(SimpleNamespace(
                    task=kernel.task_create(name=f"pager{i}"),
                    content=content,
                    pager=FaultyPager(StoreBackedPager(content), injector),
                    orders=[_shuffled(rng, range(0, size, kernel.page_size))
                            for _ in range(self.rounds)]))
            fillers = [kernel.task_create(name=f"fill{j}")
                       for j in range(self.tasks * self.rounds)]
            cells.append(SimpleNamespace(
                arch=arch, kernel=kernel, telemetry=telemetry, size=size,
                injector=injector, readers=readers, fillers=fillers))
        return cells

    def run(self, cells) -> Outcome:
        out = Outcome()
        clock = time.perf_counter_ns
        latencies = out.latencies_ns

        def reader(cell, i, r):
            kernel, size = cell.kernel, cell.size

            def body(ctx):
                for _ in range(i):
                    yield               # staggered start: the ramp
                for order in r.orders:
                    # A fresh mapping per round: the previous round's
                    # object is terminated on unmap, so every read
                    # faults through the stalling pager again.
                    base = kernel.vm_allocate_with_pager(r.task, size,
                                                         r.pager)
                    for off in order:
                        start = clock()
                        try:
                            got = ctx.read(base + off, 1)
                        except PagerError as exc:
                            out.attempted += 1
                            out.fail(f"{cell.arch} pager{i} page "
                                     f"{off:#x}: {exc!r}")
                        else:
                            out.expect(got, r.content[off:off + 1],
                                       cell.arch, f"pager{i}", "offset",
                                       off)
                        latencies.append(clock() - start)
                        yield
                    kernel.vm_deallocate(r.task, base, size)
                    yield
            return body

        def filler(j, page):
            def body(ctx):
                for _ in range(j):
                    yield               # staggered across the whole run
                addr = ctx.task.vm_allocate(2 * page)
                for off in (0, page):
                    ctx.write(addr + off, b"f")
                    yield
            return body

        for cell in cells:
            kernel = cell.kernel
            before = kernel.stats.faults
            sched = Scheduler(kernel)
            for i, r in enumerate(cell.readers):
                sched.spawn(r.task, reader(cell, i, r), name=f"pager{i}-r")
            for j, task in enumerate(cell.fillers):
                sched.spawn(task, filler(j, kernel.page_size),
                            name=f"fill{j}")
            sched.run(raise_on_failure=False)
            out.reap(sched, cell.arch)
            out.faults += kernel.stats.faults - before
        return out

    def simulated(self, cells):
        stats, sim, counters = _telemetry_summary(cells)
        for cell in cells:
            stats[cell.arch]["stalls"] = len(cell.injector.injected)
        return stats, sim, counters


def _telemetry_summary(cells):
    """Digest material, simulated metrics and counters of a workload
    whose cells carry ``FaultTelemetry``."""
    kernels = [cell.kernel for cell in cells]
    telemetries = [cell.telemetry for cell in cells]
    stats = {}
    for cell in cells:
        stats[cell.arch] = kernel_statistics(cell.kernel)
        stats[cell.arch]["telemetry"] = cell.telemetry.report()
    sim = {
        "elapsed_ms": sum(k.clock.elapsed_us for k in kernels) / 1000.0,
        "fault_p99_us": max(t.latency.percentile(99)
                            for t in telemetries),
    }
    return stats, sim, layer_counters(kernels, telemetries)


_ZERO_FILL_FORK_MACHINES = (
    ("RT PC", hw.IBM_RT_PC, BsdSUT),
    ("MicroVAX II", hw.MICROVAX_II, BsdSUT),
    ("SUN 3/160", hw.SUN_3_160, SunOsSUT),
)


def _table_rows(smoke: bool) -> list:
    """The rows of Tables 7-1/7-2 the benchmark runs, as (label, Mach
    SUT factory, baseline SUT factory, name of the
    ``repro.bench.workloads`` function that measures it, its extra
    arguments, the column the shape check compares).

    The function is looked up at call time, so a traced run sees its
    ``bench`` span.  The 160-unit Mach kernel build is left out
    (minutes of host time per run).
    """
    machines = _ZERO_FILL_FORK_MACHINES[::2] if smoke \
        else _ZERO_FILL_FORK_MACHINES
    rows = []
    for label, spec, base in machines:
        for what, measure in (("zero fill 1K", "measure_zero_fill"),
                              ("fork 256K", "measure_fork")):
            rows.append((f"{what} ({label})", lambda s=spec: MachSUT(s),
                         lambda s=spec, b=base: b(s), measure, (), "cpu"))
    sizes = (("50K", 50 * KB, None),) if smoke \
        else (("2.5M", int(2.5 * MB), "cache"), ("50K", 50 * KB, None))
    for label, size, column in sizes:
        rows.append((f"read {label} (VAX 8200)",
                     lambda: MachSUT(hw.VAX_8200),
                     lambda: BsdSUT(hw.VAX_8200),
                     "measure_read_file", (size,), column))
    compiles = [] if smoke else [
        ("13 programs, 400 buffers (VAX 8650)",
         lambda: MachSUT(hw.VAX_8650, buffer_limit=400),
         lambda: BsdSUT(hw.VAX_8650, nbufs=400), THIRTEEN_PROGRAMS),
        ("13 programs, generic config (VAX 8650)",
         lambda: MachSUT(hw.VAX_8650),
         lambda: BsdSUT(hw.VAX_8650, nbufs=64), THIRTEEN_PROGRAMS),
    ]
    compiles.append(("compile fork test program (SUN 3/160)",
                     lambda: MachSUT(hw.SUN_3_160),
                     lambda: SunOsSUT(hw.SUN_3_160), FORK_TEST_PROGRAM))
    for label, mach, base, spec in compiles:
        rows.append((label, mach, base, "run_compile_workload", (spec,),
                     "elapsed"))
    return rows


def _measurements(value) -> list:
    """[(cpu_ms, elapsed_ms), ...] of one measure call's result."""
    if value is None:
        return []
    if isinstance(value, tuple):                # read file: first, second
        return [(m.cpu_ms, m.elapsed_ms) for m in value]
    return [(value.cpu_ms, value.elapsed_ms)]


class Tables(Workload):
    """The paper's Table 7-1/7-2 rows through ``MachSUT`` and the
    4.3bsd/SunOS baselines.  Each op is one measurement of one system;
    setup boots every system under test.  The rows are the paper's, so
    the seed does not change them."""

    name = "tables"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.rows = _table_rows(smoke)

    def setup(self):
        return SimpleNamespace(
            systems=[(label, mach(), base(), measure, args, column)
                     for label, mach, base, measure, args, column
                     in self.rows],
            values={})

    def run(self, state) -> Outcome:
        out = Outcome()
        clock = time.perf_counter_ns
        for label, mach, base, measure, args, _ in state.systems:
            for side, sut in (("mach", mach), ("unix", base)):
                start = clock()
                try:
                    value = getattr(bench, measure)(sut, *args)
                except AssertionError as exc:   # wrong file data read
                    out.fail(f"{label} ({side}): {exc}")
                    value = None
                out.latencies_ns.append(clock() - start)
                out.attempted += 1
                state.values[label, side] = _measurements(value)
        return out

    def simulated(self, state):
        kernels = [system[1].kernel for system in state.systems]
        stats = {system[0]: kernel_statistics(system[1].kernel)
                 for system in state.systems}
        stats["values"] = sorted(state.values.items())
        sim = {"elapsed_ms": sum(elapsed for (_, side), ms
                                 in state.values.items() if side == "mach"
                                 for _, elapsed in ms)}
        return stats, sim, layer_counters(kernels)

    def verify(self, state, out: Outcome) -> None:
        """The EXPERIMENTS.md shapes: Mach wins zero fill and fork (CPU)
        and the compiles (elapsed); Mach's second 2.5M read costs under
        a third of its first."""
        for label, *_, column in state.systems:
            mach = state.values[label, "mach"]
            unix = state.values[label, "unix"]
            if column is None or not mach or not unix:
                continue                # no shape, or failed in run
            if column == "cache":
                (_, first), (_, second) = mach
                if not second < first / 3:
                    out.fail(f"{label}: Mach second read {second:.1f}ms "
                             f"is not under 1/3 of the first "
                             f"{first:.1f}ms")
                continue
            index = 0 if column == "cpu" else 1
            if not mach[0][index] < unix[0][index]:
                out.fail(f"{label}: Mach {mach[0][index]:.2f}ms does not "
                         f"beat the baseline {unix[0][index]:.2f}ms")


_ANALYZED = re.compile(r"analyzed (\d+) module\(s\), (\d+) cached")
_WALL = re.compile(r"\(\d+\.\d+s\)")


#: What a fresh ``repro check`` process imports before it can start.
_CHECK_IMPORTS = (
    "import importlib, pkgutil, repro.analysis, repro.cli\n"
    "for module in pkgutil.iter_modules(repro.analysis.__path__,"
    " 'repro.analysis.'):\n"
    "    importlib.import_module(module.name)\n")


class Check(Workload):
    """``repro check --lint-only``, the CI gate: once in a fresh working
    directory (cold, empty ``.repro-cache``), then ``warm_runs`` times
    more in the same directory (warm).  It runs no simulation, and its
    input is the source tree, so the seed does not change it.

    Setup makes a fresh directory under ``perf/out/`` and starts the
    checker cold: a new interpreter importing ``repro.cli`` and every
    analysis module, so work moved into import time shows as set-up
    time rather than vanishing into the warmup."""

    name = "check"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.warm_runs = 1 if smoke else 5
        self.root = os.path.join(os.path.dirname(os.path.abspath(
            __file__)), "out", f"check-{os.getpid()}")
        self._repeats = 0

    def setup(self):
        shutil.rmtree(self.root, ignore_errors=True)
        self._repeats += 1
        cwd = os.path.join(self.root, str(self._repeats))
        os.makedirs(cwd)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        subprocess.run([sys.executable, "-c", _CHECK_IMPORTS], cwd=cwd,
                       env=dict(os.environ, PYTHONPATH=src), check=True,
                       timeout=60)
        return SimpleNamespace(cwd=cwd, logs=[])

    def run(self, state) -> Outcome:
        from repro.cli import main

        out = Outcome()
        clock = time.perf_counter_ns
        home = os.getcwd()
        os.chdir(state.cwd)
        try:
            for _ in range(1 + self.warm_runs):
                log = io.StringIO()
                start = clock()
                with contextlib.redirect_stdout(log):
                    code = main(["check", "--lint-only"])
                out.latencies_ns.append(clock() - start)
                out.attempted += 1
                if code != 0:
                    out.fail(f"check --lint-only exited {code}:\n"
                             f"{log.getvalue()}")
                state.logs.append(log.getvalue())
        finally:
            os.chdir(home)
        cold, *warm = out.latencies_ns
        out.extra = {"cold_s": cold / 1e9,
                     "warm_s": sorted(warm)[len(warm) // 2] / 1e9}
        return out

    def simulated(self, state):
        counters = layer_counters([])
        analyzed = [_ANALYZED.search(log) for log in state.logs]
        counters["analysis.modules_analyzed_cold"] = \
            int(analyzed[0].group(1)) if analyzed[0] else 0
        counters["analysis.modules_analyzed_warm"] = \
            int(analyzed[-1].group(1)) if analyzed[-1] else 0
        # The findings text, minus wall-clock times, is the digest.
        return [_WALL.sub("", log) for log in state.logs], {}, counters

    def verify(self, state, out: Outcome) -> None:
        analyzed = [_ANALYZED.search(log) for log in state.logs]
        if not all(analyzed):
            out.fail("check output lacks the analyzed-modules line")
        elif (int(analyzed[0].group(1)) == 0
              or any(int(m.group(1)) for m in analyzed[1:])):
            out.fail("expected one cold run, then warm runs that "
                     "analyze nothing")

    def pass_timings(self) -> dict:
        """Host seconds of each analysis pass on its own, uncached."""
        from repro import analysis
        from repro.analysis.flow import FLOW_PASS_NAMES

        timings = {}
        for name in FLOW_PASS_NAMES:
            start = time.perf_counter()
            analysis.run_flow_passes(passes=(name,))
            timings[name] = time.perf_counter() - start
        for name, lint in (("layering", analysis.lint_source_tree),
                           ("concurrency",
                            analysis.lint_source_concurrency)):
            start = time.perf_counter()
            lint()
            timings[name] = time.perf_counter() - start
        return timings

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Churn, Storm, Pager, Tables, Check)}
