"""``repro storm``: a fault-storm load generator for tail latency.

Ramps N concurrent faulting tasks on a deliberately overcommitted
machine (the pageout-pressure recipe: roughly half the frames the
working set wants) and reads the resulting fault-latency distribution
off :class:`~repro.obs.telemetry.FaultTelemetry`.  Each task runs as a
cooperatively scheduled thread interleaved round-robin with every
other, so faults from different tasks genuinely contend for the free
pool, the pageout daemon and the TLBs:

* staggered start — thread *i* idles *i* slices before faulting, so
  load ramps instead of arriving as one burst;
* forget/refault churn through the MMU (``mmu_probe`` →
  ``map_lookup`` → ``shadow_walk`` stages) and one batch-lane
  resolution per round (``vm/fault`` spans nested in
  ``vm/fault_batch``, deferred ``pmap/enter_batch`` flushes);
* copy-on-write children (``copy_up`` stage) on every other task;
* a pageout thread evicting pages each round, so later refaults page
  in from the default pager (``pager_wait`` dominating the tail).

Everything is measured in *simulated* microseconds off the machine
clock and every source of variation is seeded, so a given
``(arch, tasks, pages, rounds, seed)`` cell reproduces its percentiles
bit-for-bit — which is what lets CI gate on them.
"""

from __future__ import annotations

import random

from repro.bench.testing import BENCH_ARCHS, QUICK_ARCHS, make_spec
from repro.obs.telemetry import FaultTelemetry

#: Default seed for the per-task page-visit orders.
STORM_SEED = 0x570A

#: Full-mode load shape: (tasks, pages per task, rounds).
FULL_LOAD = (8, 6, 3)
#: Quick-mode load shape (CI smoke).
QUICK_LOAD = (4, 4, 2)

#: Pager-stall storm: probability an injected pager operation stalls
#: (transient — the kernel retries with backoff).  Chosen so stalls
#: sit *between* the two serving paths' exposure: the serialized
#: one-page path makes one stall-prone round trip per page (stalled
#: faults land well above the 1% tail), while v2's scatter-gather
#: batching covers a whole readahead cluster per round trip, pushing
#: stalls past the p99 quantile.
PAGER_STALL_RATE = 0.05
#: Readahead window (pages) the v2 serving path advertises to the
#: storm's store pagers.
PAGER_STORM_READAHEAD = 4
#: The pager-stall SLO: each cell's v2 p99 may be at most this
#: multiple of its own serialized control's p99.  Both sides are
#: simulated time on the same shape and seed, so the ratio is
#: deterministic and the gate needs no committed baseline.
PAGER_SERIALIZED_SLO = 1.0


def _boot(arch: str, tasks: int, pages: int,
          frames: int | None = None):
    from repro.core.kernel import MachKernel

    kwargs = dict(BENCH_ARCHS[arch])
    if frames is None:
        # Overcommit ~2x (the invariant-sweep pageout-pressure
        # recipe): the combined working set wants tasks * pages frames
        # plus COW copies; give it about half, so the daemon must
        # steal and the tail includes real pageins.
        frames = max(16, (tasks * pages) // 2)
    kwargs["memory_frames"] = frames
    kwargs.setdefault("ncpus", 2)
    spec = make_spec(name=f"storm-{arch}", pmap_name=arch, **kwargs)
    return MachKernel(spec)


def run_storm(arch: str = "generic", tasks: int = 8, pages: int = 6,
              rounds: int = 3, seed: int = STORM_SEED,
              keep_worst: int = 8):
    """Run one storm cell; returns ``(report, telemetry)``.

    *report* is the JSON-ready dict from
    :meth:`FaultTelemetry.report` plus the cell parameters; the
    *telemetry* object is returned too so callers can export the
    worst-fault Chrome trace.
    """
    from repro.core.constants import FaultType
    from repro.sched.scheduler import Scheduler

    kernel = _boot(arch, tasks, pages)
    page = kernel.page_size
    telemetry = FaultTelemetry(keep_worst=keep_worst).attach(kernel)
    try:
        sched = Scheduler(kernel)
        rng = random.Random(seed)

        regions: list[tuple] = []
        for i in range(tasks):
            task = kernel.task_create(name=f"storm{i}")
            base = task.vm_allocate(pages * page)
            # Warm the region (zero-fill faults count too), then fork
            # a COW child off every other task.
            for off in range(0, pages * page, page):
                task.write(base + off, bytes([off // page % 255 + 1]))
            child = task.fork() if i % 2 == 0 else None
            order = list(range(0, pages * page, page))
            rng.shuffle(order)
            regions.append((task, child, base, order))

        def faulter(i, task, base, order):
            def body(ctx):
                for _ in range(i):
                    yield               # staggered start: the ramp
                for round_no in range(rounds):
                    for off in order:
                        task.pmap.forget(base + off)
                    for off in order:
                        ctx.read(base + off, 1)
                        yield
                    # One batch-lane resolution of the whole region.
                    for off in order:
                        task.pmap.forget(base + off)
                    kernel.fault_batch(task, base, pages,
                                       FaultType.READ)
                    yield
                    ctx.write(base + order[round_no % pages], b"w")
                    yield
            return body

        def cow_child(child, base, order):
            def body(ctx):
                for off in order:
                    ctx.write(base + off, b"C")   # COW copy-up
                    yield
            return body

        def evictor(ctx):
            for _ in range(rounds):
                for _ in range(tasks):
                    yield
                kernel.pageout_daemon.run()
                yield

        for i, (task, child, base, order) in enumerate(regions):
            sched.spawn(task, faulter(i, task, base, order),
                        name=f"storm{i}-f")
            if child is not None:
                sched.spawn(child, cow_child(child, base, order),
                            name=f"storm{i}-cow")
        sched.spawn(regions[0][0], evictor, name="storm-evict")
        sched.run()
    finally:
        telemetry.detach()

    report = telemetry.report()
    report.update({
        "arch": arch,
        "tasks": tasks,
        "pages": pages,
        "rounds": rounds,
        "seed": seed,
    })
    return report, telemetry


def run_pager_storm(arch: str = "generic", tasks: int = 8,
                    pages: int = 6, rounds: int = 3,
                    seed: int = STORM_SEED, keep_worst: int = 8,
                    serialize: bool = False):
    """Run one pager-stall storm cell; returns ``(report, telemetry)``.

    Every region is served by an external-style store pager wrapped in
    :class:`~repro.inject.pagers.FaultyPager`, with injected transient
    stalls forcing the kernel's retry/backoff path on a fifth of pager
    operations.  Alongside the stalling readers run short zero-fill
    filler tasks — the unrelated work a stalled pager used to
    serialize.

    With the protocol-v2 serving path (the default) the kernel passes
    readahead hints (scatter-gather multi-page replies) and lends the
    stalled thread's CPU to the fillers during each backoff
    (``tasks_completed_during_pager_wait``).  ``serialize=True``
    reproduces the pre-v2 path for comparison: no readahead, and every
    backoff idles the machine.

    The report is :meth:`FaultTelemetry.report` plus the cell
    parameters, the injector's stall count, the v2 counters, and the
    total simulated ``elapsed_us``.
    """
    from repro.inject.injector import FaultConfig, FaultInjector
    from repro.inject.pagers import FaultyPager, StoreBackedPager
    from repro.sched.scheduler import Scheduler

    # Unlike the pageout-pressure storm, the pager storm gets ample
    # frames: its tail should be dominated by injected pager stalls,
    # not incidental reclaim churn while installing readahead
    # clusters.
    kernel = _boot(arch, tasks, pages,
                   frames=tasks * pages * 2 + 16)
    page = kernel.page_size
    size = pages * page
    telemetry = FaultTelemetry(keep_worst=keep_worst).attach(kernel)
    try:
        sched = Scheduler(kernel)
        if serialize:
            # The pre-v2 serving path: with no scheduler to lend the
            # CPU, every backoff idles the machine; one page per
            # request.
            kernel.scheduler = None
        else:
            kernel.readahead_pages = PAGER_STORM_READAHEAD
        injector = FaultInjector(seed,
                                 FaultConfig(pager_stall=PAGER_STALL_RATE))
        rng = random.Random(seed)
        fault_errors = 0

        readers = []
        for i in range(tasks):
            task = kernel.task_create(name=f"pstorm{i}")
            content = bytes((off // page) % 251 + 1
                            for off in range(size))
            pager = FaultyPager(StoreBackedPager(content), injector)
            order = list(range(0, size, page))
            rng.shuffle(order)
            readers.append((task, pager, order))

        def reader(i, task, pager, order):
            def body(ctx):
                nonlocal fault_errors
                for _ in range(i):
                    yield               # staggered start: the ramp
                for _ in range(rounds):
                    # A fresh mapping per round: the previous round's
                    # object is terminated on unmap, so every read
                    # faults through the (stalling) pager again.
                    base = kernel.vm_allocate_with_pager(task, size,
                                                         pager)
                    for off in order:
                        try:
                            ctx.read(base + off, 1)
                        except Exception:
                            # A retry budget exhausted under the seeded
                            # stall storm (pager declared dead) — the
                            # storm keeps going; later reads get the
                            # degraded zero-fill policy.
                            fault_errors += 1
                        yield
                    kernel.vm_deallocate(task, base, size)
                    yield
            return body

        def filler(j, task):
            def body(ctx):
                for _ in range(j):
                    yield               # staggered: spread the fleet
                addr = task.vm_allocate(2 * page)
                for off in range(0, 2 * page, page):
                    ctx.write(addr + off, b"f")
                    yield
            return body

        for i, (task, pager, order) in enumerate(readers):
            sched.spawn(task, reader(i, task, pager, order),
                        name=f"pstorm{i}-r")
        # A fleet of short zero-fill fillers staggered across the whole
        # run, so any pager backoff window has unrelated work pending —
        # the work the serialized path idles away and the v2 path
        # retires on borrowed CPU time.
        for j in range(tasks * rounds):
            task = kernel.task_create(name=f"pfill{j}")
            sched.spawn(task, filler(j, task), name=f"pfill{j}")
        sched.run(raise_on_failure=False)
    finally:
        telemetry.detach()

    stalls = sum(1 for site, _ in injector.injected
                 if site == "pager-stall")
    report = telemetry.report()
    report.update({
        "arch": arch,
        "tasks": tasks,
        "pages": pages,
        "rounds": rounds,
        "seed": seed,
        "serialized": serialize,
        "stalls_injected": stalls,
        "fault_errors": fault_errors,
        "elapsed_us": round(kernel.clock.now_us, 3),
        "tasks_completed_during_pager_wait":
            kernel.stats.tasks_completed_during_pager_wait,
        "faults_parked": kernel.stats.faults_parked,
        "readahead_pageins": kernel.stats.readahead_pageins,
    })
    return report, telemetry


def _open_matrix(storm: str, archs, quick: bool, tasks, pages, rounds,
                 seed: int, **header):
    """The prologue both storm matrices share: resolve the load shape
    (``None`` takes the quick or full default) and the arch list, and
    open the payload.  Returns ``(archs, payload, shape)``: *payload*
    carries the header fields, then *header*, then an empty
    ``"archs"`` dict; *shape* is the per-cell keyword arguments."""
    default = QUICK_LOAD if quick else FULL_LOAD
    shape = {"tasks": default[0] if tasks is None else tasks,
             "pages": default[1] if pages is None else pages,
             "rounds": default[2] if rounds is None else rounds,
             "seed": seed}
    if archs is None:
        archs = list(QUICK_ARCHS) if quick else list(BENCH_ARCHS)
    payload = {"storm": storm, "quick": quick, "seed": seed,
               "tasks": shape["tasks"], "pages": shape["pages"],
               "rounds": shape["rounds"], **header, "archs": {}}
    return archs, payload, shape


def run_pager_storm_matrix(archs=None, quick: bool = False,
                           tasks: int | None = None,
                           pages: int | None = None,
                           rounds: int | None = None,
                           seed: int = STORM_SEED,
                           keep_worst: int = 8):
    """Run the pager-stall storm across the arch matrix.

    Each cell runs twice — the v2 serving path and the serialized
    pre-v2 path on the same shape and seed — so the report carries its
    own control: ``payload["archs"][arch]`` is the v2 report plus a
    ``serialized`` sub-dict and ``p99_vs_serialized`` /
    ``elapsed_vs_serialized`` ratios (< 1 means v2 is better).
    """
    archs, payload, shape = _open_matrix(
        "pager-stall", archs, quick, tasks, pages, rounds, seed,
        stall_rate=PAGER_STALL_RATE)
    telemetries = {}
    for arch in archs:
        cell, telemetry = run_pager_storm(
            arch=arch, keep_worst=keep_worst, **shape)
        control, _ = run_pager_storm(
            arch=arch, keep_worst=keep_worst, serialize=True, **shape)
        cell["serialized"] = {
            key: control[key]
            for key in ("p50_us", "p99_us", "p999_us", "max_us",
                        "elapsed_us", "stalls_injected",
                        "fault_errors",
                        "tasks_completed_during_pager_wait")
        }
        cell["p99_vs_serialized"] = (
            round(cell["p99_us"] / control["p99_us"], 3)
            if control["p99_us"] else None)
        cell["elapsed_vs_serialized"] = (
            round(cell["elapsed_us"] / control["elapsed_us"], 3)
            if control["elapsed_us"] else None)
        payload["archs"][arch] = cell
        telemetries[arch] = telemetry
    return payload, telemetries


def pager_slo_violations(payload) -> list[str]:
    """One message per cell of a :func:`run_pager_storm_matrix`
    payload that misses :data:`PAGER_SERIALIZED_SLO`, or that has no
    control ratio to judge it by."""
    problems = []
    for arch, cell in payload["archs"].items():
        ratio = cell["p99_vs_serialized"]
        if ratio is None:
            problems.append(f"{arch}: no p99_vs_serialized ratio (the "
                            f"serialized control recorded no faults)")
        elif ratio > PAGER_SERIALIZED_SLO:
            problems.append(
                f"{arch}: v2 p99 is {ratio:.3f}x its serialized "
                f"control (SLO {PAGER_SERIALIZED_SLO:.2f}x)")
    return problems


def run_storm_matrix(archs=None, quick: bool = False,
                     tasks: int | None = None,
                     pages: int | None = None,
                     rounds: int | None = None,
                     seed: int = STORM_SEED,
                     keep_worst: int = 8):
    """Run the storm across the arch matrix.

    Returns ``(payload, telemetries)``: *payload* is the JSON report
    (``payload["archs"][arch]`` holds each cell's percentiles and
    per-stage breakdown), *telemetries* maps arch name to its
    :class:`FaultTelemetry` for trace export.
    """
    archs, payload, shape = _open_matrix(
        "fault-tail-latency", archs, quick, tasks, pages, rounds, seed)
    telemetries = {}
    for arch in archs:
        report, telemetry = run_storm(arch=arch, keep_worst=keep_worst,
                                      **shape)
        payload["archs"][arch] = report
        telemetries[arch] = telemetry
    return payload, telemetries
