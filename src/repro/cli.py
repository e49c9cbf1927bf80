"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``machines`` — list the simulated machine presets and their MMU
  parameters;
* ``demo [--machine NAME]`` — run the core-mechanism walkthrough
  (allocate, fault, COW fork, sharing, statistics) on a chosen machine;
* ``bench [--table {7-1,7-2}] [--quick]`` — regenerate the paper's
  evaluation tables (host wall-clock is measured by ``perf/run.py``);
* ``fault-trace [--machine NAME]`` — narrate every step of a single
  copy-on-write fault, for teaching (including the event-bus span tree
  of the fault);
* ``trace [--machine NAME] [--format {chrome,summary,spans}]
  [--quick] [--out FILE]`` — record a workload on the instrumentation
  bus (:mod:`repro.obs`) and export it: Chrome ``trace_event`` JSON
  (loadable in Perfetto / ``chrome://tracing``, one lane per simulated
  CPU plus daemon/pager lanes), a summary (the kernel's non-zero
  ``KernelStats`` counters, the fault-latency and shadow-depth
  distributions and a top-N self-time profile), or the nested span
  tree with that profile;
* ``storm [--arch NAME] [--tasks N] [--pages N] [--rounds N]
  [--seed N] [--pager] [--quick] [--json] [--out FILE]
  [--trace-out FILE]`` — the fault-storm load generator: ramp N
  concurrent faulting tasks on an overcommitted machine across the
  pmap arch matrix and report the fault-latency distribution
  (p50/p95/p99/p999) with per-pipeline-stage attribution from
  :class:`repro.obs.FaultTelemetry`; ``--trace-out`` exports the
  worst-percentile faults as Chrome trace_event JSON; ``--pager``
  runs the pager-stall storm instead and exits 1 when any cell's v2
  p99 loses to its own serialized control;
* ``check [--lint-only] [--report FILE] [--no-cache]`` — run the
  static analyses over the source tree (MD/MI layering lint,
  concurrency lint, and the six dataflow passes: resource lifecycle,
  pmap MI-contract conformance, error-path completeness, determinism,
  interprocedural typestate, atomicity), then the runtime invariant
  sweeps on all five pmap architectures (see :mod:`repro.analysis`);
  results are cached under ``.repro-cache/`` so unchanged modules are
  not re-analyzed (``--no-cache`` disables); ``--report`` writes a
  versioned JSON report; a crashing analysis is reported as an
  analysis error, never as a clean tree;
* ``faultsweep [--quick] [--seed N]`` — the fault-injection survival
  matrix: errant pagers, flaky disks and lossy IPC against every pmap
  architecture (see :mod:`repro.inject`);
* ``races [--quick] [--seed N] [--explore]`` — the concurrency storm:
  seeded-random schedules over fork+COW, pageout-pressure and
  shootdown workloads with the happens-before race detector armed, on
  every pmap architecture x shootdown strategy; ``--explore`` runs a
  bounded DFS over the schedules of a small shootdown workload (see
  :mod:`repro.analysis.race`).
"""

from __future__ import annotations

import argparse
import sys

from repro import hw
from repro.analysis.matrix import (
    FAULT_SEED,
    RACE_SEED,
    SWEEP_ARCHS,
    default_archs,
    explore_shootdown,
    run_faultsweep,
    run_races,
    run_sweeps,
)
from repro.analysis.scenarios import CHECK, FAULTS, STORMS
from repro.bench.testing import BENCH_ARCHS
from repro.core.constants import FaultType, VMInherit
from repro.core.kernel import MachKernel
from repro.pmap.interface import ShootdownStrategy

KB = 1024


def cmd_machines(args: argparse.Namespace) -> int:
    """``repro machines``: list the simulated machines."""
    header = (f"{'machine':<20} {'pmap':<9} {'hw page':>8} "
              f"{'mach page':>10} {'cpus':>5} {'memory':>8} "
              f"{'va limit':>10}")
    print(header)
    print("-" * len(header))
    for spec in hw.ALL_SPECS:
        print(f"{spec.name:<20} {spec.pmap_name:<9} "
              f"{spec.hw_page_size:>8} {spec.default_page_size:>10} "
              f"{spec.ncpus:>5} {spec.memory_bytes // (1 << 20):>6}MB "
              f"{spec.va_limit // (1 << 20):>8}MB")
    return 0


def _resolve_machine(name: str):
    try:
        return hw.spec_by_name(name)
    except KeyError:
        choices = ", ".join(s.name for s in hw.ALL_SPECS)
        print(f"unknown machine {name!r}; choose from: {choices}",
              file=sys.stderr)
        raise SystemExit(2)


def cmd_demo(args: argparse.Namespace) -> int:
    """``repro demo``: run the core-mechanism walkthrough."""
    spec = _resolve_machine(args.machine)
    kernel = MachKernel(spec)
    print(f"booted {spec.name}: {kernel.machine.hw_page_size}-byte "
          f"hardware pages, {kernel.page_size}-byte Mach pages, "
          f"{len(kernel.machine.cpus)} cpu(s), "
          f"{spec.pmap_name!r} pmap")

    task = kernel.task_create(name="demo")
    addr = task.vm_allocate(64 * KB)
    task.write(addr, b"machine independent memory")
    print(f"\nallocated 64K at {addr:#x}; first write took "
          f"{kernel.stats.faults} fault(s)")

    child = task.fork()
    child.write(addr, b"COPY-ON-WRITE")
    print(f"after COW fork + child write: parent reads "
          f"{task.read(addr, 7)!r}, child reads "
          f"{child.read(addr, 13)!r}")

    shared = task.vm_allocate(8 * KB)
    task.vm_inherit(shared, 8 * KB, VMInherit.SHARE)
    sharer = task.fork()
    sharer.write(shared, b"shared pages")
    print(f"after SHARE fork + child write: parent reads "
          f"{task.read(shared, 12)!r}")

    print("\n" + kernel.vm_statistics().describe())
    print(f"\nsimulated: {kernel.clock.cpu_ms:.2f} ms cpu / "
          f"{kernel.clock.elapsed_ms:.2f} ms elapsed")
    return 0


def cmd_fault_trace(args: argparse.Namespace) -> int:
    """``repro fault-trace``: narrate one COW fault."""
    spec = _resolve_machine(args.machine)
    kernel = MachKernel(spec)
    task = kernel.task_create(name="tracer")
    page = kernel.page_size

    print(f"machine: {spec.name} ({spec.pmap_name} pmap)\n")
    addr = task.vm_allocate(4 * page)
    print(f"1. vm_allocate(4 pages) -> {addr:#x}")
    found, entry = task.vm_map.lookup_entry(addr)
    print(f"   map entry: {entry!r}")
    print("   note: no memory object yet (lazy zero fill)\n")

    task.write(addr, b"A")
    found, entry = task.vm_map.lookup_entry(addr)
    print(f"2. first write -> zero-fill fault")
    print(f"   object materialized: {entry.vm_object!r}")
    print(f"   pmap now maps it: phys "
          f"{task.pmap.extract(addr):#x}\n")

    child = task.fork()
    found, centry = child.vm_map.lookup_entry(addr)
    print(f"3. fork -> symmetric copy-on-write")
    print(f"   parent entry: {entry!r}")
    print(f"   child  entry: {centry!r}\n")

    from repro.obs import EventRecorder, build_spans, render_spans

    with EventRecorder(kernel.events) as recorder:
        outcome = kernel.fault(child, addr, FaultType.WRITE)
    found, centry = child.vm_map.lookup_entry(addr)
    print(f"4. child write fault:")
    print(f"   shadow created: {outcome.shadow_created}, "
          f"page copied: {outcome.cow_copied}")
    print(f"   child entry now: {centry!r}")
    print(f"   shadow chain: "
          f"{[f'#{o.object_id}' for o in centry.vm_object.chain()]}")
    print(f"\n5. the same fault as the event bus saw it:")
    for line in render_spans(build_spans(recorder.events)).splitlines():
        print(f"   {line}")
    print(f"\nstatistics: {kernel.stats!r}")
    return 0


def _trace_workload_demo(kernel, quick: bool) -> None:
    """The fork+COW walkthrough, scheduled over every CPU, plus a
    memory-mapped file (fault -> pager call -> disk I/O spans) and one
    pageout-daemon pass — enough traffic to light up every lane."""
    from repro.fs.filesystem import FileSystem
    from repro.pager.vnode_pager import map_file
    from repro.sched.scheduler import Scheduler

    page = kernel.page_size
    npages = 2 if quick else 6
    sched = Scheduler(kernel)

    parent = kernel.task_create(name="cow-parent")
    addr = parent.vm_allocate(npages * page)
    for off in range(0, npages * page, page):
        parent.write(addr + off, bytes([off // page + 1]))
    tasks = [parent]
    while len(tasks) < len(kernel.machine.cpus):
        tasks.append(tasks[-1].fork())

    def writer(ctx):
        for off in range(0, npages * page, page):
            ctx.write(addr + off, bytes([65 + off // page]))
            yield
            assert ctx.read(addr + off, 1) == bytes([65 + off // page])
            yield

    for task in tasks:
        sched.spawn(task, writer, name=f"{task.name}-w")
    sched.run()

    # A memory-mapped file: faults route through the vnode pager to
    # the simulated disk, nesting fault -> pager call -> disk read.
    fs = FileSystem(kernel.machine, nbufs=32)
    nblocks = 1 if quick else 3
    fs.write("/trace/data", b"mach" * (nblocks * fs.block_size // 4))
    fs.buffer_cache.sync()
    reader = kernel.task_create(name="file-reader")
    maddr = map_file(kernel, reader, fs, "/trace/data")
    for off in range(0, nblocks * fs.block_size, page):
        reader.read(maddr + off, 4)

    # A user-state pager: its server loop runs on the "pager" lane.
    from repro.pager.base import ExternalPagerAdapter, \
        SimpleReadWritePager
    adapter = ExternalPagerAdapter(
        SimpleReadWritePager(b"EXT!" * (page // 4)), kernel=kernel)
    ext = kernel.task_create(name="ext-reader")
    eaddr = kernel.vm_allocate_with_pager(ext, page, adapter)
    ext.read(eaddr, 4)

    kernel.pageout_daemon.run()


def _trace_summary(kernel: MachKernel, telemetry, events) -> str:
    """The ``--format=summary`` header: the kernel's non-zero counters
    (``KernelStats`` plus ``shootdowns``), then the fault-latency and
    shadow-chain-depth distributions of the recorded faults."""
    from repro.obs import Histogram

    counters = dict(vars(kernel.stats),
                    shootdowns=kernel.pmap_system.shootdowns)
    lines = ["derived counters:"]
    lines += [f"  {name:<20} {value}"
              for name, value in sorted(counters.items()) if value]
    if len(lines) == 1:
        lines.append("  (none)")
    depth = Histogram("shadow_chain_depth")
    for event in events:
        if (event.phase == "E" and event.name == "vm/fault"
                and "depth" in event.data):
            depth.record(event.data["depth"])
    lines.append("distributions:")
    lines += [f"  {histogram.summary()}"
              for histogram in (telemetry.latency, depth)
              if histogram.count]
    return "\n".join(lines)


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: record a workload on the bus and export it."""
    from repro.obs import (
        EventRecorder,
        FaultTelemetry,
        build_spans,
        chrome_trace_json,
        profile,
        render_spans,
        validate_chrome_trace,
    )

    spec = _resolve_machine(args.machine)
    kernel = MachKernel(spec)
    recorder = EventRecorder(kernel.events)
    telemetry = FaultTelemetry().attach(kernel)
    try:
        _trace_workload_demo(kernel, quick=args.quick)
    finally:
        recorder.detach()
        telemetry.detach()
    events = recorder.events

    if args.format == "chrome":
        text = chrome_trace_json(events)
        problems = validate_chrome_trace(text)
        if problems:
            for problem in problems:
                print(f"invalid trace: {problem}", file=sys.stderr)
            return 1
    elif args.format == "spans":
        text = (render_spans(build_spans(events))
                + "\n\n" + profile(events))
    else:
        text = (_trace_summary(kernel, telemetry, events)
                + "\n\n" + profile(events)
                + f"\n\n{len(events)} events on the bus"
                + (f" ({recorder.dropped} dropped)" if recorder.dropped
                   else ""))

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(events)} events to {args.out} "
              f"({args.format})")
    else:
        print(text)
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    """``repro show``: run a small workload and render the kernel's
    data structures as ASCII diagrams."""
    from repro.viz import render_queues, render_task

    spec = _resolve_machine(args.machine)
    kernel = MachKernel(spec)
    task = kernel.task_create(name="demo")
    addr = task.vm_allocate(4 * kernel.page_size)
    task.write(addr, b"rendered")
    shared = task.vm_allocate(kernel.page_size)
    task.vm_inherit(shared, kernel.page_size, VMInherit.SHARE)
    child = task.fork()
    child.write(addr, b"COW!")
    child.write(shared, b"shared")

    print(render_task(task))
    print()
    print(render_task(child))
    print()
    print("resident page queues:")
    print(render_queues(kernel))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench``: regenerate the paper's evaluation tables."""
    from repro.bench import (
        BsdSUT, FORK_TEST_PROGRAM, MachSUT, SunOsSUT,
        THIRTEEN_PROGRAMS, Table, fmt_sys_elapsed, measure_fork,
        measure_read_file, measure_zero_fill, run_compile_workload,
    )
    from repro.bench.workloads import KB as KB_, MB

    tables = []
    if args.table in (None, "7-1"):
        t1 = Table("Table 7-1: zero fill 1K / fork 256K",
                   ("Mach", "UNIX"))
        rows = ((hw.IBM_RT_PC, BsdSUT, ".45/.58",),
                (hw.MICROVAX_II, BsdSUT, ".58/1.2"),
                (hw.SUN_3_160, SunOsSUT, ".23/.27"))
        for spec, base, paper in rows:
            zm = measure_zero_fill(MachSUT(spec))
            zu = measure_zero_fill(base(spec))
            t1.add(f"zero fill 1K ({spec.name})",
                   f"{zm.cpu_ms:.2f}ms", f"{zu.cpu_ms:.2f}ms",
                   paper.split("/")[0] + "ms", paper.split("/")[1] + "ms")
        paper_fork = {"IBM RT PC": ("41ms", "145ms"),
                      "MicroVAX II": ("59ms", "220ms"),
                      "SUN 3/160": ("68ms", "89ms")}
        for spec, base, _ in rows:
            fm = measure_fork(MachSUT(spec))
            fu = measure_fork(base(spec))
            t1.add(f"fork 256K ({spec.name})",
                   f"{fm.cpu_ms:.0f}ms", f"{fu.cpu_ms:.0f}ms",
                   *paper_fork[spec.name])
        tables.append(t1)
        if not args.quick:
            t2 = Table("Table 7-1: read file (VAX 8200)",
                       ("Mach", "UNIX"))
            for label, size in (("2.5M", int(2.5 * MB)),
                                ("50K", 50 * KB_)):
                mf, ms = measure_read_file(MachSUT(hw.VAX_8200), size)
                uf, us = measure_read_file(BsdSUT(hw.VAX_8200), size)
                t2.add(f"read {label} first", fmt_sys_elapsed(mf),
                       fmt_sys_elapsed(uf))
                t2.add(f"read {label} second", fmt_sys_elapsed(ms),
                       fmt_sys_elapsed(us))
            tables.append(t2)
    if args.table in (None, "7-2"):
        t3 = Table("Table 7-2: compilation", ("Mach", "UNIX"))
        spec13 = THIRTEEN_PROGRAMS if not args.quick else \
            FORK_TEST_PROGRAM
        m = run_compile_workload(MachSUT(hw.VAX_8650), spec13)
        u = run_compile_workload(BsdSUT(hw.VAX_8650, nbufs=64), spec13)
        label = "13 programs" if not args.quick else "1 compile"
        t3.add(f"{label} (generic config)",
               f"{m.elapsed_ms / 1000:.1f}s",
               f"{u.elapsed_ms / 1000:.1f}s",
               "19s" if not args.quick else "", "1:16" if not
               args.quick else "")
        tables.append(t3)
    for table in tables:
        print(table.render())
        print()
    return 0


def _ratio(value) -> str:
    return "n/a" if value is None else f"{value:.3f}x"


def cmd_storm(args: argparse.Namespace) -> int:
    """``repro storm``: the fault-storm load generator — tail-latency
    percentiles with per-stage attribution across the arch matrix."""
    import json

    from repro.bench.storm import (
        STORM_SEED, pager_slo_violations, run_pager_storm_matrix,
        run_storm_matrix,
    )
    from repro.obs import validate_chrome_trace
    from repro.obs.telemetry import format_latency_report

    seed = STORM_SEED if args.seed is None else args.seed
    archs = [args.arch] if args.arch else None
    runner = run_pager_storm_matrix if args.pager else run_storm_matrix
    payload, telemetries = runner(
        archs=archs, quick=args.quick, tasks=args.tasks,
        pages=args.pages, rounds=args.rounds, seed=seed)

    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.out}")
        else:
            print(text)
    elif args.pager:
        print(f"pager-stall storm (seed={seed:#x}): "
              f"{payload['tasks']} tasks x {payload['pages']} pages "
              f"x {payload['rounds']} rounds, stall rate "
              f"{payload['stall_rate']:.0%}")
        for arch, cell in payload["archs"].items():
            control = cell["serialized"]
            print(f"\n{arch}: p99 {cell['p99_us']:.0f}us vs "
                  f"{control['p99_us']:.0f}us serialized "
                  f"({_ratio(cell['p99_vs_serialized'])}), elapsed "
                  f"{_ratio(cell['elapsed_vs_serialized'])}, "
                  f"{cell['tasks_completed_during_pager_wait']} tasks "
                  f"completed during pager waits, "
                  f"{cell['readahead_pageins']} readahead pageins")
    else:
        print(f"fault storm (seed={seed:#x}): "
              f"{payload['tasks']} tasks x {payload['pages']} pages "
              f"x {payload['rounds']} rounds, ~2x overcommit")
        for arch, report in payload["archs"].items():
            print(f"\n{arch}:")
            print(format_latency_report(report))

    if args.trace_out:
        # The worst-percentile faults of the first arch in the run
        # (narrow with --arch to trace a specific architecture).
        first = next(iter(telemetries))
        trace = telemetries[first].worst_chrome_trace(
            process_name=f"repro-storm-{first}")
        problems = validate_chrome_trace(trace)
        if problems:
            for problem in problems:
                print(f"invalid trace: {problem}", file=sys.stderr)
            return 1
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(trace, separators=(",", ":")))
            handle.write("\n")
        print(f"wrote worst-fault trace ({first}) to "
              f"{args.trace_out}")
    if args.pager:
        violations = pager_slo_violations(payload)
        for problem in violations:
            print(f"pager-storm SLO FAIL: {problem}", file=sys.stderr)
        if violations:
            return 1
    return 0


def _lint_tree_digest(source):
    """Digest of every file of *source* (the run's
    :class:`~repro.analysis.flow.SourceTree`) plus the lint versions —
    the key under which the layering/concurrency lint results are
    cached.  None (cache miss) when there is no tree or anything goes
    wrong; the lints then just run."""
    if source is None:
        return None
    try:
        from repro.analysis.cache import tree_digest
        from repro.analysis.layering import LINT_VERSION as LAYERING_VERSION
        from repro.analysis.race import LINT_VERSION as RACE_VERSION

        return tree_digest(source.sources,
                           {"lint:layering": LAYERING_VERSION,
                            "lint:race": RACE_VERSION})
    except Exception:
        return None


def cmd_check(args: argparse.Namespace) -> int:
    """``repro check``: static analysis, then invariant sweeps."""
    from time import perf_counter

    from repro.analysis import (
        FlowReport,
        lint_source_concurrency,
        lint_source_tree,
        run_flow_passes,
    )
    from repro.analysis.cache import DEFAULT_DIR, AnalysisCache
    from repro.analysis.flow import PASS_NAMES, SourceTree
    from repro.analysis.report import render_report

    cache_dir = None if args.no_cache else DEFAULT_DIR
    started = perf_counter()
    problems: list[str] = []     # findings + analysis errors (--report)

    def guarded(label, lint):
        # A crashing analysis is itself a finding: reporting the tree
        # clean because the checker died would be lying.
        try:
            return lint()
        except Exception as exc:
            problems.append(f"analysis error: {label} crashed: {exc!r}")
            return []

    # One read of the tree for the whole run: the lint digest, both
    # lints and the flow passes all see this one version of each file
    # (and each module is parsed at most once).  Should the read fail,
    # each analysis reads for itself and reports the failure.
    try:
        source = SourceTree()
    except Exception:
        source = None
    lint_cache = AnalysisCache(cache_dir) if cache_dir is not None \
        else None
    lint_digest = _lint_tree_digest(source) if lint_cache is not None \
        else None
    cached_lint = lint_cache.load_lint(lint_digest) \
        if lint_digest is not None else None
    if cached_lint is not None:
        print("layering + concurrency lints: unchanged tree, served "
              "from cache")
        lint_lines = [str(v) for v in cached_lint.get("violations", [])]
    else:
        print("layering lint: checking the MD/MI import contract ...")
        violations = guarded("layering lint",
                             lambda: lint_source_tree(source))
        print("concurrency lint: guarded-by contract ...")
        violations += guarded("concurrency lint",
                              lambda: lint_source_concurrency(source))
        lint_lines = [str(v) for v in violations]
        # Never cache a run where a lint crashed (problems non-empty
        # here can only mean a crash) — the next run must retry it.
        if lint_cache is not None and lint_digest is not None \
                and not problems:
            try:
                lint_cache.store_lint(lint_digest, lint_lines)
            except OSError:
                pass
    print("flow passes: " + ", ".join(PASS_NAMES) + " ...")
    try:
        flow = run_flow_passes(cache_dir=cache_dir, jobs=args.jobs,
                               source=source)
    except Exception as exc:
        problems.append(f"analysis error: flow passes crashed: {exc!r}")
        flow = FlowReport((), (), ())

    problems += lint_lines
    problems += [str(f) for f in flow.findings]
    problems += [f"analysis error: {e.pass_name} pass crashed: "
                 f"{e.message}" for e in flow.errors]
    for line in problems:
        print(f"  {line}")
    wall = perf_counter() - started
    print(f"flow passes: analyzed {len(flow.analyzed)} module(s), "
          f"{len(flow.cached)} cached ({wall:.2f}s)")
    suffix = (f" ({len(flow.suppressed)} reviewed suppression(s))"
              if flow.suppressed else "")
    print(f"lint: {len(problems)} problem(s){suffix}" if problems
          else f"lint: clean{suffix}")
    if cache_dir is not None:
        try:
            AnalysisCache(cache_dir).write_stats({
                "analyzed": len(flow.analyzed),
                "cached": len(flow.cached),
                "wall_s": round(wall, 3),
            })
        except OSError as exc:
            print(f"warning: could not write cache stats: {exc}",
                  file=sys.stderr)
    if args.report:
        text = render_report(
            problems, list(flow.findings), list(flow.errors),
            suppressed=len(flow.suppressed),
            analyzed=len(flow.analyzed), cached=len(flow.cached),
            wall_s=wall)
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote report ({len(problems)} problem(s)) to "
              f"{args.report}")
    if problems:
        return 1
    if args.lint_only:
        return 0

    archs = [args.arch] if args.arch else None
    print(f"\ninvariant sweeps: {', '.join(CHECK)} "
          f"on {', '.join(archs or SWEEP_ARCHS)} ...")
    results = run_sweeps(archs=archs, verbose=True, jobs=args.jobs)
    failed = [r for r in results if not r.ok]
    print(f"\nsweeps: {len(results) - len(failed)}/{len(results)} "
          f"cells passed")
    return 1 if failed else 0


def cmd_faultsweep(args: argparse.Namespace) -> int:
    """``repro faultsweep``: the fault-injection survival matrix."""
    archs = [args.arch] if args.arch else None
    scenarios = [args.scenario] if args.scenario else None
    print(f"fault sweep (seed={args.seed:#x}): "
          f"{', '.join(scenarios or FAULTS)}")
    print(f"architectures: "
          f"{', '.join(archs or default_archs(args.quick))}\n")
    results = run_faultsweep(archs=archs, scenarios=scenarios,
                             seed=args.seed, quick=args.quick,
                             verbose=True, jobs=args.jobs)
    failed = [r for r in results if not r.ok]
    injected = sum(r.injected for r in results)
    absorbed = sum(r.typed_errors for r in results)
    print(f"\nsweep: {len(results) - len(failed)}/{len(results)} cells "
          f"survived ({injected} faults injected, {absorbed} typed "
          f"errors absorbed)")
    return 1 if failed else 0


def cmd_races(args: argparse.Namespace) -> int:
    """``repro races``: the concurrency storm / schedule explorer."""
    if args.explore:
        strategy = ShootdownStrategy(args.strategy) if args.strategy \
            else ShootdownStrategy.DEFERRED
        arch = args.arch or "generic"
        print(f"schedule exploration: bounded DFS over the small "
              f"shootdown workload ({arch}, {strategy.value}) ...")
        result = explore_shootdown(arch=arch, strategy=strategy,
                                   max_schedules=args.max_schedules)
        print(f"explored {result.schedules_explored} schedule(s), "
              f"{result.decision_points} decision point(s) deep, "
              f"{result.pruned} branch(es) pruned by state hash")
        for prefix, detail in result.failures:
            print(f"  FAILING SCHEDULE {list(prefix)}: {detail}")
        print("exploration: " + ("clean" if result.ok else
                                 f"{len(result.failures)} failure(s)"))
        return 0 if result.ok else 1

    archs = [args.arch] if args.arch else None
    strategies = [ShootdownStrategy(args.strategy)] if args.strategy \
        else None
    print(f"race storm (seed={args.seed:#x}): {', '.join(STORMS)} "
          f"under seeded-random schedules")
    names = ", ".join(archs or default_archs(args.quick))
    print(f"architectures: {names}; strategies: "
          f"{', '.join(s.value for s in (strategies or ShootdownStrategy))}"
          f"\n")
    results = run_races(archs=archs, strategies=strategies,
                        seed=args.seed, quick=args.quick, verbose=True,
                        jobs=args.jobs)
    failed = [r for r in results if not r.ok]
    races = sum(r.races for r in results)
    events = sum(r.events for r in results)
    print(f"\nstorm: {len(results) - len(failed)}/{len(results)} cells "
          f"clean ({races} race(s), {events} events timestamped)")
    return 1 if failed else 0


def _positive_int(value: str) -> int:
    """argparse type for load-shape sizes and ``--jobs``: an integer of
    at least 1."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, "
                                         f"got {number}")
    return number


def _base_seed(value: str) -> int:
    """argparse type for a matrix base seed: an integer literal in
    ``[0, 2**32)``.  Per-cell seeds are 32-bit, so a wider base would
    replay some other base's cells."""
    number = int(value, 0)
    if not 0 <= number < 1 << 32:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**32), "
                                         f"got {value}")
    return number


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mach VM reproduction (Rashid et al., ASPLOS "
                    "1987)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="list simulated machines")

    demo = sub.add_parser("demo", help="core-mechanism walkthrough")
    demo.add_argument("--machine", default="MicroVAX II")

    ftrace = sub.add_parser("fault-trace",
                            help="narrate one copy-on-write fault")
    ftrace.add_argument("--machine", default="MicroVAX II")

    trace = sub.add_parser(
        "trace",
        help="record a workload on the instrumentation bus and "
             "export it (Chrome trace / counter summary / span tree)")
    trace.add_argument("--machine", default="VAX 11/784",
                       help="machine preset (default is a 4-CPU VAX "
                            "so the trace shows one lane per CPU)")
    trace.add_argument("--format", choices=["chrome", "summary",
                                            "spans"],
                       default="chrome",
                       help="chrome: Perfetto-loadable trace_event "
                            "JSON; summary: kernel counters, fault "
                            "latency + top-N profile; spans: the "
                            "nested span tree")
    trace.add_argument("--quick", action="store_true",
                       help="smaller workload (CI smoke)")
    trace.add_argument("--out", help="write to a file instead of "
                                     "stdout")

    show = sub.add_parser("show",
                          help="render kernel structures as ASCII")
    show.add_argument("--machine", default="MicroVAX II")

    bench = sub.add_parser("bench", help="regenerate evaluation tables")
    bench.add_argument("--table", choices=["7-1", "7-2"])
    bench.add_argument("--quick", action="store_true",
                       help="smaller workloads")

    storm = sub.add_parser(
        "storm",
        help="fault-storm load generator: tail-latency percentiles "
             "(p50/p95/p99/p999) with per-pipeline-stage attribution")
    storm.add_argument("--arch", choices=list(BENCH_ARCHS),
                       help="storm a single pmap architecture "
                            "(default: the whole matrix)")
    storm.add_argument("--tasks", type=_positive_int, default=None,
                       help="concurrent faulting tasks (default 8, "
                            "quick 4)")
    storm.add_argument("--pages", type=_positive_int, default=None,
                       help="pages per task working set (default 6, "
                            "quick 4)")
    storm.add_argument("--rounds", type=_positive_int, default=None,
                       help="forget/refault rounds per task "
                            "(default 3, quick 2)")
    storm.add_argument("--seed", type=lambda v: int(v, 0),
                       default=None,
                       help="seed for per-task page-visit orders "
                            "(recorded in the report)")
    storm.add_argument("--pager", action="store_true",
                       help="pager-stall storm: external-style store "
                            "pagers with injected transient stalls, "
                            "each cell paired with a serialized "
                            "pre-v2 control; exits 1 when a cell's "
                            "v2 p99 loses to its control")
    storm.add_argument("--quick", action="store_true",
                       help="3 architectures, smaller load (CI smoke)")
    storm.add_argument("--json", action="store_true",
                       help="emit the JSON latency report instead of "
                            "the per-arch tables")
    storm.add_argument("--out", help="output file for --json")
    storm.add_argument("--trace-out",
                       help="also export the worst-percentile faults "
                            "of the first arch as Chrome trace_event "
                            "JSON")

    check = sub.add_parser(
        "check", help="static analysis + runtime invariant sweeps")
    check.add_argument("--lint-only", action="store_true",
                       help="run only the static analyses (no sweeps)")
    check.add_argument("--report",
                       help="also write a versioned JSON report "
                            "(schema_version, findings sorted by "
                            "file/line/rule, analysis errors) to "
                            "this file")
    check.add_argument("--no-cache", action="store_true",
                       help="ignore and don't write the incremental "
                            "analysis cache (.repro-cache/)")
    check.add_argument("--arch", choices=list(SWEEP_ARCHS),
                       help="sweep a single pmap architecture")
    check.add_argument("--jobs", type=_positive_int, default=None,
                       help="run arch x workload sweep cells in N "
                            "worker processes (default serial)")

    fault = sub.add_parser(
        "faultsweep",
        help="fault-injection survival matrix (errant pagers, flaky "
             "disks, lossy IPC)")
    fault.add_argument("--quick", action="store_true",
                       help="3 architectures, smaller workloads")
    fault.add_argument("--seed", type=_base_seed, default=FAULT_SEED,
                       help="base seed (every cell derives its own)")
    fault.add_argument("--arch", choices=list(SWEEP_ARCHS),
                       help="sweep a single pmap architecture")
    fault.add_argument("--scenario", choices=list(FAULTS),
                       help="run a single fault scenario")
    fault.add_argument("--jobs", type=_positive_int, default=None,
                       help="run arch x scenario cells in N worker "
                            "processes (default serial)")

    races = sub.add_parser(
        "races",
        help="concurrency storm: seeded-random schedules + "
             "happens-before TLB race detector")
    races.add_argument("--quick", action="store_true",
                       help="3 architectures instead of 5")
    races.add_argument("--seed", type=_base_seed, default=RACE_SEED,
                       help="base seed (every cell derives its own; "
                            "printed per cell for replay)")
    races.add_argument("--arch", choices=list(SWEEP_ARCHS),
                       help="storm a single pmap architecture")
    races.add_argument("--strategy",
                       choices=[s.value for s in ShootdownStrategy],
                       help="storm a single shootdown strategy")
    races.add_argument("--explore", action="store_true",
                       help="bounded DFS over schedules of a small "
                            "shootdown workload instead of the storm")
    races.add_argument("--max-schedules", type=_positive_int,
                       default=150,
                       help="schedule budget for --explore")
    races.add_argument("--jobs", type=_positive_int, default=None,
                       help="run arch x strategy storm cells in N "
                            "worker processes (default serial)")
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "machines": cmd_machines,
        "demo": cmd_demo,
        "fault-trace": cmd_fault_trace,
        "trace": cmd_trace,
        "show": cmd_show,
        "bench": cmd_bench,
        "storm": cmd_storm,
        "check": cmd_check,
        "faultsweep": cmd_faultsweep,
        "races": cmd_races,
    }[args.command]
    return handler(args)


def check_entry() -> int:
    """Console entry point: ``repro-check`` == ``repro check``."""
    return main(["check"] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
