#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md by running every benchmark workload and
recording paper-vs-measured for each table row.

Run:  python benchmarks/make_report.py  (from the repository root)

With ``--check`` it writes nothing: it exits 1 and prints a unified
diff when EXPERIMENTS.md would change, 0 when it is up to date.
"""

from __future__ import annotations

import argparse
import difflib
import io
import sys

from repro import hw
from repro.bench import (
    BsdSUT,
    FORK_TEST_PROGRAM,
    MACH_KERNEL_BUILD,
    MachSUT,
    SunOsSUT,
    THIRTEEN_PROGRAMS,
    Table,
    fmt_min,
    fmt_sys_elapsed,
    measure_fork,
    measure_read_file,
    measure_zero_fill,
    run_compile_workload,
)
from repro.bench.workloads import KB, MB

GENERIC_NBUFS = 64

HEADER = """\
# EXPERIMENTS — paper vs. measured

All numbers below are **simulated times** produced by running the
reproduced algorithms on the simulated hardware substrate
(`repro.hw`), next to the numbers published in the paper (Rashid et
al., ASPLOS 1987, Tables 7-1 and 7-2).  Per DESIGN.md, per-operation
*microcosts* were calibrated against the paper's Table 7-1 Mach column;
everything structural — fault counts, page copies, disk transfers,
cache behaviour, who wins and by what factor — emerges from executing
the actual machine-independent VM code against the baselines.

Regenerate with `python benchmarks/make_report.py`; the same workloads
run (with shape assertions) under
`pytest benchmarks/ --benchmark-only`.

"""


def zero_fill_table() -> Table:
    table = Table("Table 7-1 — zero fill 1K (ms, CPU)",
                  ("Mach", "UNIX"))
    rows = ((hw.IBM_RT_PC, BsdSUT, ".45ms", ".58ms"),
            (hw.MICROVAX_II, BsdSUT, ".58ms", "1.2ms"),
            (hw.SUN_3_160, SunOsSUT, ".23ms", ".27ms"))
    for spec, base, paper_mach, paper_unix in rows:
        mach = measure_zero_fill(MachSUT(spec))
        unix = measure_zero_fill(base(spec))
        table.add(f"zero fill 1K ({spec.name})",
                  f"{mach.cpu_ms:.2f}ms", f"{unix.cpu_ms:.2f}ms",
                  paper_mach, paper_unix)
    return table


def fork_table() -> Table:
    table = Table("Table 7-1 — fork 256K (ms, CPU)",
                  ("Mach", "UNIX"))
    rows = ((hw.IBM_RT_PC, BsdSUT, "41ms", "145ms"),
            (hw.MICROVAX_II, BsdSUT, "59ms", "220ms"),
            (hw.SUN_3_160, SunOsSUT, "68ms", "89ms"))
    for spec, base, paper_mach, paper_unix in rows:
        mach = measure_fork(MachSUT(spec))
        unix = measure_fork(base(spec))
        table.add(f"fork 256K ({spec.name})",
                  f"{mach.cpu_ms:.0f}ms", f"{unix.cpu_ms:.0f}ms",
                  paper_mach, paper_unix)
    return table


def read_table() -> Table:
    table = Table("Table 7-1 — read file, VAX 8200 (system/elapsed s)",
                  ("Mach", "UNIX"))
    paper = {
        "2.5M": (("5.2/11s", "5.0/11s"), ("1.2/1.4s", "5.0/11s")),
        "50K": ((".2/.5s", ".2/.5s"), (".1/.1s", ".2/.2s")),
    }
    for label, size in (("2.5M", int(2.5 * MB)), ("50K", 50 * KB)):
        mach_first, mach_second = measure_read_file(
            MachSUT(hw.VAX_8200), size)
        unix_first, unix_second = measure_read_file(
            BsdSUT(hw.VAX_8200), size)
        table.add(f"read {label}, first time",
                  fmt_sys_elapsed(mach_first),
                  fmt_sys_elapsed(unix_first), *paper[label][0])
        table.add(f"read {label}, second time",
                  fmt_sys_elapsed(mach_second),
                  fmt_sys_elapsed(unix_second), *paper[label][1])
    return table


def compile_table() -> Table:
    table = Table("Table 7-2 — compilation (elapsed)",
                  ("Mach", "UNIX"))
    m400 = run_compile_workload(MachSUT(hw.VAX_8650, buffer_limit=400),
                                THIRTEEN_PROGRAMS)
    u400 = run_compile_workload(BsdSUT(hw.VAX_8650, nbufs=400),
                                THIRTEEN_PROGRAMS)
    mgen = run_compile_workload(MachSUT(hw.VAX_8650),
                                THIRTEEN_PROGRAMS)
    ugen = run_compile_workload(BsdSUT(hw.VAX_8650,
                                       nbufs=GENERIC_NBUFS),
                                THIRTEEN_PROGRAMS)
    table.add("13 programs, 400 buffers (VAX 8650)",
              f"{m400.elapsed_ms / 1000:.0f}sec",
              f"{u400.elapsed_ms / 1000:.0f}sec", "23sec", "28sec")
    table.add("13 programs, generic config (VAX 8650)",
              f"{mgen.elapsed_ms / 1000:.0f}sec",
              f"{ugen.elapsed_ms / 1000:.0f}sec", "19sec", "1:16min")

    km400 = run_compile_workload(MachSUT(hw.VAX_8650, buffer_limit=400),
                                 MACH_KERNEL_BUILD)
    ku400 = run_compile_workload(BsdSUT(hw.VAX_8650, nbufs=400),
                                 MACH_KERNEL_BUILD)
    kmgen = run_compile_workload(MachSUT(hw.VAX_8650),
                                 MACH_KERNEL_BUILD)
    kugen = run_compile_workload(BsdSUT(hw.VAX_8650,
                                        nbufs=GENERIC_NBUFS),
                                 MACH_KERNEL_BUILD)
    table.add("Mach kernel, 400 buffers (VAX 8650)",
              fmt_min(km400.elapsed_ms), fmt_min(ku400.elapsed_ms),
              "19:58min", "23:38min")
    table.add("Mach kernel, generic config (VAX 8650)",
              fmt_min(kmgen.elapsed_ms), fmt_min(kugen.elapsed_ms),
              "15:50min", "34:10min")

    mach_ft = run_compile_workload(MachSUT(hw.SUN_3_160),
                                   FORK_TEST_PROGRAM)
    sun_ft = run_compile_workload(SunOsSUT(hw.SUN_3_160),
                                  FORK_TEST_PROGRAM)
    table.add("compile fork test program (SUN 3/160)",
              f"{mach_ft.elapsed_ms / 1000:.1f}sec",
              f"{sun_ft.elapsed_ms / 1000:.1f}sec", "3sec", "6sec")
    return table


COMMENTARY = """

## Reading the comparison

**Where the reproduction matches the paper (shape and rough factor):**

* **zero fill / fork** — calibrated rows; within a few percent of the
  published numbers.  The *structure* behind fork is reproduced, not
  fitted: `benchmarks/test_table_7_1_fork.py` additionally shows Mach's
  fork cost flat in dirty-data size while the eager baseline scales
  linearly, and that SunOS's COW-with-eager-MMU-copy lands in between —
  exactly the paper's RT/uVAX (3.5x) vs SUN (1.3x) pattern.
* **read 2.5M file** — first reads cost the same on both systems (disk
  bound); Mach's second read is ~10x cheaper (object cache holds all
  640 pages) while 4.3bsd's second read repeats the first (its 1 MB
  buffer pool was swept by the 2.5 MB scan).  This is the paper's
  signature result and it emerges entirely from the cache structures.
* **compilation** — Mach wins both configurations, is nearly
  insensitive to the buffer knob, and 4.3bsd degrades ~2-3x in the
  generic configuration (paper: ~2.7x for the 13 programs, ~1.45x for
  the kernel build).

**Known deltas (documented, not hidden):**

* 4.3bsd's measured *first* 2.5M read is somewhat cheaper than Mach's
  in CPU (3.4s vs 5.0s; paper has them equal at ~5s) — our baseline
  charges no per-block filesystem CPU beyond the buffer-cache path.
* The paper's Mach slows from 19s to 23s when its cache is capped at
  400 buffers; our cap (an object-cache page limit) binds more weakly,
  so measured Mach is nearly identical across configurations.
* The SUN fork-test compile gap is ~1.25x measured vs 2x in the paper;
  the published 3s/6s numbers are at the measurement-granularity floor
  and the paper does not say what dominated the extra 3 seconds.

## Ablations (Sections 3-6 claims, regenerated by `pytest benchmarks/`)

| Claim | Benchmark | Result |
|---|---|---|
| RT PC inverted page table causes alias faults, "rare enough" in real programs | `test_ablation_rt_alias.py` | worst case ~1 steal/alternation; fork+COW workload <25% steals/touch |
| SUN 3's 8 contexts cause competition above 8 active tasks | `test_ablation_sun3_contexts.py` | 0 steals at <=8 tasks; steals grow with task count beyond |
| Lazy VAX page tables avoid the 8 MB linear table | `test_ablation_vax_ptspace.py` | 512 B for one touched page in 1 GB; >10x below linear even with 1024 scattered pages |
| Three TLB shootdown strategies trade CPU vs latency vs consistency | `test_ablation_tlb_shootdown.py` | immediate: IPIs+CPU; deferred: 0 IPIs, 3x elapsed; lazy: cheapest, stale windows |
| Shadow-chain GC keeps fork chains O(1) | `test_ablation_shadow_chains.py` | chain length <=3 with GC vs 25 without, after 24 fork generations |
| OOL messages move data by remap, not copy | `test_ablation_ipc_transfer.py` | 16 MB send ~30x cheaper than byte copy; wins even when 10% of pages are then touched |
| MD code is "a single code module", small | `test_portability.py` | each pmap module <25% of the MI core; the TLB-only pmap is the smallest |
| Boot-time page size trades fault count vs copy size | `test_ablation_page_size.py` | zero-fill throughput improves, single-byte COW cost worsens, monotonically from 512 B to 8 KB |
| Object cache makes program re-exec "very inexpensive" | `test_ablation_object_cache.py` | 6 re-execs: zero disk reads with the cache, >3x elapsed without |
| Virtually addressed caches handled inside pmap | `test_ablation_vac.py` | aliased sharing pays flushes; private use pays none |
| Context competition under real timesharing | `test_ablation_multiprogramming.py` | steals appear only above 8 scheduled tasks and grow with load |
| One kernel binary, UP and MP | `test_ablation_smp_speedup.py` | ~4x private speedup on 4 CPUs; mapping churn on MP pays IPIs a UP never sees |
| Last-fault hints speed map lookup | `test_ablation_map_hints.py` | >50% hint hits on sequential sweeps; measurable scan-time win |
| Second-chance scan protects the hot set | `test_ablation_second_chance.py` | ~30% fewer pageins than an ablated daemon on hot/cold working sets |
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="fail with a diff if EXPERIMENTS.md would "
                             "change; write nothing")
    args = parser.parse_args(argv)
    out = io.StringIO()
    out.write(HEADER)
    for builder in (zero_fill_table, fork_table, read_table,
                    compile_table):
        table = builder()
        out.write(table.markdown())
        out.write("\n\n")
        print(f"generated: {table.title}")
    out.write(COMMENTARY)
    if args.check:
        with open("EXPERIMENTS.md") as f:
            current = f.read()
        diff = list(difflib.unified_diff(
            current.splitlines(keepends=True),
            out.getvalue().splitlines(keepends=True),
            "EXPERIMENTS.md (committed)", "EXPERIMENTS.md (regenerated)"))
        if diff:
            sys.stdout.writelines(diff)
            print("EXPERIMENTS.md is out of date: run "
                  "python benchmarks/make_report.py")
            return 1
        print("EXPERIMENTS.md is up to date")
        return 0
    with open("EXPERIMENTS.md", "w") as f:
        f.write(out.getvalue())
    print("wrote EXPERIMENTS.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
