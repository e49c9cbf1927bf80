#!/usr/bin/env python3
"""Analyzing a workload with the event recorder and the kernel's counters.

Records a fork/COW/paging workload on a memory-starved machine with an
:class:`repro.obs.EventRecorder`, then breaks down what the kernel did:
the span profile of the recorded events, how each fault resolved, when
the pageout daemon first laundered a page, and the kernel's own
``KernelStats`` counters — the observability story for the
reproduction.

Run:  python examples/workload_analysis.py
"""

from collections import Counter

from repro.core.kernel import MachKernel
from repro.hw.machine import MachineSpec
from repro.obs import EventRecorder, profile

PAGE = 4096

SPEC = MachineSpec(
    name="starved-box",
    hw_page_size=PAGE,
    default_page_size=PAGE,
    va_limit=1 << 30,
    ncpus=2,
    pmap_name="generic",
    memory_segments=((0, 32 * PAGE),),     # only 32 frames
)


def workload(kernel: MachKernel) -> None:
    parent = kernel.task_create(name="builder")
    addr = parent.vm_allocate(24 * PAGE)
    for off in range(0, 24 * PAGE, PAGE):
        parent.write(addr + off, b"base data")

    for generation in range(3):
        child = parent.fork()
        for off in range(0, 24 * PAGE, 2 * PAGE):
            child.write(addr + off, f"gen{generation}".encode())
        for off in range(0, 24 * PAGE, PAGE):
            child.read(addr + off, 4)
        child.terminate()


def fault_kind(data: dict) -> str:
    """How one fault resolved, from its ``vm/fault`` end event."""
    parts = [label for key, label in (("zero_filled", "zero-fill"),
                                      ("paged_in", "pagein"),
                                      ("shadow_created", "shadow"),
                                      ("cow_copied", "cow-copy"))
             if data.get(key)]
    return "+".join(parts) or "soft"


def main() -> None:
    kernel = MachKernel(SPEC)
    with EventRecorder(kernel.events) as recorder:
        workload(kernel)
    events = recorder.events

    print("workload ran on a 32-frame machine; here is everything the "
          "kernel did:\n")
    print(profile(events))

    faults = [e for e in events if e.name == "vm/fault" and e.phase == "E"
              and "error" not in e.data]
    print("\nfault kinds:")
    for kind, count in Counter(fault_kind(e.data)
                               for e in faults).most_common():
        print(f"  {kind:<24}{count}")

    print("\nfirst ten faults:")
    for event in faults[:10]:
        print(f"  [{event.ts_us / 1000:10.3f}ms] {event.task:<10} "
              f"{fault_kind(event.data)}")

    pageouts = [e for e in events
                if e.name == "pageout/launder" and e.phase == "B"]
    if pageouts:
        print(f"\nfirst pageout happened at "
              f"{pageouts[0].ts_us / 1000:.2f} ms simulated — "
              f"the working set outgrew memory there.")

    stats = kernel.stats
    print(f"\n{stats.cow_faults} copy-on-write faults across 3 fork "
          f"generations; each copied one page, everything else was "
          f"shared.")
    print(f"\nfinal statistics: {stats!r}, "
          f"reactivations={stats.reactivations}, "
          f"shootdowns={kernel.pmap_system.shootdowns}")


if __name__ == "__main__":
    main()
