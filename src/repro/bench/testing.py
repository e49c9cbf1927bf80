"""Shared helpers for the test and benchmark suites."""

from __future__ import annotations

from repro.hw.machine import MachineSpec

MB = 1024 * 1024

#: Machine parameters per benchmarked architecture, for every
#: :func:`make_spec` caller that sweeps the pmap matrix.
BENCH_ARCHS: dict[str, dict] = {
    "generic": {},
    "vax": dict(hw_page_size=512, page_size=4096),
    "rt_pc": dict(hw_page_size=2048, page_size=4096),
    "sun3": dict(hw_page_size=8192, page_size=8192, mmu_contexts=8),
    "sun3_vac": dict(hw_page_size=8192, page_size=8192, mmu_contexts=8),
    "ns32082": dict(hw_page_size=512, page_size=4096,
                    va_limit=16 * MB, buggy_rmw_reports_read=True),
}

#: Quick mode still samples three distinct MMU shapes.
QUICK_ARCHS = ("generic", "vax", "sun3")


def make_spec(name: str = "test-box", *, hw_page_size: int = 4096,
              page_size: int = 4096, memory_frames: int = 256,
              ncpus: int = 1, pmap_name: str = "generic",
              va_limit: int = 1 << 30, **extra) -> MachineSpec:
    """A small generic machine for tests and ablation benchmarks."""
    return MachineSpec(
        name=name,
        hw_page_size=hw_page_size,
        default_page_size=page_size,
        va_limit=va_limit,
        ncpus=ncpus,
        pmap_name=pmap_name,
        memory_segments=((0, memory_frames * page_size),),
        **extra,
    )
