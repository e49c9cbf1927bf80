"""The runtime VM sanitizer: clean kernels pass, injected MD/MI lies
are caught.

The two injection tests are the point of the module: they corrupt the
machine-dependent state in ways the machine-independent layer never
sanctioned — a TLB entry surviving a DEFERRED shootdown window, and a
pmap mapping more permissive than its map entry — and prove the checker
notices both.
"""

from __future__ import annotations

import pytest

from repro.analysis.invariants import (
    SanitizerError,
    assert_all,
    check_all,
    check_tlbs,
    install_sanitizer,
    uninstall_sanitizer,
)
from repro.analysis.matrix import (
    boot,
    run_row,
    sweep_line,
    sweep_row,
)
from repro.bench.testing import BENCH_ARCHS
from repro.core.constants import VMProt
from repro.core.kernel import MachKernel
from repro.pmap.interface import ShootdownStrategy

from tests.conftest import make_spec


def _kinds(violations):
    return {v.kind for v in violations}


def _sweep(arch, scenario):
    result = run_row(sweep_row(arch, scenario))
    assert result.ok, sweep_line(result)


class TestCleanKernelsPass:
    """After real workloads the checker must stay silent on every
    architecture — the sweeps behind ``python -m repro check``."""

    @pytest.mark.parametrize("arch", sorted(BENCH_ARCHS))
    def test_fork_cow_sweep(self, arch):
        _sweep(arch, "fork+COW")

    @pytest.mark.parametrize("arch", sorted(BENCH_ARCHS))
    def test_pageout_sweep(self, arch):
        _sweep(arch, "pageout-pressure")

    @pytest.mark.parametrize("arch", sorted(BENCH_ARCHS))
    def test_shootdown_sweep(self, arch):
        _sweep(arch, "shootdown")

    def test_fresh_kernel_is_clean(self, kernel):
        assert check_all(kernel) == []


class TestHooksOffByDefault:
    def test_no_hooks_installed(self, kernel):
        assert kernel.sanitize_hook is None
        assert kernel.pmap_system.debug_hook is None

    def test_install_uninstall_round_trip(self, kernel):
        install_sanitizer(kernel)
        assert kernel.sanitize_hook is not None
        assert kernel.pmap_system.debug_hook is not None
        uninstall_sanitizer(kernel)
        assert kernel.sanitize_hook is None
        assert kernel.pmap_system.debug_hook is None


class TestStaleTlbInjection:
    """Injection (a): a TLB entry that survives past the DEFERRED
    shootdown window — Section 5.2's "lost timer interrupt" disaster —
    and the windows IMMEDIATE and LAZY allow."""

    def _stale_setup(self, strategy=ShootdownStrategy.DEFERRED):
        kernel = MachKernel(make_spec(ncpus=4), shootdown=strategy)
        page = kernel.page_size
        task = kernel.task_create(name="smp")
        addr = task.vm_allocate(4 * page)
        # CPU 1 touches the range, caching translations in its TLB.
        kernel.set_current_cpu(1)
        for off in range(0, 4 * page, page):
            task.write(addr + off, b"cached on cpu1")
        # CPU 0 deallocates: under DEFERRED the remote TLB entry stays
        # until CPU 1's next timer interrupt.
        kernel.set_current_cpu(0)
        task.vm_deallocate(addr, 4 * page)
        return kernel, kernel.machine.cpus[1]

    def test_open_window_is_not_a_violation(self):
        kernel, cpu1 = self._stale_setup()
        # The flush is still pending: temporary inconsistency is the
        # whole point of DEFERRED, so the checker must not cry wolf.
        assert cpu1.has_deferred_flushes
        assert check_tlbs(kernel) == []

    def test_normal_tick_closes_window_cleanly(self):
        kernel, cpu1 = self._stale_setup()
        kernel.machine.tick_all_timers()
        assert not cpu1.has_deferred_flushes
        assert check_tlbs(kernel) == []
        assert check_all(kernel) == []

    def test_lost_interrupt_leaves_stale_entry_and_is_caught(self):
        kernel, cpu1 = self._stale_setup()
        # Inject the failure: CPU 1 "loses" its timer interrupt — the
        # pending flush evaporates without ever touching the TLB.
        cpu1._deferred_flushes.clear()
        assert not cpu1.has_deferred_flushes
        violations = check_tlbs(kernel)
        assert violations, "stale TLB entry went undetected"
        assert _kinds(violations) & {"tlb-orphaned", "tlb-stale"}
        # And the full audit raises.
        with pytest.raises(SanitizerError):
            assert_all(kernel)

    def test_immediate_leaves_no_stale_entry(self):
        kernel, cpu1 = self._stale_setup(ShootdownStrategy.IMMEDIATE)
        assert not cpu1.has_deferred_flushes
        assert len(cpu1.tlb) == 0
        assert check_tlbs(kernel) == []

    def test_lazy_staleness_is_sanctioned_until_flush(self):
        kernel, cpu1 = self._stale_setup(ShootdownStrategy.LAZY)
        # LAZY queues nothing: the stale entries outlive timer ticks
        # and stay sanctioned until the activate-time flush.
        kernel.machine.tick_all_timers()
        assert len(cpu1.tlb) > 0
        assert check_tlbs(kernel) == []
        cpu1.tlb.flush_all()
        assert len(cpu1.tlb) == 0
        assert check_tlbs(kernel) == []

    def test_lazy_entry_surviving_its_activate_flush_is_caught(self):
        kernel, cpu1 = self._stale_setup(ShootdownStrategy.LAZY)
        (task,) = kernel.tasks
        _, vpn, paddr, prot = cpu1.tlb.snapshot()[0]
        vaddr = vpn * kernel.machine.hw_page_size
        assert cpu1.lazy_owed
        # CPU 1 switches to the pmap: the activate-time flush pays off
        # every range the lazy shootdown left it owing.
        task.pmap.activate(None, cpu1)
        assert cpu1.lazy_owed == []
        assert check_tlbs(kernel) == []
        # Inject: one stale entry survives that flush.
        cpu1.tlb.fill(task.pmap, vaddr, paddr, prot)
        violations = check_tlbs(kernel)
        assert _kinds(violations) == {"tlb-stale"}
        assert f"cpu1 TLB still maps {task.pmap!r} va {vaddr:#x}" in (
            violations[0].detail)

    def test_lazy_entry_outside_every_owed_range_is_caught(self):
        kernel, cpu1 = self._stale_setup(ShootdownStrategy.LAZY)
        (task,) = kernel.tasks
        _, _, paddr, prot = cpu1.tlb.snapshot()[0]
        (tag, start, end), = cpu1.lazy_owed
        assert tag == id(task.pmap)
        cpu1.tlb.fill(task.pmap, end, paddr, prot)
        assert _kinds(check_tlbs(kernel)) == {"tlb-stale"}


class TestPermissiveMappingInjection:
    """Injection (b): the pmap grants more than the map entry allows —
    the one lie the MD layer is never permitted to tell."""

    def _booted(self, **kwargs):
        kernel = MachKernel(make_spec(**kwargs))
        task = kernel.task_create(name="victim")
        addr = task.vm_allocate(2 * kernel.page_size)
        task.write(addr, b"resident and writable")
        return kernel, task, addr

    def test_raised_hw_protection_is_caught(self):
        kernel, task, addr = self._booted()
        # MI lowers the entry to read-only; the pmap follows suit.
        task.vm_protect(addr, kernel.page_size, False, VMProt.READ)
        assert check_all(kernel) == []
        # Inject: the hardware silently re-arms write access.
        task.pmap._hw_protect(addr, VMProt.DEFAULT)
        violations = check_all(kernel)
        assert "md-protection-too-permissive" in _kinds(violations)

    def test_mapping_outside_any_entry_is_caught(self):
        kernel, task, addr = self._booted()
        frame = task.pmap.extract(addr)
        task.vm_deallocate(addr, 2 * kernel.page_size)
        assert check_all(kernel) == []
        # Inject: the pmap resurrects a mapping MI just revoked.
        task.pmap.enter(addr, frame, VMProt.READ)
        violations = check_all(kernel)
        assert "md-unsanctioned-mapping" in _kinds(violations)

    def test_cow_writable_mapping_is_caught(self):
        kernel, task, addr = self._booted()
        task.fork()   # COW-protects every dirty page
        assert check_all(kernel) == []
        # Inject: write access sneaks back onto a COW-shared page.
        task.pmap._hw_protect(addr, VMProt.DEFAULT)
        violations = check_all(kernel)
        assert _kinds(violations) & {"md-writable-cow",
                                     "md-protection-too-permissive"}


class TestTeardownHookFiresInTests:
    """The conftest fixtures sweep at teardown; prove the plumbing by
    dirtying a throwaway kernel the same way."""

    def test_injected_lie_fails_fixture_style_sweep(self):
        kernel = boot("generic")
        task = kernel.task_create()
        addr = task.vm_allocate(kernel.page_size)
        task.write(addr, b"x")
        task.vm_protect(addr, kernel.page_size, False, VMProt.READ)
        task.pmap._hw_protect(addr, VMProt.ALL)
        with pytest.raises(SanitizerError) as excinfo:
            assert_all(kernel)
        assert excinfo.value.violations
