"""The lifecycle rule group of the ownership engine: known-bad fixtures
stay red, the exception-safe idioms stay green."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.flow import run_flow_passes
from repro.analysis.typestate import check_module

FIXTURES = Path(__file__).parent / "data" / "flow_fixtures"
SWAP = Path(repro.__file__).parent / "pager" / "swap.py"
#: The shipped error-path refund of a freshly popped swap slot.
REFUND = "            if fresh:\n                self._free.append(slot)\n"


def _fixture_findings(name: str):
    source = (FIXTURES / name).read_text()
    return check_module(f"fixture.{name[:-3]}", ast.parse(source))


def _inline_findings(source: str):
    return check_module("inline", ast.parse(textwrap.dedent(source)))


class TestKnownBadFixtures:
    def test_pr2_swap_slot_leak_reproduces(self):
        """The pinned pre-fix write_slot must stay a true positive."""
        findings = _fixture_findings("leak_on_error.py")
        leaks = [f for f in findings
                 if f.rule == "leak-on-exception-path"]
        assert leaks, findings
        (leak,) = leaks
        assert leak.where == "FileBackedSwap.write_slot"
        assert "free-pool-slot" in leak.message
        assert "'slot'" in leak.message

    def test_double_release_detected(self):
        """A resident page freed twice is reported once, under the page
        protocol's own rule."""
        findings = _fixture_findings("double_release.py")
        assert [(f.rule, f.lineno) for f in findings] == [
            ("page-double-free", 12)]

    def test_clean_fixture_is_clean(self):
        assert _fixture_findings("clean.py") == []

    def test_page_commits_are_not_releases(self):
        """allocate -> activate -> deactivate -> free is the sanctioned
        page sequence: queue moves are state changes, so neither rule
        group reports it."""
        assert _fixture_findings("typestate_clean.py") == []

    def test_each_double_free_is_reported_once(self):
        findings = _fixture_findings("typestate_protocols.py")
        assert [f.rule for f in findings if f.lineno == 25] == [
            "page-double-free"]


class TestIdioms:
    def test_exception_safe_pop_is_clean(self):
        """The post-fix swap shape: a failed write refunds the slot."""
        assert _inline_findings("""
            class S:
                def write_slot(self, data):
                    slot = self._free.pop()
                    try:
                        self.fs.write_direct(self.inode, slot, data)
                    except Exception:
                        self._free.append(slot)
                        raise
                    return slot
        """) == []

    def test_leak_at_return_for_pool_slots(self):
        findings = _inline_findings("""
            class S:
                def lose(self):
                    slot = self._free.pop()
                    self.log("took a slot")
        """)
        assert any(f.rule == "leak-on-return" for f in findings)

    def test_object_ref_leak_on_exception_path(self):
        findings = _inline_findings("""
            class K:
                def attach(self, pager, size):
                    obj = self.vm.objects.create_for_pager(pager, size)
                    self.pager_init(pager, obj)
                    self.table[pager] = obj
        """)
        assert any(f.rule == "leak-on-exception-path"
                   and "vm-object-ref" in f.message for f in findings)

    def test_handoff_to_map_allocate_ends_tracking(self):
        """allocate(vm_object=obj) transfers ownership to the entry."""
        assert _inline_findings("""
            class K:
                def attach(self, task, pager, size):
                    obj = self.vm.objects.create_for_pager(pager, size)
                    try:
                        task.vm_map.allocate(size, vm_object=obj)
                    except Exception:
                        self.vm.objects.deallocate(obj)
                        raise
                    self.note("mapped")
        """) == []

    def test_conditional_acquire_with_conditional_refund_is_clean(self):
        """The real swap shape: a maybe-fresh slot is refunded on the
        error path exactly when it was freshly popped.  The correlated
        conditions join to TOP, which is deliberately not reported."""
        assert _inline_findings("""
            class S:
                def write_slot(self, data, slot=None):
                    fresh = slot is None
                    if fresh:
                        slot = self._free.pop()
                    try:
                        self._store[slot] = self.pack(data)
                    except Exception:
                        if fresh:
                            self._free.append(slot)
                        raise
                    return slot
        """) == []


class TestShippedSwapMutation:
    """The lifecycle rules run alone over a copy of the shipped swap
    code: clean as shipped, red once a slot refund is deleted."""

    def _report(self, tmp_path, source):
        (tmp_path / "pager").mkdir()
        (tmp_path / "pager" / "swap.py").write_text(source)
        return run_flow_passes(root=tmp_path, passes=("lifecycle",))

    def test_shipped_swap_is_clean(self, tmp_path):
        report = self._report(tmp_path, SWAP.read_text())
        assert report.clean, report.lines()
        assert report.analyzed == ["repro.pager.swap"]

    @pytest.mark.parametrize("which, where", [
        (0, "SwapSpace.write_slot"), (1, "FileBackedSwap.write_slot")])
    def test_deleted_refund_leaks_on_the_error_path(self, tmp_path,
                                                    which, where):
        source = SWAP.read_text()
        assert source.count(REFUND) == 2
        at = -1
        for _ in range(which + 1):
            at = source.index(REFUND, at + 1)
        mutated = source[:at] + REFUND.replace(
            "self._free.append(slot)", "pass") + source[at + len(REFUND):]
        pops = [n for n, line in enumerate(mutated.splitlines(), 1)
                if line.strip() == "slot = self._free.pop()"]
        report = self._report(tmp_path, mutated)
        assert [(f.pass_name, f.rule, f.where, f.lineno)
                for f in report.findings] == [
            ("lifecycle", "leak-on-exception-path", where, pops[which])]
