"""The typestate pass: every shipped protocol rule has a known-bad
fixture that fires and a sanctioned idiom that stays quiet — and the
real source tree is clean."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis.typestate import check_module, in_scope

FIXTURES = Path(__file__).parent / "data" / "flow_fixtures"


def _fixture_findings(name: str):
    source = (FIXTURES / name).read_text()
    return check_module(f"fixture.{name[:-3]}", ast.parse(source))


def _inline_findings(source: str):
    return check_module("inline", ast.parse(textwrap.dedent(source)))


def _rules(findings):
    return [(f.rule, f.where) for f in findings]


class TestKnownBadFixtures:
    """Each shipped rule fires on typestate_protocols.py — several of
    them only visible across a call."""

    def _findings(self):
        return _fixture_findings("typestate_protocols.py")

    def test_page_use_after_free_cross_call(self):
        assert ("page-use-after-free",
                "PageUseAfterFreeCrossCall.scan") in \
            _rules(self._findings())

    def test_page_double_free(self):
        assert ("page-double-free", "PageDoubleFree.run") in \
            _rules(self._findings())

    def test_page_free_while_wired(self):
        assert ("page-free-while-wired", "PageFreeWhileWired.run") in \
            _rules(self._findings())

    def test_object_use_after_deallocate(self):
        assert ("object-use-after-deallocate",
                "ObjectUseAfterDeallocate.run") in \
            _rules(self._findings())

    def test_object_double_deallocate_cross_call(self):
        assert ("object-double-deallocate",
                "ObjectDoubleDeallocateCrossCall.run") in \
            _rules(self._findings())

    def test_entry_use_after_unlink_both_shapes(self):
        rules = _rules(self._findings())
        assert ("entry-use-after-unlink",
                "EntryUseAfterUnlink.structural") in rules
        assert ("entry-use-after-unlink",
                "EntryUseAfterUnlink.write_after") in rules

    def test_shootdown_before_yield_cross_call(self):
        assert ("shootdown-before-yield", "ShootdownBeforeYield.run") \
            in _rules(self._findings())

    def test_shootdown_before_yield_in_spawned_body(self):
        """A body handed to ``sched.spawn`` is a thread body whatever
        its parameter is called: its bare ``yield`` preempts."""
        assert ("shootdown-before-yield",
                "spawned_body_workload.body") in _rules(self._findings())

    def test_messages_name_variable_and_origin_line(self):
        findings = self._findings()
        (uaf,) = [f for f in findings
                  if f.where == "PageUseAfterFreeCrossCall.scan"]
        assert "'page'" in uaf.message
        assert "line" in uaf.message


class TestSanctionedIdioms:
    def test_clean_fixture_is_clean(self):
        assert _fixture_findings("typestate_clean.py") == []

    def test_disagreeing_paths_join_to_unknown(self):
        """A variable freed on one branch only must not report a use
        after the join — unknown states are never violations."""
        findings = _inline_findings("""
            class K:
                def run(self, page, cond):
                    if cond:
                        self.resident.free(page)
                    self.resident.activate(page)
        """)
        assert findings == []

    def test_direct_op_not_double_applied_with_summary(self):
        """resident.free both IS a direct op and resolves to the real
        ResidentPageTable.free — the effect must apply once."""
        findings = _inline_findings("""
            class ResidentPageTable:
                def free(self, page):
                    page.queue = None

            class K:
                def run(self, page):
                    self.resident.free(page)
        """)
        assert findings == []

    def test_reassignment_ends_tracking(self):
        findings = _inline_findings("""
            class K:
                def run(self, page):
                    self.resident.free(page)
                    page = self.resident.allocate()
                    self.resident.activate(page)
        """)
        assert findings == []

    def test_acquire_via_returning_helper(self):
        """A helper returning a fresh allocation transfers 'busy' to
        the caller's variable; the happy path stays clean."""
        findings = _inline_findings("""
            class K:
                def _grab(self):
                    return self.resident.allocate()

                def run(self):
                    page = self._grab()
                    self.resident.activate(page)
                    self.resident.free(page)
        """)
        assert findings == []

    def test_acquire_via_helper_then_double_free_fires(self):
        findings = _inline_findings("""
            class K:
                def _grab(self):
                    return self.resident.allocate()

                def run(self):
                    page = self._grab()
                    self.resident.free(page)
                    self.resident.free(page)
        """)
        assert [f.rule for f in findings] == ["page-double-free"]


class TestInterprocedural:
    def test_two_hop_free_still_detected(self):
        findings = _inline_findings("""
            class K:
                def _leaf(self, page):
                    self.resident.free(page)

                def _mid(self, page):
                    self._leaf(page)

                def run(self, page):
                    self._mid(page)
                    self.resident.activate(page)
        """)
        assert ("page-use-after-free", "K.run") in _rules(findings)

    def test_conditional_callee_effect_degrades_not_fires(self):
        """A helper that frees only sometimes gives a may-exit, never
        a must-exit: the caller's later use must stay quiet."""
        findings = _inline_findings("""
            class K:
                def _maybe(self, page, cond):
                    if cond:
                        self.resident.free(page)

                def run(self, page, cond):
                    self._maybe(page, cond)
                    self.resident.activate(page)
        """)
        assert findings == []

    def test_callee_yield_propagates_to_hazard(self):
        findings = _inline_findings("""
            class K:
                def _touch(self, ctx, addr):
                    return ctx.read(addr)

                def run(self, pmap, ctx, start, end):
                    pmap.remove(start, end, shoot=False)
                    self._touch(ctx, start)
                    self.system.shootdown(pmap, start, end)
        """)
        assert ("shootdown-before-yield", "K.run") in _rules(findings)

    def test_escaped_param_degrades_tracking(self):
        """A callee that stores the page into a container gives up
        ownership knowledge — later direct frees must not report."""
        findings = _inline_findings("""
            class K:
                def _stash(self, page):
                    self.pool.append(page)

                def run(self, page):
                    self.resident.free(page)
                    self._stash(page)
        """)
        # stash-after-free of a *freed* page is the UAF read of
        # page via append's argument; the attribute-read rule only
        # triggers on attribute access, so this stays a design
        # decision: no finding.
        assert all(f.rule != "page-double-free" for f in findings)


class TestScopeAndTree:
    def test_analysis_tooling_is_exempt(self):
        assert not in_scope("repro.analysis.typestate")
        assert not in_scope("repro.bench.storm")
        assert in_scope("repro.core.kernel")
        assert in_scope("repro.pmap.interface")

    def test_lifecycle_rules_cover_the_whole_package(self):
        assert in_scope("repro.analysis.typestate", group="lifecycle")
        assert in_scope("repro.bench.storm", group="lifecycle")
        assert in_scope("repro.core.kernel", group="lifecycle")

    def test_real_tree_is_clean(self, real_tree):
        """The shipped kernel honors its own protocols (any true
        finding must be fixed or baselined, not ignored)."""
        report = real_tree.report
        assert [f for f in report.findings
                if f.pass_name == "typestate"] == []
        assert [f for f, _ in report.suppressed
                if f.pass_name == "typestate"] == []
        assert report.errors == []
