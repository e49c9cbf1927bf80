"""The pmap MI-contract conformance verifier: all shipped pmaps
conform; a deliberately nonconforming stub fails with actionable
messages."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.analysis.conformance import (
    verify_pmap_class, verify_pmap_conformance,
)
from repro.pmap import registry
from repro.pmap.interface import Pmap

FIXTURES = Path(__file__).parent / "data" / "flow_fixtures"


def _load_fixture(stem: str):
    spec = importlib.util.spec_from_file_location(
        stem, FIXTURES / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bad_pmap():
    return _load_fixture("bad_pmap_stub").BadPmap


class TestShippedPmapsConform:
    def test_live_registry_is_clean(self):
        assert verify_pmap_conformance() == []

    def test_every_architecture_is_checked(self):
        names = set(registry.registered_pmaps())
        assert {"generic", "vax", "rt_pc", "sun3", "sun3_vac",
                "ns32082"} <= names


class TestNonconformingStub:
    def test_stub_fails_conformance(self, bad_pmap):
        findings = verify_pmap_class("bad-stub", bad_pmap)
        assert findings
        rules = {f.rule for f in findings}
        assert {"missing-invalidate", "signature-mismatch"} <= rules

    def test_missing_invalidate_message_is_actionable(self, bad_pmap):
        findings = verify_pmap_class("bad-stub", bad_pmap)
        (miss,) = [f for f in findings if f.rule == "missing-invalidate"]
        assert miss.where == "BadPmap.remove"
        assert "super().remove()" in miss.message
        assert "shootdown" in miss.message
        assert "never lie" in miss.message

    def test_signature_mismatches_name_the_parameters(self, bad_pmap):
        findings = verify_pmap_class("bad-stub", bad_pmap)
        by_where = {f.where: f for f in findings
                    if f.rule == "signature-mismatch"}
        protect = by_where["BadPmap.protect"]
        assert "'begin'" in protect.message
        assert "'start'" in protect.message
        enter = by_where["BadPmap.enter"]
        assert "'color'" in enter.message
        assert "no default" in enter.message

    def test_registered_stub_fails_the_pass(self, bad_pmap):
        registry.register_pmap("bad-stub", bad_pmap)
        try:
            findings = verify_pmap_conformance()
        finally:
            del registry._REGISTRY["bad-stub"]
        assert any(f.where.startswith("BadPmap") for f in findings)
        assert verify_pmap_conformance() == []     # cleanup held


class TestUnshotDelegation:
    """Delegating to ``super()`` invalidates only if the call leaves
    ``shoot`` on."""

    @pytest.mark.parametrize("cls_name", ["KeywordUnshotPmap",
                                          "PositionalUnshotPmap"])
    def test_false_shoot_is_missing_invalidate(self, cls_name):
        cls = getattr(_load_fixture("unshot_delegating_pmap"), cls_name)
        findings = verify_pmap_class("unshot", cls)
        assert [(f.rule, f.where) for f in findings] == [
            ("missing-invalidate", f"{cls_name}.remove")]

    def test_forwarding_shoot_is_clean(self):
        from repro.pmap.sun3_vac import Sun3VacPmap

        assert verify_pmap_class("sun3_vac", Sun3VacPmap) == []

class TestOutOfTreeImports:
    """What a pmap module may import is the layering lint's rule; the
    conformance pass applies it to pmaps defined outside the tree."""

    def test_each_offending_line_is_one_finding(self):
        cls = _load_fixture("mi_importing_pmap").MiImportingPmap
        findings = verify_pmap_class("mi-importing", cls)
        assert [(f.module, f.lineno, f.rule) for f in findings] == [
            ("mi_importing_pmap", 12, "pmap-imports-upper-layer"),
            ("mi_importing_pmap", 13, "pmap-imports-mi-state")]
        assert "repro.ipc.port" in findings[0].message
        assert "repro.core.vm_object" in findings[1].message

    def test_porting_example_is_clean(self):
        path = (Path(__file__).parent.parent / "examples"
                / "port_to_new_mmu.py")
        spec = importlib.util.spec_from_file_location("port_to_new_mmu",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert verify_pmap_class("i386-style", module.I386StylePmap) == []


class TestDegenerateClasses:
    def test_non_pmap_class_is_rejected(self):
        findings = verify_pmap_class("weird", int)
        assert [f.rule for f in findings] == ["not-a-pmap"]

    def test_abstract_subclass_is_incomplete(self):
        class HalfPort(Pmap):
            pass

        findings = verify_pmap_class("half", HalfPort)
        assert any(f.rule == "incomplete-interface"
                   and "_hw_" in f.message for f in findings)


class TestTableSpan:
    def test_inherited_walk_without_span_is_flagged(self):
        cls = _load_fixture("no_table_span_pmap").NoSpanPmap
        findings = verify_pmap_class("no-span", cls)
        assert [f.rule for f in findings] == ["missing-table-span"]
        assert "TABLE_SPAN" in findings[0].message
        assert "_hw_iter" in findings[0].message

    def test_overriding_the_walk_needs_no_span(self):
        from repro.pmap.rt_pc import RtPcPmap

        assert RtPcPmap.TABLE_SPAN is None
        assert RtPcPmap._hw_iter is not Pmap._hw_iter
        assert verify_pmap_class("rt_pc", RtPcPmap) == []
