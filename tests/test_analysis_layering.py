"""The MD/MI layering lint: catches synthetic violations, and the real
source tree stays clean."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.flow import run_flow_passes
from repro.analysis.layering import collect_imports, lint_package


def _write_tree(root, files: dict[str, str]) -> None:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


@pytest.fixture
def tree(tmp_path):
    """A miniature package mirroring the repro layer layout."""
    root = tmp_path / "pkg"
    _write_tree(root, {
        "__init__.py": "",
        "core/__init__.py": "",
        "core/kernel.py": "from pkg.pmap.interface import Pmap\n",
        "pmap/__init__.py": "",
        "pmap/interface.py": "class Pmap:\n    pass\n",
        "pmap/vax.py": "from pkg.pmap.interface import Pmap\n",
        "hw/__init__.py": "",
        "hw/machine.py": "x = 1\n",
    })
    return root


def _rules(violations):
    return {v.rule for v in violations}


class TestLintCatchesViolations:
    def test_clean_tree_has_no_violations(self, tree):
        assert lint_package(tree, package="pkg") == []

    def test_mi_importing_concrete_pmap(self, tree):
        (tree / "core" / "fault.py").write_text(
            "from pkg.pmap.vax import VaxPmap\n")
        violations = lint_package(tree, package="pkg")
        assert "concrete-pmap-import" in _rules(violations)
        v = next(x for x in violations
                 if x.rule == "concrete-pmap-import")
        assert v.module == "pkg.core.fault"
        assert v.lineno == 1

    def test_pmap_reaching_up_into_mi_state(self, tree):
        (tree / "pmap" / "vax.py").write_text(
            "from pkg.core.kernel import MachKernel\n")
        assert "pmap-imports-mi-state" in _rules(
            lint_package(tree, package="pkg"))

    def test_one_finding_per_import_line(self, tree):
        """``from pkg.core import kernel`` is two import sites,
        ``pkg.core`` and ``pkg.core.kernel``: one line, one finding."""
        (tree / "pmap" / "vax.py").write_text(
            "from pkg.core import kernel\n")
        violations = lint_package(tree, package="pkg")
        assert [(v.module, v.lineno, v.rule) for v in violations] == [
            ("pkg.pmap.vax", 1, "pmap-imports-mi-state")]
        assert "pkg.core.kernel" in violations[0].message

    def test_pmap_importing_upper_layer(self, tree):
        (tree / "pmap" / "vax.py").write_text(
            "import pkg.bench.workloads\n")
        _write_tree(tree, {"bench/__init__.py": "",
                           "bench/workloads.py": ""})
        assert "pmap-imports-upper-layer" in _rules(
            lint_package(tree, package="pkg"))

    def test_hw_importing_upper_layer(self, tree):
        (tree / "hw" / "machine.py").write_text(
            "from pkg.core.kernel import MachKernel\n")
        assert "hw-imports-upper-layer" in _rules(
            lint_package(tree, package="pkg"))

    def test_star_import(self, tree):
        (tree / "core" / "fault.py").write_text(
            "from pkg.core.kernel import *\n")
        assert "star-import" in _rules(
            lint_package(tree, package="pkg"))

    def test_module_level_cycle(self, tree):
        (tree / "core" / "a.py").write_text("from pkg.core import b\n")
        (tree / "core" / "b.py").write_text("from pkg.core import a\n")
        assert "import-cycle" in _rules(
            lint_package(tree, package="pkg"))

    def test_function_level_import_breaks_no_cycle(self, tree):
        (tree / "core" / "a.py").write_text("from pkg.core import b\n")
        (tree / "core" / "b.py").write_text(
            "def late():\n    from pkg.core import a\n    return a\n")
        assert "import-cycle" not in _rules(
            lint_package(tree, package="pkg"))

    def test_function_level_pmap_import_still_flagged(self, tree):
        # Deferring the import does not make the dependency legal.
        (tree / "core" / "fault.py").write_text(
            "def f():\n    from pkg.pmap.vax import VaxPmap\n")
        assert "concrete-pmap-import" in _rules(
            lint_package(tree, package="pkg"))

    def test_syntax_error_reported_not_raised(self, tree):
        """The runner reports an unparsable module before the lint (or
        any pass) runs: a finding, never an exception."""
        (tree / "core" / "broken.py").write_text("def f(:\n")
        report = run_flow_passes(tree, "pkg")
        assert report.errors == []
        assert [(f.pass_name, f.module, f.rule)
                for f in report.findings] == [
            ("flow", "pkg.core.broken", "syntax-error")]


class TestImportCollection:
    def test_relative_imports_resolve(self, tree):
        (tree / "core" / "fault.py").write_text(
            "from . import kernel\nfrom .kernel import MachKernel\n")
        imports = collect_imports(tree, package="pkg")
        targets = {s.target for s in imports["pkg.core.fault"]}
        assert "pkg.core.kernel" in targets

    def test_from_package_import_module_resolves(self, tree):
        (tree / "core" / "fault.py").write_text(
            "from pkg.core import kernel\n")
        imports = collect_imports(tree, package="pkg")
        targets = {s.target for s in imports["pkg.core.fault"]}
        assert "pkg.core.kernel" in targets


class TestRealTree:
    def test_source_tree_is_clean(self, real_tree):
        """The session's analysis ran the lint on the shipped tree, and
        it found nothing (before any baseline entry applied)."""
        report = real_tree.report
        assert "#layering" in report.analyzed
        assert report.errors == []
        violations = [f for f in report.findings
                      + [f for f, _ in report.suppressed]
                      if f.pass_name == "layering"]
        assert violations == [], "\n".join(str(v) for v in violations)
