"""The flow-pass runner: the shipped tree stays clean, baselines are
reviewed decisions, and a crashing pass is an analysis error — never a
silently clean run.  The clean-tree tests read the session's one cold
analysis of the shipped tree (``real_tree`` in ``conftest.py``); crash
and CLI mechanics run on the miniature package (``mini_repro``)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.flow import (
    BaselineEntry, Finding, apply_baseline, load_baseline,
    run_flow_passes,
)
from repro.cli import main


class TestCleanTree:
    def test_shipped_tree_is_clean(self, real_tree):
        report = real_tree.report
        assert report.findings == []
        assert report.errors == []
        assert report.clean

    def test_suppressions_are_reviewed(self, real_tree):
        """Every baseline entry that fires carries a written reason."""
        report = real_tree.report
        assert report.suppressed        # the two triaged FPs
        for finding, reason in report.suppressed:
            assert isinstance(finding, Finding)
            assert len(reason) > 20

    def test_no_stale_baseline_entries(self, real_tree):
        """An entry that no longer suppresses any current finding is
        suppression rot: the test names the stale file line so it can
        be deleted (not just which entry, but where)."""
        report = real_tree.report
        stale = [entry for entry in load_baseline()
                 if not any(entry.matches(f)
                            for f, _ in report.suppressed)]
        assert not stale, "\n".join(
            f"stale baseline entry at "
            f"analysis/flow_baseline.txt:{entry.lineno}: "
            f"{entry.rule} | {entry.module} | {entry.where} — no "
            f"current finding matches; delete the line"
            for entry in stale)

    def test_stale_entry_detection_fires(self, real_tree):
        """The staleness check itself must be able to go red."""
        entries = load_baseline()
        ghost = BaselineEntry("typestate/page-double-free",
                              "repro.no.such.module", "*",
                              "reviewed: never fires", lineno=999)
        report = real_tree.report
        stale = [entry for entry in entries + [ghost]
                 if not any(entry.matches(f)
                            for f, _ in report.suppressed)]
        assert stale == [ghost]


class TestCrashHandling:
    def test_crashing_pass_becomes_analysis_error(self, monkeypatch,
                                                  mini_repro):
        import repro.analysis.typestate as typestate

        def boom(module, tree, ctx=None):
            raise RuntimeError("pass exploded")

        monkeypatch.setattr(typestate, "check_module", boom)
        report = run_flow_passes(mini_repro, passes=["lifecycle"])
        assert not report.clean
        assert report.errors
        assert report.errors[0].pass_name == "lifecycle"
        assert "pass exploded" in report.errors[0].message

    def test_both_groups_share_one_engine_run(self, monkeypatch,
                                              tmp_path):
        """lifecycle and typestate are two rule groups of one engine:
        asking for both runs it once per module."""
        import repro.analysis.typestate as typestate

        calls = []
        check = typestate.check_module

        def counting(module, tree, ctx=None):
            calls.append(module)
            return check(module, tree, ctx)

        monkeypatch.setattr(typestate, "check_module", counting)
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "k.py").write_text(
            "class K:\n"
            "    def run(self, page):\n"
            "        self.resident.free(page)\n"
            "        self.resident.free(page)\n"
            "\n"
            "    def lose(self):\n"
            "        slot = self._free.pop()\n"
            "        self.log(slot)\n")
        report = run_flow_passes(root=tmp_path,
                                 passes=("lifecycle", "typestate"))
        assert calls == ["repro.core.k"]
        assert sorted((f.pass_name, f.rule) for f in report.findings) == [
            ("lifecycle", "leak-on-exception-path"),
            ("lifecycle", "leak-on-return"),
            ("typestate", "page-double-free")]

    def test_unknown_pass_is_an_error(self):
        report = run_flow_passes(passes=["mystery"])
        assert not report.clean
        assert "unknown pass" in report.errors[0].message

    def test_crashed_module_is_never_cached(self, monkeypatch,
                                            tmp_path, mini_repro):
        """A crash must be retried next run, not served from cache."""
        import repro.analysis.determinism as determinism

        def boom(module, tree):
            raise RuntimeError("pass exploded")

        monkeypatch.setattr(determinism, "check_module", boom)
        report = run_flow_passes(mini_repro, passes=["determinism"],
                                 cache_dir=tmp_path / "cache")
        assert not report.clean
        monkeypatch.undo()
        report = run_flow_passes(mini_repro, passes=["determinism"],
                                 cache_dir=tmp_path / "cache")
        assert report.clean
        assert report.analyzed        # the crashed modules re-ran

    def test_crash_fails_repro_check(self, monkeypatch, capsys,
                                     check_mini_repro):
        import repro.analysis.typestate as typestate

        def boom(module, tree, ctx=None):
            raise RuntimeError("pass exploded")

        monkeypatch.setattr(typestate, "check_module", boom)
        assert main(["check", "--lint-only", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "analysis error" in out
        assert "lint: clean" not in out

    def test_every_unparsable_module_is_a_finding(self, check_mini_repro,
                                                  capsys):
        """A module that fails to parse is a finding naming its dotted
        module, one per module, not a crash naming one file's basename;
        no pass runs over a tree that does not parse whole."""
        (check_mini_repro / "core" / "_probe.py").write_text("def f(:\n")
        (check_mini_repro / "pmap" / "_probe2.py").write_text("x = (\n")
        report = run_flow_passes(check_mini_repro)
        assert report.errors == []
        assert report.analyzed == []
        assert [(f.pass_name, f.module, f.lineno, f.rule)
                for f in report.findings] == [
            ("flow", "repro.core._probe", 1, "syntax-error"),
            ("flow", "repro.pmap._probe2", 1, "syntax-error")]

        assert main(["check", "--lint-only", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "repro.core._probe:1: [flow/syntax-error] module failed " \
            "to parse" in out
        assert "repro.pmap._probe2:1: [flow/syntax-error]" in out
        assert "crashed" not in out

    def test_crashing_lint_fails_check_and_is_retried(
            self, monkeypatch, tmp_path, capsys, check_mini_repro):
        """The layering lint is a pass of the one runner: its crash
        fails ``repro check``, the crashed tree is not cached, and the
        next run re-runs the lint and is clean."""
        import repro.analysis as analysis

        def boom(source=None):
            raise RuntimeError("lint exploded")

        monkeypatch.chdir(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "lint_source_tree", boom)
            assert main(["check", "--lint-only"]) == 1
        out = capsys.readouterr().out
        assert "analysis error: layering pass crashed" in out
        assert "lint exploded" in out
        assert "lint: clean" not in out

        assert main(["check", "--lint-only"]) == 0
        out = capsys.readouterr().out
        assert "lint: clean" in out
        # Every module is served from cache; the three whole-tree
        # passes (conformance and both lints) run again.
        assert "analyzed 3 module(s)" in out


class TestBaseline:
    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "baseline.txt"
        for line in ("rule-without-fields",
                     "layering/star-import | repro.x | * |"):
            path.write_text(line + "\n")
            with pytest.raises(ValueError, match="malformed"):
                load_baseline(path)

    def test_apply_splits_on_match(self):
        finding = Finding("lifecycle", "m", 3, "leak-on-return",
                          "C.f", "leak")
        other = Finding("lifecycle", "m", 9, "double-release",
                        "C.g", "boom")
        entry = BaselineEntry("lifecycle/leak-on-return", "m", "C.f",
                              "reviewed: fine")
        kept, suppressed = apply_baseline([finding, other], [entry])
        assert kept == [other]
        assert suppressed == [(finding, "reviewed: fine")]

    def test_lint_finding_is_suppressed_by_an_entry(self, tmp_path):
        """Lint findings go through the one baseline: a
        ``layering/<rule>`` entry suppresses them like any pass's."""
        root = tmp_path / "repro"
        for rel, text in {"__init__.py": "", "core/__init__.py": "",
                          "core/probe.py": "from repro.pmap import vax\n",
                          "pmap/__init__.py": "",
                          "pmap/vax.py": ""}.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
        path = tmp_path / "baseline.txt"
        path.write_text("layering/concrete-pmap-import | repro.core.probe "
                        "| * | reviewed: a probe of the lint itself\n")

        bare = run_flow_passes(root, passes=("layering",),
                               baseline=tmp_path / "none.txt")
        assert [(f.pass_name, f.rule) for f in bare.findings] == [
            ("layering", "concrete-pmap-import")]
        report = run_flow_passes(root, passes=("layering",),
                                 baseline=path)
        assert report.clean
        assert sorted(report.suppressed, key=str) == [
            (f, "reviewed: a probe of the lint itself")
            for f in sorted(bare.findings, key=str)]

    def test_wildcard_where(self):
        finding = Finding("determinism", "m", 1, "wall-clock", "f", "x")
        entry = BaselineEntry("determinism/wall-clock", "m", "*", "ok")
        kept, suppressed = apply_baseline([finding], [entry])
        assert kept == [] and len(suppressed) == 1


class TestCli:
    def test_check_report_is_versioned_json(self, real_tree_cwd,
                                            capsys):
        """The shipped tree's report, from ``repro check`` served by
        the session's cache."""
        from repro.analysis.report import SCHEMA_VERSION, load_report

        report = real_tree_cwd / "findings.json"
        assert main(["check", "--lint-only",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "lint: clean" in out
        assert "reviewed suppression" in out
        payload = load_report(report)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["clean"] is True
        assert payload["findings"] == []
        assert payload["problems"] == []
        assert payload["suppressed"] == 2

    def test_report_lists_a_lint_finding(self, tmp_path, monkeypatch,
                                         capsys, check_mini_repro):
        """A layering finding is a ``Finding`` like any pass's: it fails
        the check and the report files it under its pass."""
        from repro.analysis import layering
        from repro.analysis.report import load_report

        # Without hw.physmem in the substrate contract, the (miniature)
        # resident page table's frame-store import breaks the MD/MI
        # split.
        monkeypatch.setattr(layering, "HW_SUBSTRATE", tuple(
            m for m in layering.HW_SUBSTRATE if m != "hw.physmem"))
        report = tmp_path / "findings.json"
        assert main(["check", "--lint-only", "--no-cache",
                     "--report", str(report)]) == 1
        assert "[layering/mi-imports-hw-internals]" \
            in capsys.readouterr().out
        payload = load_report(report)
        assert payload["clean"] is False
        assert [(f["pass"], f["file"], f["rule"])
                for f in payload["findings"]] == [
            ("layering", "repro.core.resident", "mi-imports-hw-internals")]

    def test_report_is_deterministic(self, tmp_path):
        """Two clean runs produce byte-identical reports — findings
        sorted by (file, line, rule), keys sorted, no timestamps."""
        import json

        from repro.analysis.report import render_report

        one = render_report(["p"], [], [], 2, 10, 85)
        two = render_report(["p"], [], [], 2, 10, 85)
        assert one == two
        assert "wall_s" not in json.loads(one)   # opt-in only

    def test_consumer_tolerates_legacy_and_future(self, tmp_path):
        from repro.analysis.report import load_report

        legacy = tmp_path / "old.txt"
        legacy.write_text("lifecycle/leak | m | C.f | leak\n")
        payload = load_report(legacy)
        assert payload["schema_version"] == 0
        assert payload["problems"] == [
            "lifecycle/leak | m | C.f | leak"]
        assert payload["clean"] is False

        future = tmp_path / "new.json"
        future.write_text('{"schema_version": 9, "novel_field": 1}')
        payload = load_report(future)
        assert payload["schema_version"] == 9
        assert payload["novel_field"] == 1      # passed through
        assert payload["findings"] == []
        assert payload["problems"] == []
