"""The static half of the concurrency sanitizer: the ``#: guarded-by``
contract, the ``atomicity`` flow pass, and the hook-inversion and
test-import layering rules — each proven able to fail on synthetic
violations, and the real source tree proven clean."""

from __future__ import annotations

import ast
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis.flow import run_flow_passes
from repro.analysis.layering import lint_package
from repro.analysis.race import (
    DISCIPLINES,
    GUARDED_CLASSES,
    lint_guarded_by,
)


def _write_tree(root, files: dict[str, str]) -> None:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def _rules(violations):
    return {v.rule for v in violations}


def _atomicity(root, cache_dir=None):
    """Run the ``atomicity`` flow pass over the package at *root*."""
    return run_flow_passes(root, "pkg", passes=("atomicity",),
                           cache_dir=cache_dir)


def _atomicity_of(tmp_path, source: str):
    """Findings of the ``atomicity`` pass on a one-module package."""
    root = tmp_path / "pkg"
    _write_tree(root, {"__init__.py": "", "mod.py": source})
    report = _atomicity(root)
    assert report.errors == []
    return report.findings


GUARDED = {"core.vm_object": ("VMObject",)}

VM_OBJECT_OK = """
    class VMObject:
        def __init__(self):
            #: guarded-by object-lock
            self.size = 0
            self.ref_count = 1   #: guarded-by object-ref
            self.offset = 0
    """


@pytest.fixture
def tree(tmp_path):
    """A miniature package with one guarded class."""
    root = tmp_path / "pkg"
    _write_tree(root, {
        "__init__.py": "",
        "core/__init__.py": "",
        "core/vm_object.py": VM_OBJECT_OK,
        "core/kernel.py": "def grow(obj):\n    obj.size = 4096\n",
    })
    return root


class TestGuardedByContract:
    def test_clean_tree(self, tree):
        assert lint_guarded_by(tree, "pkg", guarded=GUARDED) == []

    def test_mutation_outside_discipline_flagged(self, tree):
        # object-lock allows core.kernel/fault/pageout; pager does not.
        _write_tree(tree, {"pager/__init__.py": "",
                           "pager/rogue.py":
                           "def shrink(obj):\n    obj.size = 0\n"})
        violations = lint_guarded_by(tree, "pkg", guarded=GUARDED)
        assert _rules(violations) == {"guarded-by"}
        v = violations[0]
        assert v.module == "pkg.pager.rogue"
        assert "VMObject.size" in v.message
        assert "object-lock" in v.message

    def test_augmented_assignment_is_a_mutation(self, tree):
        _write_tree(tree, {"pager/__init__.py": "",
                           "pager/rogue.py":
                           "def leak(obj):\n    obj.size += 1\n"})
        assert "guarded-by" in _rules(
            lint_guarded_by(tree, "pkg", guarded=GUARDED))

    def test_owner_module_may_always_mutate(self, tree):
        (tree / "core" / "vm_object.py").write_text(
            textwrap.dedent(VM_OBJECT_OK)
            + "def collapse(obj):\n    obj.size = 0\n")
        assert lint_guarded_by(tree, "pkg", guarded=GUARDED) == []

    def test_undeclared_shared_mutable_flagged(self, tree):
        # ``offset`` carries no annotation; external mutation of it is
        # flagged even though no discipline names it.
        _write_tree(tree, {"pager/__init__.py": "",
                           "pager/rogue.py":
                           "def slide(obj):\n    obj.offset = 8\n"})
        violations = lint_guarded_by(tree, "pkg", guarded=GUARDED)
        assert _rules(violations) == {"undeclared-shared-mutable"}
        assert "no '#: guarded-by'" in violations[0].message

    def test_unrelated_receiver_not_matched(self, tree):
        # ``inode.size`` must not be mistaken for ``VMObject.size`` —
        # receiver-name hints keep the contract from over-matching.
        _write_tree(tree, {"fs/__init__.py": "",
                           "fs/inode.py":
                           "def grow(inode):\n    inode.size = 1\n"})
        assert lint_guarded_by(tree, "pkg", guarded=GUARDED) == []


class TestGuardAnnotationParser:
    """The parser itself can fail: malformed annotations are
    violations, not silently-ignored comments."""

    def test_unknown_discipline_rejected(self, tree):
        # Silence the fixture's legitimate core.kernel mutation: once
        # the declaration is broken, it would flag as undeclared too.
        (tree / "core" / "kernel.py").write_text("")
        (tree / "core" / "vm_object.py").write_text(textwrap.dedent("""
            class VMObject:
                def __init__(self):
                    #: guarded-by bogus-lock
                    self.size = 0
            """))
        violations = lint_guarded_by(tree, "pkg", guarded=GUARDED)
        assert _rules(violations) == {"malformed-guard"}
        assert "bogus-lock" in violations[0].message

    def test_unparseable_annotation_rejected(self, tree):
        # Silence the fixture's legitimate core.kernel mutation: once
        # the declaration is broken, it would flag as undeclared too.
        (tree / "core" / "kernel.py").write_text("")
        (tree / "core" / "vm_object.py").write_text(textwrap.dedent("""
            class VMObject:
                def __init__(self):
                    # guarded-by: object-lock
                    self.size = 0
            """))
        violations = lint_guarded_by(tree, "pkg", guarded=GUARDED)
        assert _rules(violations) == {"malformed-guard"}
        assert "unparseable" in violations[0].message

    def test_unattached_annotation_rejected(self, tree):
        # Silence the fixture's legitimate core.kernel mutation: once
        # the declaration is broken, it would flag as undeclared too.
        (tree / "core" / "kernel.py").write_text("")
        (tree / "core" / "vm_object.py").write_text(textwrap.dedent("""
            #: guarded-by object-lock
            class VMObject:
                def __init__(self):
                    self.size = 0
            """))
        violations = lint_guarded_by(tree, "pkg", guarded=GUARDED)
        assert _rules(violations) == {"malformed-guard"}
        assert "not attached" in violations[0].message

    def test_missing_guarded_module_reported(self, tmp_path):
        root = tmp_path / "pkg"
        _write_tree(root, {"__init__.py": ""})
        violations = lint_guarded_by(root, "pkg", guarded=GUARDED)
        assert _rules(violations) == {"malformed-guard"}


class TestAtomicityLint:
    def test_stale_local_across_yield_flagged(self, tmp_path):
        src = """
            def workload(sched, task, addr):
                def bump(ctx):
                    v = ctx.read(addr, 1)[0]
                    yield
                    ctx.write(addr, bytes([v + 1]))
                sched.spawn(task, bump)
            """
        violations = _atomicity_of(tmp_path, src)
        assert "stale-read-across-yield" in _rules(violations)

    def test_straight_line_rmw_is_clean(self, tmp_path):
        src = """
            def workload(sched, task, addr):
                def bump(ctx):
                    v = ctx.read(addr, 1)[0]
                    ctx.write(addr, bytes([v + 1]))
                    yield
                sched.spawn(task, bump)
            """
        assert _atomicity_of(tmp_path, src) == []

    def test_shared_attr_across_maybe_yield_call_flagged(self, tmp_path):
        # The hazard travels through the call graph: ``resize`` never
        # yields itself, but it calls something that does.
        src = """
            def touch(ctx, addr):
                ctx.read(addr, 1)

            def resize(ctx, obj, addr):
                n = obj.size
                touch(ctx, addr)
                obj.size = n + 1
            """
        violations = _atomicity_of(tmp_path, src)
        assert "atomicity-hazard" in _rules(violations)
        assert "'.size'" in violations[0].message

    def test_rewrite_between_read_and_write_is_clean(self, tmp_path):
        src = """
            def touch(ctx, addr):
                ctx.read(addr, 1)

            def resize(ctx, obj, addr):
                n = obj.size
                obj.size = n + 1
                touch(ctx, addr)
            """
        assert _atomicity_of(tmp_path, src) == []

    def test_generator_helper_yield_is_not_preemption(self, tmp_path):
        # Only thread bodies preempt at yield; an ordinary generator's
        # yields are iteration.
        src = """
            def pages(obj):
                n = obj.size
                yield n
                obj.size = n
            """
        assert _atomicity_of(tmp_path, src) == []

    def test_syntax_error_reported_not_raised(self, tmp_path):
        root = tmp_path / "pkg"
        _write_tree(root, {"__init__.py": "", "mod.py": "def f(:\n"})
        report = _atomicity(root)
        assert not report.clean
        assert report.errors == []
        assert [(f.module, f.lineno, f.rule) for f in report.findings] \
            == [("pkg.mod", 1, "syntax-error")]


#: Two modules: ``touch`` yields in ``a``; ``b`` calls it between a
#: read and a write of ``.size``.  Only a tree-wide call graph sees it.
CROSS_A = """
    def touch(ctx, addr):
        ctx.read(addr, 1)
    """

CROSS_B = """
    from pkg.a import touch

    def resize(ctx, obj, addr):
        n = obj.size
        touch(ctx, addr)
        obj.size = n + 1
    """


class TestAtomicityAcrossModules:
    @pytest.fixture
    def pkg(self, tmp_path):
        root = tmp_path / "pkg"
        _write_tree(root, {"__init__.py": "", "a.py": CROSS_A,
                           "b.py": CROSS_B})
        return root

    def test_hazard_through_an_imported_callee(self, pkg, tmp_path):
        report = _atomicity(pkg, tmp_path / "cache")
        assert [(f.module, f.rule, f.where) for f in report.findings] \
            == [("pkg.b", "atomicity-hazard", "resize")]

    def test_callee_edit_reanalyzes_the_caller(self, pkg, tmp_path):
        """``b``'s cached result depends on ``a.touch``'s may-yield
        summary: editing ``touch`` so it no longer yields must
        re-analyze ``b`` and retire the finding."""
        cache = tmp_path / "cache"
        assert _atomicity(pkg, cache).findings
        (pkg / "a.py").write_text(
            "def touch(ctx, addr):\n    return addr\n")

        edited = _atomicity(pkg, cache)
        assert "pkg.b" in edited.analyzed
        assert edited.findings == []
        assert _atomicity(pkg, cache).analyzed == []

    @pytest.fixture(scope="class")
    def probed_tree(self, tmp_path_factory, real_tree):
        """The real ``repro`` tree plus a pager module that reads a
        guarded field, enters the fault path through each kernel entry
        point, and writes the field back; its atomicity findings.  The
        run starts from a copy of the session's cache of the real tree,
        so only the probe is analyzed."""
        import repro
        base = tmp_path_factory.mktemp("tree")
        cache = base / "cache"
        shutil.copytree(real_tree.cache, cache)
        root = base / "repro"
        shutil.copytree(Path(repro.__file__).resolve().parent, root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        (root / "pager" / "_probe.py").write_text(textwrap.dedent("""
            def via_fault(kernel, task, buf, addr, kind):
                n = buf.size
                kernel.fault(task, addr, kind)
                buf.size = n + 1

            def via_fault_batch(kernel, task, buf, addr, kind):
                n = buf.size
                kernel.fault_batch(task, addr, 2, kind)
                buf.size = n + 1

            def via_wire_range(kernel, task, buf, addr):
                n = buf.size
                kernel.wire_range(task, addr, 4096)
                buf.size = n + 1
            """))
        report = run_flow_passes(root, "repro", passes=("atomicity",),
                                 cache_dir=cache)
        assert report.errors == []
        assert report.analyzed == ["repro.pager._probe"]
        return {(f.module, f.rule, f.where) for f in report.findings}

    @pytest.mark.parametrize("where", [
        "via_fault", "via_fault_batch", "via_wire_range"])
    def test_kernel_fault_entry_points_may_yield(self, probed_tree, where):
        """``kernel.fault`` reaches the resolver through the
        ``fault_resolver`` seam and ``fault_batch``/``wire_range``
        through ``vm_fault_batch``: each can block on a pager round
        trip, so a read-call-write across it is a hazard."""
        assert ("repro.pager._probe", "atomicity-hazard", where) \
            in probed_tree


class TestHookInversionRule:
    """Checked layers never import their checkers — the sanitizer
    attaches through duck-typed hooks only."""

    @pytest.fixture
    def layered(self, tmp_path):
        root = tmp_path / "pkg"
        _write_tree(root, {
            "__init__.py": "",
            "core/__init__.py": "",
            "core/kernel.py": "",
            "sched/__init__.py": "",
            "sched/scheduler.py": "",
            "analysis/__init__.py": "",
            "analysis/race.py": "",
        })
        return root

    def test_sched_importing_analysis_flagged(self, layered):
        (layered / "sched" / "scheduler.py").write_text(
            "from pkg.analysis.race import lint_guarded_by\n")
        assert "hook-inversion" in _rules(
            lint_package(layered, package="pkg"))

    def test_core_importing_analysis_flagged(self, layered):
        (layered / "core" / "kernel.py").write_text(
            "import pkg.analysis.race\n")
        assert "hook-inversion" in _rules(
            lint_package(layered, package="pkg"))

    def test_analysis_importing_sched_is_fine(self, layered):
        (layered / "analysis" / "race.py").write_text(
            "from pkg.sched.scheduler import Scheduler\n")
        assert "hook-inversion" not in _rules(
            lint_package(layered, package="pkg"))

    @pytest.mark.parametrize("source", [
        "from tests.difftest.reference import vm_fault_reference\n",
        "import tests.difftest.harness\n",
        "def boot():\n    from tests import difftest\n",
    ])
    def test_src_importing_tests_flagged(self, layered, source):
        (layered / "core" / "kernel.py").write_text(source)
        assert "test-import" in _rules(
            lint_package(layered, package="pkg"))


class TestRealTree:
    def test_source_tree_is_concurrency_clean(self, real_tree):
        """The session's analysis ran the guarded-by lint on the
        shipped tree, and it found nothing (before any baseline entry
        applied)."""
        report = real_tree.report
        assert "#concurrency" in report.analyzed
        assert report.errors == []
        violations = [f for f in report.findings
                      + [f for f, _ in report.suppressed]
                      if f.pass_name == "concurrency"]
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_every_discipline_is_used_by_the_tree(self):
        """The contract is live: real guarded classes declare real
        disciplines (a rename in either place breaks this)."""
        import repro
        from pathlib import Path
        from repro.analysis.race import _parse_class_guards
        root = Path(repro.__file__).resolve().parent
        used = set()
        for module, classes in GUARDED_CLASSES.items():
            path = root / (module.replace(".", "/") + ".py")
            source = path.read_text(encoding="utf-8")
            decls, _, bad, _ = _parse_class_guards(
                ast.parse(source), source.splitlines(), module, classes)
            assert bad == []
            for per_class in decls.values():
                used |= {d.discipline for d in per_class.values()}
        assert used   # at least one declaration exists
        assert used <= set(DISCIPLINES)
        # The core locking story of the paper is actually declared.
        assert {"object-lock", "map-lock"} <= used

    def test_lint_concurrency_combines_both_halves(self, tmp_path):
        """One miniature tree, both halves of the static check: the
        guarded-by lint flags the store, the atomicity pass the stale
        read."""
        root = tmp_path / "pkg"
        _write_tree(root, {
            "__init__.py": "",
            "core/__init__.py": "",
            "core/vm_object.py": VM_OBJECT_OK,
            # The other guarded modules exist but define no guarded
            # class in this miniature tree.
            "core/kernel.py": "",
            "core/address_map.py": "",
            "core/resident.py": "",
            "pager/__init__.py": "",
            "pager/rogue.py": """
                def shrink(obj, ctx, addr):
                    obj.size = 0

                def stale(sched, task, addr):
                    def bump(ctx):
                        v = ctx.read(addr, 1)
                        yield
                        ctx.write(addr, v)
                    sched.spawn(task, bump)
                """,
        })
        assert _rules(lint_guarded_by(root, "pkg")) == {"guarded-by"}
        assert _rules(_atomicity(root).findings) \
            == {"stale-read-across-yield"}
