"""The incremental analysis cache: warm runs re-analyze nothing,
edits re-analyze exactly the edited module's reverse-dependency cone,
and cached runs report the same findings as cold ones.  The mechanics
run on small packages (``tree`` below, ``mini_repro`` in
``conftest.py``); the shipped tree's warm run starts from the
session's cold one (``real_tree``)."""

from __future__ import annotations

import ast
import builtins
import hashlib
import io
import os
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.analysis import cache as cache_module
from repro.analysis import cfg, conformance, flow
from repro.analysis.cache import (
    RECENT_TREES, AnalysisCache, content_digest, module_key, tree_digest,
)
from repro.analysis.flow import SourceTree, run_flow_passes
from repro.cli import main

PKG = "pkg"

#: Three-module tree: ``b`` calls into ``a`` (a cross-module edge the
#: call graph resolves), ``c`` is independent.  The package module
#: itself has no calls, so its cone is just itself.
A_SRC = '''\
class Helper:
    def drop(self, resident, page):
        resident.deactivate(page)
'''

A_EDITED = '''\
class Helper:
    def drop(self, resident, page):
        resident.free(page)
'''

B_SRC = '''\
from pkg.a import Helper

class Caller:
    def run(self, resident):
        page = resident.allocate()
        helper = Helper()
        helper.drop(resident, page)
        resident.free(page)
'''

C_SRC = '''\
class Standalone:
    def spin(self, resident):
        page = resident.allocate()
        resident.free(page)
'''


@pytest.fixture
def tree(tmp_path):
    pkg = tmp_path / PKG
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(A_SRC)
    (pkg / "b.py").write_text(B_SRC)
    (pkg / "c.py").write_text(C_SRC)
    return pkg


def _run(tree, cache_dir):
    return run_flow_passes(root=tree, package=PKG,
                           baseline=[], cache_dir=cache_dir)


def _mods(names):
    """Real modules only (``#<pass>``, e.g. ``#conformance``, stands
    for a whole-tree pass's result, which isn't a module)."""
    return sorted(n for n in names if not n.startswith("#"))


def _forbid_parsing(monkeypatch):
    """Make any ``ast.parse`` the flow runner reaches raise (patch
    inside ``monkeypatch.context()``: pytest parses to render errors)."""
    def parse(*_args, **_kwargs):
        raise AssertionError("ast.parse called on a warm run")
    monkeypatch.setattr(flow.ast, "parse", parse)


class TestWarmRun:
    def test_second_run_analyzes_zero_modules(self, tree, tmp_path):
        cache = tmp_path / "cache"
        cold = _run(tree, cache)
        assert _mods(cold.analyzed) == [
            "pkg", "pkg.a", "pkg.b", "pkg.c"]
        assert cold.cached == []

        warm = _run(tree, cache)
        assert warm.analyzed == []
        assert _mods(warm.cached) == [
            "pkg", "pkg.a", "pkg.b", "pkg.c"]

    def test_warm_findings_match_cold(self, tree, tmp_path):
        cache = tmp_path / "cache"
        cold = _run(tree, cache)
        warm = _run(tree, cache)
        assert warm.findings == cold.findings
        assert warm.errors == cold.errors == []

    def test_warm_run_never_parses(self, tree, tmp_path, monkeypatch):
        """An unchanged tree is served from the digest alone: no
        module is parsed, so a raising ``ast.parse`` goes unnoticed."""
        cache = tmp_path / "cache"
        cold = _run(tree, cache)
        with monkeypatch.context() as patch:
            _forbid_parsing(patch)
            warm = _run(tree, cache)
        assert warm.errors == []
        assert warm.analyzed == []
        assert warm.findings == cold.findings

    def test_real_tree_warm_run(self, real_tree, real_tree_cwd,
                                monkeypatch):
        """The shipped tree itself: cold populates, warm serves
        everything from cache without parsing and stays clean."""
        cache = real_tree_cwd / cache_module.DEFAULT_DIR
        cold = real_tree.report
        assert cold.clean and cold.analyzed
        with monkeypatch.context() as patch:
            _forbid_parsing(patch)
            warm = run_flow_passes(cache_dir=cache)
        assert warm.clean
        assert warm.analyzed == []
        assert warm.findings == cold.findings
        assert len(warm.cached) == \
            len(cold.analyzed) + len(cold.cached)


class TestLintScope:
    def test_lints_check_only_repro(self, tree, tmp_path):
        """The layering and guarded-by lints encode ``repro``'s own
        layers and guarded classes: on another package they neither
        run nor report."""
        report = _run(tree, tmp_path / "cache")
        assert report.errors == []
        assert [f for f in report.findings
                + [f for f, _ in report.suppressed]
                if f.pass_name in ("layering", "concurrency")] == []
        assert [n for n in report.analyzed if n.startswith("#")] == [
            "#conformance"]


class TestOneReadPerFile:
    """Each source is read and hashed once per run, so the bytes that
    are hashed into the cache keys are the bytes that were parsed and
    analyzed."""

    @staticmethod
    def _count_reads(monkeypatch, tree):
        """Count opens of the files under *tree*, through ``open`` or
        through ``Path.read_text``/``read_bytes`` (``io.open``)."""
        reads = Counter()
        real = io.open

        def counting_open(file, *args, **kwargs):
            if not isinstance(file, int) and tree in Path(file).parents:
                reads[Path(file).relative_to(tree).as_posix()] += 1
            return real(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        return reads

    @staticmethod
    def _count_hashes(monkeypatch):
        """Record every chunk fed to ``hashlib.sha256``, by its bytes."""
        chunks = Counter()
        real = hashlib.sha256

        class Counting:
            def __init__(self, data=None):
                self._hash = real()
                if data is not None:
                    self.update(data)

            def update(self, data):
                chunks[bytes(data)] += 1
                self._hash.update(data)

            def hexdigest(self):
                return self._hash.hexdigest()

        monkeypatch.setattr(hashlib, "sha256", Counting)
        return chunks

    def test_cold_and_warm_read_each_module_once(
            self, tree, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        reads = self._count_reads(monkeypatch, tree)
        once = {"__init__.py": 1, "a.py": 1, "b.py": 1, "c.py": 1}

        cold = _run(tree, cache)
        assert _mods(cold.analyzed) == ["pkg", "pkg.a", "pkg.b", "pkg.c"]
        assert reads == once

        reads.clear()
        warm = _run(tree, cache)
        assert warm.analyzed == []
        assert reads == once

    @staticmethod
    def _count_parses(monkeypatch):
        """Count ``ast.parse`` calls by ``filename``: a module's file is
        parsed under its path; conformance's method snippets parse as
        ``<unknown>`` and are not modules."""
        parses = Counter()
        real = ast.parse

        def parse(source, filename="<unknown>", *args, **kwargs):
            if filename != "<unknown>":
                parses[filename] += 1
            return real(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", parse)
        return parses

    def test_check_reads_and_parses_each_module_once(
            self, tmp_path, monkeypatch, capsys, check_mini_repro):
        """A whole cold ``check --lint-only`` (digest, both lints, every
        flow pass) reads each file once and parses each module once.
        The warm run reads once and parses nothing, and a cold run in a
        fresh cache directory parses everything again: nothing parsed
        outlives the run that parsed it."""
        root = check_mini_repro
        files = sorted(root.rglob("*.py"))
        once_read = Counter({p.relative_to(root).as_posix(): 1
                             for p in files})
        once_parsed = Counter({str(p): 1 for p in files})
        reads = self._count_reads(monkeypatch, root)
        parses = self._count_parses(monkeypatch)

        def source_reads():     # the baseline file is data, not source
            return Counter({f: n for f, n in reads.items()
                            if f.endswith(".py")})

        monkeypatch.chdir(tmp_path)
        assert main(["check", "--lint-only"]) == 0
        assert source_reads() == once_read
        assert parses == once_parsed

        reads.clear()
        parses.clear()
        assert main(["check", "--lint-only"]) == 0
        assert "analyzed 0 module(s)" in capsys.readouterr().out
        assert source_reads() == once_read
        assert parses == Counter()

        fresh = tmp_path / "fresh"
        fresh.mkdir()
        monkeypatch.chdir(fresh)
        reads.clear()
        assert main(["check", "--lint-only"]) == 0
        assert parses == once_parsed

        # Conformance checks the live pmap registry, whose modules are
        # the installed tree's whatever tree is linted.  Their imports
        # are the layering lint's, so beside that tree's SourceTree it
        # reads none of them again and parses none of them.
        real = Path(repro.__file__).resolve().parent
        parses.clear()
        with monkeypatch.context() as patch:
            real_reads = self._count_reads(patch, real)
            conformance.run_pass(SourceTree())
        assert Counter({f: n for f, n in real_reads.items()
                        if f.endswith(".py")}) == Counter(
            {p.relative_to(real).as_posix(): 1 for p in real.rglob("*.py")})
        assert parses == Counter()

    def test_check_hashes_each_file_once(self, tmp_path, monkeypatch,
                                         check_mini_repro):
        """A cold and a warm ``check --lint-only`` each feed every
        file's bytes to sha256 exactly once, as one chunk, and the cold
        run keys each module on its file's digest, hashing no text
        again."""
        files = [p.read_bytes() for p in check_mini_repro.rglob("*.py")]
        once = Counter(files)
        tree_bytes = sum(map(len, files))
        keyed = []
        real_key = cache_module.module_key

        def module_key(file_digest, *args):
            keyed.append(file_digest)
            return real_key(file_digest, *args)

        monkeypatch.setattr(cache_module, "module_key", module_key)
        file_digests = sorted(hashlib.sha256(data).hexdigest()
                              for data in files)
        chunks = self._count_hashes(monkeypatch)
        monkeypatch.chdir(tmp_path)
        for run, want_keys in (("cold", file_digests), ("warm", [])):
            chunks.clear()
            keyed.clear()
            assert main(["check", "--lint-only"]) == 0
            assert Counter({b: chunks[b] for b in once}) == once, run
            assert sorted(keyed) == want_keys, run
            # The rest (digests, versions, the cold run's summaries) is
            # well under what one more pass over the tree would hash.
            other = sum(len(b) * n for b, n in chunks.items()
                        if b not in once)
            assert other < tree_bytes // 2, (run, other, tree_bytes)

    def test_lint_cache_keys_the_version_it_linted(
            self, tmp_path, monkeypatch, check_mini_repro):
        """An edit landing between two reads of one file must not store
        one version's lint results under the other version's digest.
        With one read per run there is no second version: the run lints
        what it hashed, and the next run is served that result."""
        target = str(check_mini_repro / "core" / "constants.py")
        real = io.open
        seen = Counter()

        def edited_open(file, mode="r", *args, **kwargs):
            if str(file) != target:
                return real(file, mode, *args, **kwargs)
            seen[target] += 1
            with real(file, "rb") as handle:
                data = handle.read()
            if seen[target] > 1:
                data += b"\nfrom repro.pmap.vax import VaxPmap\n"
            return io.BytesIO(data) if "b" in mode \
                else io.StringIO(data.decode())

        monkeypatch.chdir(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", edited_open)
            patch.setattr(io, "open", edited_open)
            assert main(["check", "--lint-only"]) == 0
        assert seen[target] == 1
        assert main(["check", "--lint-only"]) == 0


def _reference_walk_no_lambda(node):
    """``cfg.walk_no_lambda`` as it was before the cached child index:
    ``ast.iter_child_nodes`` at every step."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        for child in ast.iter_child_nodes(cur):
            if not isinstance(child, (ast.Lambda, ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                stack.append(child)


def _no_context(nodes):
    return [n for n in nodes if not isinstance(n, ast.expr_context)]


@pytest.fixture(scope="module")
def real_trees():
    source = SourceTree()
    return [source.parse(module) for module in source.files]


class TestOneWalker:
    """The cached walker visits exactly what ``ast.walk`` and the old
    ``walk_no_lambda`` visited (less ``expr_context`` nodes), and every
    CFG node's calls are what the passes used to collect per visit."""

    def test_walks_match_the_uncached_walks_on_every_node(
            self, real_trees, monkeypatch):
        """Each node's ``ast.iter_child_nodes`` is taken once and
        replayed: the references then walk every subtree of the real
        tree without rebuilding its child lists at every ancestor."""
        iter_child_nodes = ast.iter_child_nodes

        class Replay(dict):
            def __missing__(self, node):
                kids = self[node] = tuple(iter_child_nodes(node))
                return kids

        with monkeypatch.context() as patch:
            patch.setattr(ast, "iter_child_nodes", Replay().__getitem__)
            for tree in real_trees:
                for node in _no_context(ast.walk(tree)):
                    assert list(cfg.walk(node)) == \
                        _no_context(ast.walk(node))
                    assert list(cfg.walk_no_lambda(node)) == \
                        _no_context(_reference_walk_no_lambda(node))

    def test_leaves_store_nothing(self, real_trees):
        for tree in real_trees:
            for node in cfg.walk(tree):
                if type(node) in cfg._LEAVES:
                    assert not hasattr(node, "_repro_children")

    def test_cfg_node_calls_match_the_per_visit_walk(self, real_trees):
        handlers = 0
        for tree in real_trees:
            for _name, func in cfg.iter_functions(tree):
                for node in cfg.build_cfg(func):
                    want = tuple(
                        c for expr in node.exprs
                        for c in _reference_walk_no_lambda(expr)
                        if isinstance(c, ast.Call))
                    assert node.calls == want
                    handlers += isinstance(node.stmt, ast.ExceptHandler)
        assert handlers


class TestReverseDependencyCone:
    def test_edit_reanalyzes_exactly_the_cone(self, tree, tmp_path):
        """Editing ``a`` must re-analyze ``a`` and its caller ``b``
        (whose cached result depended on a's summary) — and nothing
        else."""
        cache = tmp_path / "cache"
        _run(tree, cache)
        (tree / "a.py").write_text(A_EDITED)

        report = _run(tree, cache)
        assert _mods(report.analyzed) == ["pkg.a", "pkg.b"]
        assert _mods(report.cached) == ["pkg", "pkg.c"]
        # The edit made Helper.drop free the page, so b's
        # allocate/drop/free path is now a cross-call double free —
        # the re-analysis of the cone surfaces it.
        rules = {(f.module, f.rule) for f in report.findings}
        assert ("pkg.b", "page-double-free") in rules

    def test_same_length_edit_with_old_mtime_is_seen(
            self, tree, tmp_path):
        """Keys are content only: an in-place edit that keeps the
        file's byte length, with its mtime put back, still re-analyzes
        the edited module's cone and reports the new finding."""
        cache = tmp_path / "cache"
        new = ("pkg.b", "page-double-free")
        cold = _run(tree, cache)
        assert new not in {(f.module, f.rule) for f in cold.findings}
        path = tree / "a.py"
        edited = A_EDITED.ljust(len(A_SRC))
        assert len(edited.encode()) == path.stat().st_size
        stat = path.stat()
        with open(path, "r+b") as handle:
            handle.write(edited.encode())
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_mtime_ns == stat.st_mtime_ns

        report = _run(tree, cache)
        assert _mods(report.analyzed) == ["pkg.a", "pkg.b"]
        assert new in {(f.module, f.rule) for f in report.findings}

    def test_comment_only_edit_reanalyzes_only_the_module(
            self, tree, tmp_path):
        """A's summary is unchanged by a comment, so b's cache entry
        (keyed on a's summary digest, not its text) stays valid."""
        cache = tmp_path / "cache"
        _run(tree, cache)
        (tree / "a.py").write_text("# prologue\n" + A_SRC)

        report = _run(tree, cache)
        assert _mods(report.analyzed) == ["pkg.a"]
        assert _mods(report.cached) == ["pkg", "pkg.b", "pkg.c"]


class TestRecentTrees:
    def test_reverted_edit_is_served_whole(self, tree, tmp_path):
        """The fast path remembers recent trees: after an edit and its
        revert, the original tree is served without any analysis."""
        cache = tmp_path / "cache"
        cold = _run(tree, cache)
        (tree / "a.py").write_text(A_EDITED)
        assert _mods(_run(tree, cache).analyzed) == ["pkg.a", "pkg.b"]
        (tree / "a.py").write_text(A_SRC)

        back = _run(tree, cache)
        assert back.analyzed == []
        assert back.findings == cold.findings

    def test_lint_probe_through_the_warm_cache(
            self, tmp_path, monkeypatch, capsys, check_mini_repro):
        """MI code importing a concrete pmap, added to a warm tree: the
        layering lint reports its one line, only the probe and the
        three whole-tree passes run, and deleting the probe brings back
        the remembered clean tree with nothing analyzed."""
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--lint-only"]) == 0
        probe = check_mini_repro / "core" / "_probe.py"
        probe.write_text("from repro.pmap import vax\n")
        capsys.readouterr()

        assert main(["check", "--lint-only"]) == 1
        out = capsys.readouterr().out
        assert out.count("[layering/concrete-pmap-import]") == 1
        assert "repro.core._probe:1: [layering/concrete-pmap-import]" \
            in out
        assert "analyzed 4 module(s)" in out

        probe.unlink()
        assert main(["check", "--lint-only"]) == 0
        out = capsys.readouterr().out
        assert "analyzed 0 module(s)" in out
        assert "lint: clean" in out

    def test_only_the_latest_trees_are_remembered(self, tmp_path):
        cache = AnalysisCache(tmp_path / "c")
        digests = [f"d{i}" for i in range(RECENT_TREES + 2)]
        for digest in digests:
            cache.store_tree(digest, {"passes": [digest]})
        assert [cache.load_tree(d) is not None for d in digests] \
            == [False, False] + [True] * RECENT_TREES
        assert cache.load_tree(digests[-1])["passes"] == [digests[-1]]


class TestKeying:
    def test_module_key_covers_all_inputs(self):
        deps = {"pkg.a": "d1"}
        base = module_key("file", {"p": "1"}, "own", deps)
        assert base != module_key("file2", {"p": "1"}, "own", deps)
        assert base != module_key("file", {"p": "2"}, "own", deps)
        assert base != module_key("file", {"p": "1"}, "own2", deps)
        assert base != module_key("file", {"p": "1"}, "own",
                                  {"pkg.a": "d2"})
        assert base == module_key("file", {"p": "1"}, "own", deps)

    def test_tree_digest_orders_canonically(self):
        one = tree_digest(content_digest({"a": "1", "b": "2"}),
                          {"p": "1"})
        two = tree_digest(content_digest({"b": "2", "a": "1"}),
                          {"p": "1"})
        assert one == two
        assert one != tree_digest(content_digest({"a": "1"}),
                                  {"p": "1"})
        assert one != tree_digest(content_digest({"a": "1", "b": "2"}),
                                  {"p": "2"})

    def test_source_tree_digests_each_file(self, tree):
        """``SourceTree`` keeps each file's sha256 and builds the
        content digest from the ``(module, file digest)`` pairs."""
        source = SourceTree(tree, PKG)
        assert list(source.files) == ["pkg", "pkg.a", "pkg.b", "pkg.c"]
        for module, (path, data, digest) in source.files.items():
            assert data == Path(path).read_bytes()
            assert digest == hashlib.sha256(data).hexdigest()
        assert source.digest == content_digest(
            {m: f[2] for m, f in source.files.items()})

    def test_store_is_atomic_and_reloadable(self, tmp_path):
        cache = AnalysisCache(tmp_path / "c")
        cache.store_module("m", "key1", {"typestate": []})
        assert cache.load_module("m", "key1") == {
            "key": "key1", "passes": {"typestate": []}}
        assert cache.load_module("m", "other-key") is None
        assert cache.load_module("never-stored", "key1") is None

    def test_interleaved_writers_each_land(self, tmp_path,
                                           monkeypatch):
        """Writer B runs whole between writer A's temp write and A's
        replace.  Each has its own temp file, so neither moves the
        other's: both writes succeed, the last replace wins, and no
        temp file is left behind."""
        cache = AnalysisCache(tmp_path / "c")
        real = os.replace
        nested = []

        def replace(src, dst):
            if not nested:
                nested.append(src)
                cache.write_stats({"writer": "B"})
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        cache.write_stats({"writer": "A"})
        assert nested
        assert cache.read_stats() == {"writer": "A"}
        assert sorted(p.name for p in cache.dir.iterdir()) == \
            ["stats.json"]

    def test_stats_roundtrip(self, tmp_path):
        cache = AnalysisCache(tmp_path / "c")
        cache.write_stats({"analyzed": 3, "cached": 91})
        assert cache.read_stats() == {"analyzed": 3, "cached": 91}
        assert AnalysisCache(tmp_path / "empty").read_stats() is None
