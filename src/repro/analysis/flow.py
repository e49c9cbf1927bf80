"""Static pass framework: findings, solver, baseline, runner.

This is the one runner behind every static check of ``repro check``.
Five passes run per module: the ``lifecycle`` and ``typestate`` rule
groups of the one ownership engine in :mod:`~repro.analysis.typestate`,
:mod:`~repro.analysis.errorpaths`, :mod:`~repro.analysis.determinism`
and the ``atomicity`` pass in :mod:`~repro.analysis.race`.  Three run
over the whole tree: :mod:`~repro.analysis.conformance`, the MD/MI
import contract (``layering``, :mod:`~repro.analysis.layering`) and the
guarded-by contract (``concurrency``, :mod:`~repro.analysis.race`).

* :class:`Finding` — one diagnosed problem, printed as
  ``module:line: [pass/rule] message``;
* :class:`AnalysisError` — a pass that *crashed* rather than found;
  ``repro check`` treats these as failures, never as a clean run;
* :func:`solve_forward` — a generic forward worklist solver over the
  CFGs built by :mod:`repro.analysis.cfg`;
* :class:`SourceTree` — one run's source files, each read and hashed
  once and each module parsed at most once, shared by every pass;
* a reviewed-suppression **baseline** (``flow_baseline.txt`` next to
  this module): triaged false positives are recorded there with a
  reason instead of silencing the rule globally;
* :func:`run_flow_passes` — run every registered pass over the source
  tree, apply the baseline, and collect findings/errors/suppressions
  into a :class:`FlowReport`.
"""

from __future__ import annotations

import ast
import hashlib
import os
import traceback
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from importlib.util import decode_source
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from repro.analysis.cfg import CFG, ENTRY, CFGNode


@dataclass(frozen=True)
class Finding:
    """One problem diagnosed by a flow pass."""

    pass_name: str      # "lifecycle", "conformance", ...
    module: str         # dotted module, e.g. "repro.pager.swap"
    lineno: int
    rule: str           # e.g. "leak-on-exception-path"
    where: str          # function qualname (or class name), "" if n/a
    message: str

    def __str__(self) -> str:
        loc = f" in {self.where}" if self.where else ""
        return (f"{self.module}:{self.lineno}: [{self.pass_name}/"
                f"{self.rule}] {self.message}{loc}")


@dataclass(frozen=True)
class AnalysisError:
    """A pass that crashed.  Reported, never swallowed."""

    pass_name: str
    message: str

    def __str__(self) -> str:
        return f"analysis error: pass {self.pass_name!r} crashed: " \
               f"{self.message}"


@dataclass
class FlowReport:
    """Everything one ``repro check`` analysis run produced."""

    findings: list[Finding] = field(default_factory=list)
    errors: list[AnalysisError] = field(default_factory=list)
    suppressed: list[tuple[Finding, str]] = field(default_factory=list)
    #: Module names actually analyzed this run (``#<pass>`` stands for
    #: a whole-tree pass's result, e.g. ``#conformance``).
    analyzed: list[str] = field(default_factory=list)
    #: Module names served from the incremental cache.
    cached: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def lines(self) -> list[str]:
        out = [str(f) for f in self.findings]
        out += [str(e) for e in self.errors]
        return out


# -- generic forward worklist solver -------------------------------------

#: transfer(node, state) -> (normal-out state, exceptional-out state)
Transfer = Callable[[CFGNode, object], tuple[object, object]]
#: join(a, b) -> merged state
Join = Callable[[object, object], object]


def solve_forward(cfg: CFG, init: object, transfer: Transfer,
                  join: Join, max_iter: int = 10000) -> dict[int, object]:
    """Run *transfer* to a fixpoint over *cfg*; returns the map of
    node id -> state *entering* that node (synthetic EXIT/EXC_EXIT
    included, holding the states that reach them)."""
    in_states: dict[int, object] = {ENTRY: init}
    work = deque([ENTRY])
    iters = 0
    while work:
        iters += 1
        if iters > max_iter:        # belt and braces; lattices are finite
            raise RuntimeError(f"dataflow did not converge in {max_iter} "
                               f"iterations")
        nid = work.popleft()
        node = cfg.nodes.get(nid)
        if node is None:
            continue
        out_n, out_e = transfer(node, in_states[nid])
        for succ, out in [(s, out_n) for s in node.succ] + \
                         [(s, out_e) for s in node.exc]:
            if succ in in_states:
                merged = join(in_states[succ], out)
                if merged == in_states[succ]:
                    continue
                in_states[succ] = merged
            else:
                in_states[succ] = out
            if succ in cfg.nodes:
                work.append(succ)
    return in_states


# -- the source tree of one run -------------------------------------------

class SourceLines(Sequence):
    """One module's source lines, decoded and split on first use.  Only
    the ``#: no-retry`` checks and the guard annotations read lines, at
    a few call sites, so most modules of a run never decode their
    bytes."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._lines: Optional[list[str]] = None

    def _split(self) -> list[str]:
        if self._lines is None:
            self._lines = decode_source(self._data).splitlines()
        return self._lines

    def __len__(self) -> int:
        return len(self._split())

    def __getitem__(self, index):
        return self._split()[index]


def module_files(root: Path, package: str) -> dict[str, str]:
    """``{dotted module: path}`` for every ``.py`` file under *root*,
    the directory of *package*, in path order (one directory walk)."""
    top = str(root)
    found = []
    for dirpath, _dirs, names in os.walk(top):
        parts = [p for p in dirpath[len(top):].split(os.sep) if p]
        found += [(*parts, n) for n in names if n.endswith(".py")]
    return {".".join([package, *parts[:-1], parts[-1][:-3]])
            .removesuffix(".__init__"): os.path.join(top, *parts)
            for parts in sorted(found)}


class SourceTree:
    """Every source file under *root* (the installed ``repro`` package
    by default), read as bytes in one directory walk, in path order,
    and hashed (sha256) as it is read; each module is parsed on first
    use and at most once, straight from its bytes.

    :func:`run_flow_passes` builds one per run and hands it to every
    pass, so everything hashed, parsed and split into lines is one
    version of each file, and every cache key comes from the per-file
    digests (:attr:`digest` is the tree's; a run
    served from the cache parses and decodes nothing).  Never keep one
    across runs: it holds the parsed trees and, on their nodes, the
    walker's child index (:func:`repro.analysis.cfg.children`)."""

    def __init__(self, root: Optional[Path] = None,
                 package: str = "repro") -> None:
        if root is None:
            import repro
            root = Path(repro.__file__).resolve().parent
        self.root = Path(root)
        self.package = package
        #: ``{dotted module: (path, bytes, sha256 hex digest)}``
        self.files: dict[str, tuple[str, bytes, str]] = {}
        for module, path in module_files(self.root, package).items():
            with open(path, "rb") as handle:
                data = handle.read()
            self.files[module] = (path, data,
                                  hashlib.sha256(data).hexdigest())
        self._trees: dict[str, ast.Module] = {}

    @cached_property
    def digest(self) -> str:
        """The tree's content digest, over each ``(module, file
        digest)`` pair (see :func:`repro.analysis.cache.content_digest`)."""
        from repro.analysis.cache import content_digest
        return content_digest({m: f[2] for m, f in self.files.items()})

    def lines(self, module: str) -> SourceLines:
        """*module*'s source lines, decoded on first use."""
        return SourceLines(self.files[module][1])

    def parse(self, module: str) -> ast.Module:
        """*module*'s tree, parsed on first use (a module that fails to
        parse raises on every call)."""
        tree = self._trees.get(module)
        if tree is None:
            path, data, _digest = self.files[module]
            tree = self._trees[module] = ast.parse(data, filename=path)
        return tree


# -- baseline (reviewed suppressions) ------------------------------------

BASELINE_FILE = Path(__file__).with_name("flow_baseline.txt")


@dataclass(frozen=True)
class BaselineEntry:
    """One reviewed suppression: ``rule | module | where | reason``."""

    rule: str
    module: str
    where: str        # function qualname, or "*" for the whole module
    reason: str
    lineno: int = 0   # line in the baseline file (0 = synthesized)

    def matches(self, finding: Finding) -> bool:
        return (self.rule == f"{finding.pass_name}/{finding.rule}"
                and self.module == finding.module
                and (self.where == "*" or self.where == finding.where))


def load_baseline(path: Optional[Path] = None) -> list[BaselineEntry]:
    """Parse the reviewed-suppression baseline file."""
    path = path or BASELINE_FILE
    entries: list[BaselineEntry] = []
    if not path.exists():
        return entries
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 4 or not all(parts):
            raise ValueError(f"malformed baseline line: {raw!r} "
                             f"(want 'rule | module | where | reason')")
        entries.append(BaselineEntry(*parts, lineno=lineno))
    return entries


def apply_baseline(findings: Iterable[Finding],
                   baseline: Iterable[BaselineEntry]
                   ) -> tuple[list[Finding], list[tuple[Finding, str]]]:
    """Split *findings* into (kept, suppressed-with-reason)."""
    baseline = list(baseline)
    kept: list[Finding] = []
    suppressed: list[tuple[Finding, str]] = []
    for finding in findings:
        for entry in baseline:
            if entry.matches(finding):
                suppressed.append((finding, entry.reason))
                break
        else:
            kept.append(finding)
    return kept, suppressed


# -- pass registry + runner ----------------------------------------------

@dataclass(frozen=True)
class _ModulePass:
    """One per-module pass: cache-key version, scope, and runner
    (``run(module, tree, lines, ctx) -> findings``)."""

    version: str
    in_scope: Callable[[str, str], bool]
    run: Callable[[str, ast.AST, list, object], list[Finding]]


def _module_pass_registry() -> dict[str, _ModulePass]:
    # Imported lazily so a crash importing one pass is reported as an
    # AnalysisError for that pass, not an ImportError killing check.
    from repro.analysis import determinism, errorpaths, race, typestate

    def ownership(group: str) -> _ModulePass:
        # A rule group of the one ownership engine: its own scope, and
        # one engine run per module serves both groups.
        return _ModulePass(
            typestate.PASS_VERSION,
            lambda module, package: typestate.in_scope(module, package,
                                                       group),
            lambda module, tree, lines, ctx:
                typestate.check_group(group, module, tree, ctx))

    return {
        "lifecycle": ownership("lifecycle"),
        "errorpaths": _ModulePass(
            errorpaths.PASS_VERSION, errorpaths.in_scope,
            lambda module, tree, lines, ctx:
                errorpaths.check_module(module, tree, lines, ctx)),
        "determinism": _ModulePass(
            determinism.PASS_VERSION, determinism.in_scope,
            lambda module, tree, lines, ctx:
                determinism.check_module(module, tree)),
        "typestate": ownership("typestate"),
        "atomicity": _ModulePass(
            race.ATOMICITY_VERSION, race.atomicity_in_scope,
            lambda module, tree, lines, ctx:
                race.check_atomicity(module, tree, ctx)),
    }


def _tree_pass_registry(package: str) -> dict[str, tuple]:
    """The whole-tree passes in scope for *package*: ``name -> (version,
    run(source) -> findings)``.  The two lints encode ``repro``'s own
    layers and guarded classes, so they check ``repro`` alone.  They
    are looked up on the :mod:`repro.analysis` package at call time,
    so a wrapper installed there sees every call."""
    import repro.analysis as analysis
    from repro.analysis import conformance, layering, race

    passes = {"conformance": (conformance.PASS_VERSION,
                              conformance.run_pass)}
    if package == "repro":
        passes["layering"] = (
            layering.LINT_VERSION,
            lambda source: analysis.lint_source_tree(source))
        passes["concurrency"] = (
            race.LINT_VERSION,
            lambda source: analysis.lint_source_concurrency(source))
    return passes


#: Every pass :func:`run_flow_passes` runs by default, in report order.
PASS_NAMES = ("lifecycle", "conformance", "errorpaths", "determinism",
              "typestate", "atomicity", "layering", "concurrency")

#: The five passes ``perf/`` times one by one: its per-layer metric
#: table is keyed on this tuple, so it gains ``atomicity`` together
#: with that table (it times the two lints on their own).
FLOW_PASS_NAMES = PASS_NAMES[:5]


def _finding_dicts(findings: Iterable[Finding]) -> list[dict]:
    return [{"pass_name": f.pass_name, "module": f.module,
             "lineno": f.lineno, "rule": f.rule, "where": f.where,
             "message": f.message} for f in findings]


def _findings_from(dicts: Iterable[dict]) -> list[Finding]:
    return [Finding(**d) for d in dicts]


def _analyze_module(module: str, tree: ast.AST, lines: list,
                    names: tuple, registry: dict, ctx: object,
                    package: str) -> tuple[dict, list]:
    """Run every in-scope requested pass over one module.  Returns
    (per-pass finding dicts, error strings); a pass that crashed is
    an error string and its result is never cached."""
    by_pass: dict[str, list[dict]] = {}
    errors: list[tuple[str, str]] = []
    for name in names:
        mp = registry[name]
        if not mp.in_scope(module, package):
            continue
        try:
            found = mp.run(module, tree, lines, ctx)
        except Exception as exc:
            tb = traceback.format_exception_only(type(exc),
                                                 exc)[-1].strip()
            errors.append((name, f"{module}: {tb}"))
            continue
        by_pass[name] = _finding_dicts(found)
    return by_pass, errors


def imap_cells(fn: Callable, items: Iterable,
               jobs: Optional[int] = None) -> Iterator:
    """``fn(item)`` for each item, in order.  With ``jobs > 1`` the
    items fan out over a fork pool: workers inherit the parent's state,
    so only *fn*'s name, the items and the results cross the pipe."""
    items = list(items)
    if jobs is not None and jobs > 1 and len(items) > 1:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(jobs, len(items))) as pool:
            yield from pool.imap(fn, items)
    else:
        yield from map(fn, items)


#: What :func:`_pool_analyze` reads, set for one run: the --jobs pool's
#: forks inherit it copy-on-write, so only the module name and the
#: result dicts cross the pipe.
_POOL_STATE: Optional[tuple] = None


def _pool_analyze(module: str) -> tuple[str, dict, list]:
    names, registry, ctx, data, package = _POOL_STATE
    tree, lines = data[module]
    by_pass, errors = _analyze_module(module, tree, lines, names,
                                      registry, ctx, package)
    return module, by_pass, errors


def _tree_fast_path(cache, digest: str,
                    names: tuple) -> Optional[dict[str, list[Finding]]]:
    """Serve the whole run from cache when the tree digest is
    remembered: no parsing, no call graph, no summaries.  Returns the
    raw findings by source, or None on a miss."""
    tree_payload = cache.load_tree(digest)
    if tree_payload is None \
            or not set(tree_payload.get("passes", ())) >= set(names):
        return None
    return {source: [f for f in _findings_from(found)
                     if f.pass_name in names]
            for source, found in tree_payload.get("findings", {}).items()}


def run_flow_passes(root: Optional[Path] = None, package: str = "repro",
                    passes: Optional[Iterable[str]] = None,
                    baseline: Optional[Path] = None,
                    cache_dir: Optional[Path] = None,
                    jobs: Optional[int] = None) -> FlowReport:
    """Run the passes over the source tree and apply the baseline.

    The tree (the installed ``repro`` package by default) is read once
    into a :class:`SourceTree` that every pass shares.  A pass that
    raises is recorded as an :class:`AnalysisError` — the report is
    then *not* clean, which is what ``repro check``'s exit code keys
    off.  Findings matching a reviewed baseline entry are moved to
    ``report.suppressed`` with the recorded reason.

    With *cache_dir*, results are served incrementally from an
    :class:`repro.analysis.cache.AnalysisCache`: an unchanged tree is
    served after one read and hash of each source, with no parsing or
    analysis at all, and a changed module re-analyzes only itself
    plus the modules whose summary dependencies it reaches (see the
    cache module docs); the whole-tree passes then run again.
    ``report.analyzed`` / ``report.cached`` say which modules went
    which way.  *jobs* fans cold modules out over a fork pool
    (:func:`imap_cells`); cached values are raw findings, so the
    baseline always applies fresh.
    """
    global _POOL_STATE
    report = FlowReport()
    names = tuple(passes) if passes is not None else PASS_NAMES
    try:
        registry = _module_pass_registry()
        tree_passes = _tree_pass_registry(package)
        entries = load_baseline(baseline)
    except Exception as exc:
        report.errors.append(AnalysisError(
            "flow", f"{type(exc).__name__}: {exc}"))
        return report
    for name in names:
        if name not in PASS_NAMES:
            report.errors.append(AnalysisError(
                name, f"unknown pass (known: {sorted(PASS_NAMES)})"))
    if report.errors:
        return report
    module_names = tuple(n for n in names if n in registry)
    tree_names = tuple(n for n in names if n in tree_passes)

    # Read and hash every source once: the tree digest, the parse, the
    # lines and the per-module keys all come from these bytes.
    try:
        source = SourceTree(root, package)
    except Exception as exc:
        report.errors.append(AnalysisError(
            "flow", f"{type(exc).__name__}: {exc}"))
        return report
    sources = source.files

    cache = None
    digest = ""
    if cache_dir is not None:
        from repro.analysis.cache import AnalysisCache, tree_digest
        cache = AnalysisCache(cache_dir)
        versions = {n: mp.version for n, mp in registry.items()}
        versions.update((n, version)
                        for n, (version, _run) in tree_passes.items())
        digest = tree_digest(source.digest, versions)
        served = _tree_fast_path(cache, digest, names)
        if served is not None:
            report.cached = [*sources, *(f"#{n}" for n in tree_names)]
            _finish_report(report, served, entries)
            return report

    # Cold or partially-warm: parse, then build the interprocedural
    # context (call graph + summaries) — also the source of cache
    # dependency edges.  Every module that fails to parse is a finding,
    # and no pass runs over a tree that does not parse whole.
    data = {}
    for m in sources:
        try:
            data[m] = (source.parse(m), source.lines(m))
        except SyntaxError as exc:
            report.findings.append(Finding(
                "flow", m, exc.lineno or 0, "syntax-error", "",
                f"module failed to parse: {exc.msg}"))
        except Exception as exc:
            report.errors.append(AnalysisError(
                "flow", f"{type(exc).__name__}: {exc}"))
            return report
    if report.findings:
        return report
    try:
        from repro.analysis import typestate
        ctx = typestate.build_context(
            (m, tree, lines) for m, (tree, lines) in data.items())
    except Exception as exc:
        tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
        report.errors.append(AnalysisError("callgraph", tb))
        return report

    keys: dict[str, str] = {}
    if cache is not None:
        from repro.analysis.cache import module_key
        own = {m: ctx.summary_digest(m) for m in sources}
        mod_versions = {n: registry[n].version for n in registry}
        for m, (_path, _data, file_digest) in sources.items():
            deps = {d: own[d] for d in ctx.dependencies(m) if d in own}
            keys[m] = module_key(file_digest, mod_versions, own[m], deps)

    raw_by_source: dict[str, list[Finding]] = {}
    to_analyze: list[str] = []
    for m in sources:
        payload = cache.load_module(m, keys[m]) if cache is not None \
            else None
        if payload is not None and all(
                n in payload.get("passes", {})
                or not registry[n].in_scope(m, package)
                for n in module_names):
            found: list[Finding] = []
            for n in module_names:
                found += _findings_from(payload["passes"].get(n, ()))
            raw_by_source[m] = found
            report.cached.append(m)
        else:
            to_analyze.append(m)

    results: dict[str, dict] = {}
    _POOL_STATE = (module_names, registry, ctx, data, package)
    try:
        for module, by_pass, errors in imap_cells(_pool_analyze,
                                                  to_analyze, jobs):
            results[module] = by_pass
            for name, msg in errors:
                report.errors.append(AnalysisError(name, msg))
    finally:
        _POOL_STATE = None

    for m in to_analyze:
        by_pass = results[m]
        raw_by_source[m] = _findings_from(
            f for found in by_pass.values() for f in found)
        report.analyzed.append(m)
        if cache is not None:
            # A pass that crashed on m is missing from by_pass, so the
            # next run misses this entry and analyzes m again.
            cache.store_module(m, keys[m], by_pass)

    for name in tree_names:
        _version, run = tree_passes[name]
        try:
            raw_by_source[f"#{name}"] = run(source)
            report.analyzed.append(f"#{name}")
        except Exception as exc:
            tb = traceback.format_exception_only(type(exc),
                                                 exc)[-1].strip()
            report.errors.append(AnalysisError(name, tb))
    if cache is not None and not report.errors:
        cache.store_tree(digest, {
            "passes": sorted(names),
            "findings": {source: _finding_dicts(found)
                         for source, found in raw_by_source.items()
                         if found}})

    _finish_report(report, raw_by_source, entries)
    return report


def _finish_report(report: FlowReport,
                   raw_by_source: dict[str, list[Finding]],
                   entries: list[BaselineEntry]) -> None:
    """Apply the baseline (always fresh — cached values are raw) and
    sort deterministically."""
    all_raw = [f for _m, found in sorted(raw_by_source.items())
               for f in found]
    kept, suppressed = apply_baseline(all_raw, entries)
    report.findings.extend(kept)
    report.suppressed.extend(suppressed)
    report.findings.sort(key=lambda f: (f.module, f.lineno, f.rule))
    report.analyzed.sort()
    report.cached.sort()
