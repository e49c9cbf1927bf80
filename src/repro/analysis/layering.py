"""Static layering lint: the MD/MI split as import rules.

Section 3.6 of the paper draws a hard line through the system: all
virtual-memory *truth* lives in the machine-independent data structures
(address maps, memory objects, the resident page table), while the
machine-dependent pmap modules are mere caches behind the Table 3-3/3-4
interface.  That line only survives refactoring if it is checked
mechanically, so this module walks ``src/repro`` with the stdlib ``ast``
parser (no third-party dependencies, no imports of the checked code) and
enforces the boundary as import rules:

* **concrete-pmap-import** — nothing outside ``repro.pmap`` may import a
  concrete pmap implementation (``repro.pmap.vax``, ``.rt_pc``,
  ``.sun3``, ``.sun3_vac``, ``.ns32082``, ``.generic``) or the
  ``repro.pmap`` package itself (whose ``__init__`` re-exports them).
  The interface (``repro.pmap.interface``) and the name-to-class
  registry (``repro.pmap.registry``) are the only sanctioned doors.
* **mi-imports-hw-internals** — machine-independent code (``repro.core``,
  ``repro.pager``, ``repro.ipc``) may import from ``repro.hw`` only the
  substrate contract: machine specs (``hw.machine``), the frame store
  (``hw.physmem``), the clock and the cost model.  TLBs, CPUs and the
  MMU are hardware the MI layer must never touch directly — mapping
  changes reach them through ``pmap_enter``/``pmap_remove`` and the
  shootdown machinery only.
* **pmap-imports-mi-state** — pmap modules may import from ``repro.core``
  only the shared vocabulary (``core.constants``, ``core.errors``);
  reaching into address maps, objects or the resident table would let
  MD code depend on MI mutable state, inverting the paper's contract.
* **pmap-imports-upper-layer** / **hw-imports-upper-layer** — the
  dependency order is ``hw`` < ``pmap`` < machine-independent VM <
  drivers; lower layers never import upward.  One telemetry exception:
  ``repro.obs.bus`` (the event bus every layer emits into) is
  standard-library self-contained and importable from anywhere; the
  rest of ``repro.obs`` remains an upper layer.
* **hook-inversion** — the checked layers never import their checkers:
  ``repro.analysis`` (invariants, race detection, schedule exploration)
  attaches to the system only through the event bus
  (``kernel.events.subscribe``) and duck-typed hook attributes
  (``MachKernel.sanitize_hook``, ``PmapSystem.debug_hook``), so
  ``sched`` and ``core`` must not import ``analysis`` (for ``hw`` and
  ``pmap`` the upper-layer rules already forbid it).
* **test-import** — shipped code never imports the test suite
  (``tests`` or ``tests.*``, even inside a function).  Test-only
  oracles such as the pinned reference fault resolver live under
  ``tests/`` and reach the system through seams
  (``MachKernel.fault_resolver``), never the other way round.
* **star-import** — ``from x import *`` anywhere in the tree.
* **import-cycle** — no cycle among module-level imports (imports inside
  functions are deliberately excluded: they are the sanctioned way to
  break a load-order knot, and they cannot deadlock module init).

Run it via ``python -m repro check --lint-only`` or
:func:`lint_package` directly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.analysis.cfg import NodeVisitor
from repro.analysis.flow import SourceTree

#: Machine-independent packages (relative to the package root).
MI_PACKAGES = ("core", "pager", "ipc")

#: The only pmap modules importable from outside the pmap layer.
PMAP_INTERFACE = ("pmap.interface", "pmap.registry")

#: hw modules that are substrate contract, not MMU internals.
HW_SUBSTRATE = ("hw.machine", "hw.physmem", "hw.clock", "hw.costs")

#: Vocabulary modules importable from every layer (immutable constants
#: and exception types only — no mutable state).
VOCABULARY = ("core.constants", "core.errors")

#: Telemetry modules importable from every layer.  ``obs.bus`` holds
#: the event bus that all layers emit into; it is standard-library
#: self-contained (imports nothing from ``repro``), so letting hw and
#: pmap import it creates no dependency on upper-layer state.  The rest
#: of ``repro.obs`` (metrics, exporters) stays an upper layer.
TELEMETRY = ("obs.bus",)

#: Packages/modules that sit *above* the machine-independent VM layer;
#: neither hw nor pmap code may import them (``obs.bus`` excepted — see
#: TELEMETRY).  ``inject`` belongs here: fault injection reaches
#: downward only through duck-typed hooks (``SimDisk.injector``,
#: ``Port.injector``), never via imports from below.
UPPER_LAYERS = ("pager", "ipc", "fs", "unix", "bench", "baseline",
                "dist", "sched", "analysis", "inject", "viz", "obs",
                "cli")


#: Part of the lint cache key: bump on any rule/behavior change.
LINT_VERSION = "3"


@dataclass(frozen=True)
class LintViolation:
    """One broken layering rule at one import site."""

    module: str
    lineno: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.module}:{self.lineno}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class ImportSite:
    """One import statement, resolved to a module name."""

    target: str          # absolute dotted name (may be external)
    lineno: int
    star: bool           # ``from target import *``
    module_level: bool   # executes at import time (not inside a def)


class _ImportCollector(NodeVisitor):
    """Collect every import of *module*, resolving relative forms."""

    def __init__(self, module: str, is_package: bool,
                 known_modules: set[str]) -> None:
        self.module = module
        self.is_package = is_package
        self.known = known_modules
        self.sites: list[ImportSite] = []
        self._func_depth = 0

    # Imports inside functions run lazily; they cannot participate in a
    # load-time cycle, so they are tagged module_level=False.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    def _add(self, target: str, lineno: int, star: bool = False) -> None:
        self.sites.append(ImportSite(target=target, lineno=lineno,
                                     star=star,
                                     module_level=self._func_depth == 0))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add(alias.name, node.lineno)

    def _relative_base(self, node: ast.ImportFrom) -> Optional[str]:
        """Resolve ``from . import x`` / ``from ..y import z``."""
        parts = self.module.split(".")
        if not self.is_package:
            parts = parts[:-1]
        drop = node.level - 1
        if drop > len(parts):
            return None
        base_parts = parts[:len(parts) - drop] if drop else parts
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts) if base_parts else None

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            base = self._relative_base(node)
        else:
            base = node.module
        if base is None:
            return
        star = any(alias.name == "*" for alias in node.names)
        self._add(base, node.lineno, star=star)
        # ``from repro.pmap import vax`` names a *module*, not an
        # attribute; resolve each name against the walked module set so
        # the rules see the true target.
        for alias in node.names:
            if alias.name != "*" and f"{base}.{alias.name}" in self.known:
                self._add(f"{base}.{alias.name}", node.lineno)


def collect_imports(root: Path, package: str = "repro",
                    source: Optional[SourceTree] = None
                    ) -> dict[str, list[ImportSite]]:
    """Parse every module under *root* (or of *source*, one run's
    :class:`~repro.analysis.flow.SourceTree`); return module -> import
    sites.

    Modules that fail to parse appear with a single pseudo-site whose
    target is ``"<syntax-error>"`` so the lint can report them.
    """
    if source is None:
        source = SourceTree(root, package)
    known = set(source.files)
    result: dict[str, list[ImportSite]] = {}
    for module, (path, _text) in source.files.items():
        try:
            tree = source.parse(module)
        except SyntaxError as exc:
            result[module] = [ImportSite("<syntax-error>",
                                         exc.lineno or 0, False, True)]
            continue
        collector = _ImportCollector(module,
                                     path.name == "__init__.py", known)
        collector.visit(tree)
        result[module] = collector.sites
    return result


def _strip(name: str, package: str) -> Optional[str]:
    """``repro.core.kernel`` -> ``core.kernel``; None when external."""
    if name == package:
        return ""
    prefix = package + "."
    if name.startswith(prefix):
        return name[len(prefix):]
    return None


def _within(module: str, layer: str) -> bool:
    return module == layer or module.startswith(layer + ".")


def _find_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan's strongly connected components; returns the non-trivial
    SCCs (every member list is one genuine import cycle)."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    cycles: list[list[str]] = []

    def strongconnect(node: str) -> None:
        # Iterative DFS: recursion depth would otherwise track the
        # longest import chain.
        work = [(node, iter(sorted(graph.get(node, ()))))]
        index[node] = lowlink[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while work:
            current, edges = work[-1]
            advanced = False
            for succ in edges:
                if succ not in graph:
                    continue
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[current] = min(lowlink[current], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[current])
            if lowlink[current] == index[current]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                if len(component) > 1:
                    cycles.append(sorted(component))
                elif current in graph.get(current, ()):
                    cycles.append([current])

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return cycles


def lint_package(root: Path, package: str = "repro",
                 source: Optional[SourceTree] = None
                 ) -> list[LintViolation]:
    """Lint the package rooted at *root*; returns all violations.

    *root* is the directory containing the package's ``__init__.py``
    (e.g. ``src/repro``); *package* is the dotted name the rules treat
    it as.  *source*, when given, is the run's already-read
    :class:`~repro.analysis.flow.SourceTree` of that package.  An
    empty list means the tree obeys the layering contract.
    """
    imports = collect_imports(root, package, source)
    known_rel = {_strip(m, package) for m in imports}
    concrete_pmaps = {m for m in known_rel
                      if m and _within(m, "pmap")
                      and m != "pmap" and m not in PMAP_INTERFACE}
    violations: list[LintViolation] = []
    graph: dict[str, set[str]] = {m: set() for m in imports}

    for module, sites in sorted(imports.items()):
        mod_rel = _strip(module, package)
        if mod_rel is None:
            continue
        in_mi = any(_within(mod_rel, pkg) for pkg in MI_PACKAGES)
        in_pmap = _within(mod_rel, "pmap")
        in_hw = _within(mod_rel, "hw")
        for site in sites:
            if site.target == "<syntax-error>":
                violations.append(LintViolation(
                    module, site.lineno, "syntax-error",
                    "module failed to parse"))
                continue
            if site.star:
                violations.append(LintViolation(
                    module, site.lineno, "star-import",
                    f"'from {site.target} import *' hides the import "
                    f"graph from readers and tools"))
            if _within(site.target, "tests"):
                violations.append(LintViolation(
                    module, site.lineno, "test-import",
                    f"imports {site.target}; shipped code never "
                    f"depends on the test suite (tests reach the "
                    f"system through seams such as "
                    f"MachKernel.fault_resolver)"))
            tgt = _strip(site.target, package)
            if tgt is None:
                continue   # stdlib / external: out of scope
            if (site.module_level and site.target in imports
                    and site.target != module):
                # A package importing its own submodules ("from . import
                # x") resolves its base to itself; that is not a cycle.
                graph[module].add(site.target)
            if not in_pmap and (tgt == "pmap" or tgt in concrete_pmaps):
                violations.append(LintViolation(
                    module, site.lineno, "concrete-pmap-import",
                    f"imports {site.target}; outside the pmap layer "
                    f"only pmap.interface and pmap.registry are "
                    f"importable (Table 3-3 is the whole contract)"))
            if in_mi and _within(tgt, "hw") and tgt not in HW_SUBSTRATE:
                violations.append(LintViolation(
                    module, site.lineno, "mi-imports-hw-internals",
                    f"machine-independent code imports {site.target}; "
                    f"TLB/CPU/MMU state is reachable only through the "
                    f"pmap interface (allowed: "
                    f"{', '.join(HW_SUBSTRATE)})"))
            if in_pmap:
                if _within(tgt, "core") and tgt not in VOCABULARY:
                    violations.append(LintViolation(
                        module, site.lineno, "pmap-imports-mi-state",
                        f"pmap module imports {site.target}; MD code "
                        f"may use only the shared vocabulary "
                        f"({', '.join(VOCABULARY)}) — all other MI "
                        f"state arrives through Table 3-3 arguments"))
                elif (any(_within(tgt, up) for up in UPPER_LAYERS)
                        and tgt not in TELEMETRY):
                    violations.append(LintViolation(
                        module, site.lineno, "pmap-imports-upper-layer",
                        f"pmap module imports {site.target}, which "
                        f"sits above the pmap layer"))
            if (_within(tgt, "analysis")
                    and (_within(mod_rel, "sched")
                         or any(_within(mod_rel, pkg)
                                for pkg in MI_PACKAGES))):
                violations.append(LintViolation(
                    module, site.lineno, "hook-inversion",
                    f"{module} imports {site.target}; the sanitizer "
                    f"attaches by subscribing to the kernel's event "
                    f"bus (kernel.events) — checked layers never "
                    f"import their checkers"))
            if in_hw and tgt is not None and tgt != "" \
                    and not _within(tgt, "hw") and tgt not in VOCABULARY \
                    and tgt not in TELEMETRY:
                violations.append(LintViolation(
                    module, site.lineno, "hw-imports-upper-layer",
                    f"hardware substrate imports {site.target}; hw "
                    f"may depend only on itself, the vocabulary "
                    f"({', '.join(VOCABULARY)}) and the event bus "
                    f"({', '.join(TELEMETRY)})"))

    for cycle in _find_cycles(graph):
        violations.append(LintViolation(
            cycle[0], 0, "import-cycle",
            "module-level import cycle: " + " -> ".join(cycle)))

    violations.sort(key=lambda v: (v.module, v.lineno, v.rule))
    return violations


def lint_source_tree(source: Optional[SourceTree] = None
                     ) -> list[LintViolation]:
    """Lint the installed ``repro`` package itself (*source*: the
    run's :class:`~repro.analysis.flow.SourceTree` of it, if read)."""
    if source is None:
        source = SourceTree()
    return lint_package(source.root, source.package, source)
