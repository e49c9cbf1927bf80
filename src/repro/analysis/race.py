"""Concurrency sanitizer: yield-safety lint, guarded-by contract, and a
happens-before race detector for TLB shootdown.

Sections 4.2 and 6 of the paper reason about exactly one hazard: a
mapping change on one CPU racing with translations cached in other
CPUs' TLBs, with each shootdown strategy (IMMEDIATE / DEFERRED / LAZY)
trading consistency for cost.  This module makes that hazard — and the
software analogue, MI code caching mutable VM state across a preemption
point — mechanically checkable, extending the PR-1 sanitizer from
layering and end-state invariants to *time*.

Static half (stdlib ``ast``):

* **guarded-by contract** — :func:`lint_concurrency`.  Shared mutable
  attributes on ``MachKernel``, ``AddressMap``, ``VMObject`` and
  ``ResidentPageTable`` are declared with ``#: guarded-by
  <discipline>`` comments; every mutation outside the owning module is
  checked against the declared discipline's allow-list (rule
  ``guarded-by``), external mutation of an undeclared attribute is
  flagged (``undeclared-shared-mutable``), and a malformed or
  unattached annotation is itself a violation (``malformed-guard``).
* **may-yield atomicity** — the ``atomicity`` flow pass
  (:func:`check_atomicity`, run by
  :func:`repro.analysis.flow.run_flow_passes`).  It flags code that
  reads shared kernel state, crosses a preemption point, then writes
  based on the stale read (rules ``atomicity-hazard`` and
  ``stale-read-across-yield``).  A call preempts when it is a yield
  primitive or when a resolved callee's call-graph summary may yield
  (:mod:`repro.analysis.cfg` holds the one yield model), so the hazard
  is seen across modules, and the incremental cache re-checks a caller
  when a callee's summary changes.  The kernel funnel modules
  (``core.kernel``, ``core.fault``, ``core.pageout``) are exempt: they
  run under the map/object locks whose contract the guarded-by half
  checks.

Dynamic half: :class:`RaceDetector`, a happens-before checker that
timestamps every pmap/TLB mutation and every TLB-backed access with
per-CPU vector clocks.  A shootdown opens an *invalidation window* per
CPU; a TLB hit on a translation filled before the invalidation is a
race **unless** the window is still legally open — DEFERRED until that
CPU's next timer tick, LAZY (unforced) until the next activate-time
flush.  IMMEDIATE never sanctions staleness, so an unmodified kernel
must produce zero reports under it.  Each report carries a replayable
event trace with provenance.

Everything attaches through the kernel's instrumentation bus
(:class:`repro.obs.bus.EventBus`): the detector subscribes one
dispatcher to ``kernel.events`` and consumes the ``tlb/*``,
``cpu/tick``, ``pmap/shootdown`` and ``sched/slice`` events the checked
layers publish — those layers never import this package.  (The old
duck-typed hooks — ``TLB.trace_hook``, ``CPU.tick_hook``,
``PmapSystem.race_hook``, ``Scheduler.race_hook`` — are gone; the bus
is the only attachment point.)

Run the storm via ``python -m repro races`` (arch x strategy matrix,
replay seed per cell) or ``--explore`` for bounded DFS over schedules.
"""

from __future__ import annotations

import ast
import re
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.callgraph import FunctionInfo
from repro.analysis.cfg import ctx_method, ctx_params, \
    is_yield_primitive, walk_no_lambda
from repro.analysis.flow import Finding, read_source_tree
from repro.analysis.layering import LintViolation, _strip, _within
from repro.analysis.schedules import (
    ExplorationResult,
    RecordingPolicy,
    SeededRandomPolicy,
    explore_schedules,
)
from repro.analysis.invariants import assert_all
from repro.analysis.sweeps import SWEEP_ARCHS, _spec
from repro.analysis.typestate import AnalysisContext, build_context
from repro.bench.testing import QUICK_ARCHS
from repro.core.kernel import MachKernel
from repro.core.constants import VMProt
from repro.pmap.interface import ShootdownStrategy
from repro.sched.scheduler import Scheduler

# ======================================================================
# Static half: the guarded-by contract
# ======================================================================

#: module (package-relative) -> class names whose ``__init__``
#: attributes participate in the guarded-by contract.
GUARDED_CLASSES: dict[str, tuple[str, ...]] = {
    "core.kernel": ("MachKernel",),
    "core.address_map": ("AddressMap",),
    "core.vm_object": ("VMObject",),
    "core.resident": ("ResidentPageTable",),
}

#: Variable names conventionally bound to instances of each guarded
#: class.  Attribute stores are matched by (receiver name, attribute)
#: because Python has no static types; the hints keep ``inode.size``
#: from matching ``VMObject.size``.
RECEIVER_HINTS: dict[str, tuple[str, ...]] = {
    "MachKernel": ("kernel",),
    "AddressMap": ("vm_map", "submap", "sharing_map", "dst_map",
                   "src_map", "map"),
    "VMObject": ("obj", "vm_object", "existing", "backing", "victim",
                 "new_object", "shadow_object"),
    "ResidentPageTable": ("resident",),
}

#: discipline name -> package-relative module prefixes (beyond the
#: owning module, which is always allowed) that may mutate attributes
#: declared under it.  An empty tuple means owner-module only.
DISCIPLINES: dict[str, tuple[str, ...]] = {
    #: The address-map lock: only map code mutates map bookkeeping.
    "map-lock": (),
    #: The object lock as held by the fault/pageout/kernel funnel.
    "object-lock": ("core.kernel", "core.fault", "core.pageout"),
    #: Reference/shadow-chain state: object-manager internal.
    "object-ref": (),
    #: Pager attach-time attributes, set while servicing pager replies.
    "pager-init": ("pager",),
    #: Debug/sanitizer hooks: only the analysis package may arm them.
    "debug-hook": ("analysis",),
    #: Wired once at kernel boot, never retargeted afterwards.
    "boot-wiring": ("core.kernel",),
    #: The kernel's scheduler back-pointer: attached once by the
    #: scheduler's own constructor, never retargeted mid-run.  The
    #: storm's serialized pager control detaches it before load is
    #: driven, so backoffs idle the CPU as they did before protocol v2.
    "sched-wiring": ("core.kernel", "sched.scheduler", "bench.storm"),
    #: Pager policy knobs: set while single-threaded, before load is
    #: driven — benches configure them per cell.
    "pager-tuning": ("bench",),
    #: Kernel-task state mutated only inside the kernel funnel itself.
    "kernel-funnel": (),
}

_GUARD_COMMENT = re.compile(r"#:?\s*guarded-by\b")
_GUARD_RE = re.compile(r"#:\s*guarded-by\s+([A-Za-z][A-Za-z0-9_-]*)\s*$")


@dataclass(frozen=True)
class GuardDecl:
    """One ``#: guarded-by`` declaration on a class attribute."""

    cls: str
    attr: str
    discipline: str
    module: str      # owning module, package-relative
    lineno: int


def _parse_class_guards(tree: ast.Module, lines: list[str], module: str,
                        class_names: Sequence[str]
                        ) -> tuple[dict[str, dict[str, GuardDecl]],
                                   dict[str, set[str]],
                                   list[LintViolation],
                                   set[int]]:
    """Read one parsed guarded module (*lines* is its source text):
    declarations, full attribute sets, malformed-annotation
    violations, and consumed annotation lines."""
    decls: dict[str, dict[str, GuardDecl]] = {}
    attrs: dict[str, set[str]] = {}
    violations: list[LintViolation] = []
    consumed: set[int] = set()
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name not in class_names:
            continue
        decls[node.name] = {}
        attrs[node.name] = set()
        init = next((n for n in node.body
                     if isinstance(n, ast.FunctionDef)
                     and n.name == "__init__"), None)
        if init is None:
            continue
        for stmt in ast.walk(init):
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                attrs[node.name].add(target.attr)
                # An annotation sits on the line immediately above the
                # assignment or trails the assignment itself.
                for lineno in (stmt.lineno - 1, stmt.lineno):
                    text = lines[lineno - 1] if lineno >= 1 else ""
                    if not _GUARD_COMMENT.search(text):
                        continue
                    if (lineno != stmt.lineno
                            and not text.strip().startswith("#")):
                        # A trailing annotation on the previous line
                        # belongs to *that* statement, not this one.
                        continue
                    consumed.add(lineno)
                    match = _GUARD_RE.search(text.strip())
                    if match is None:
                        violations.append(LintViolation(
                            module, lineno, "malformed-guard",
                            f"unparseable guard annotation "
                            f"{text.strip()!r}; expected "
                            f"'#: guarded-by <discipline>'"))
                        continue
                    discipline = match.group(1)
                    if discipline not in DISCIPLINES:
                        violations.append(LintViolation(
                            module, lineno, "malformed-guard",
                            f"unknown discipline {discipline!r} on "
                            f"{node.name}.{target.attr}; known: "
                            f"{', '.join(sorted(DISCIPLINES))}"))
                        continue
                    decls[node.name][target.attr] = GuardDecl(
                        node.name, target.attr, discipline, module,
                        stmt.lineno)
    # Any guard-looking comment not consumed above is unattached.
    for lineno, text in enumerate(lines, start=1):
        if _GUARD_COMMENT.search(text) and lineno not in consumed:
            violations.append(LintViolation(
                module, lineno, "malformed-guard",
                "guard annotation is not attached to a 'self.<attr>' "
                "assignment in the __init__ of a guarded class"))
    return decls, attrs, violations, consumed


def _receiver_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def lint_guarded_by(root: Path, package: str = "repro",
                    guarded: Optional[dict[str, tuple[str, ...]]] = None
                    ) -> list[LintViolation]:
    """Check every attribute store in the tree against the guarded-by
    declarations; returns all violations (empty list = clean)."""
    guarded = guarded if guarded is not None else GUARDED_CLASSES
    files = read_source_tree(root, package)
    trees: dict[str, ast.Module] = {}
    for module, (path, text) in files.items():
        try:
            trees[module] = ast.parse(text, filename=str(path))
        except SyntaxError:
            continue   # layering lint already reports syntax errors
    decls: dict[str, dict[str, GuardDecl]] = {}
    attrs: dict[str, set[str]] = {}
    owner_of: dict[str, str] = {}
    violations: list[LintViolation] = []
    for rel, class_names in guarded.items():
        module = f"{package}.{rel}"
        if module not in files:
            violations.append(LintViolation(
                module, 0, "malformed-guard",
                f"guarded module {rel} not found under {root}"))
            continue
        if module in trees:
            mod_decls, mod_attrs, mod_violations, _ = _parse_class_guards(
                trees[module], files[module][1].splitlines(), module,
                class_names)
            decls.update(mod_decls)
            attrs.update(mod_attrs)
            violations.extend(mod_violations)
        for cls in class_names:
            owner_of[cls] = rel

    hint_to_classes: dict[str, list[str]] = {}
    for cls in owner_of:
        for hint in RECEIVER_HINTS.get(cls, ()):
            hint_to_classes.setdefault(hint, []).append(cls)

    for module, tree in trees.items():
        mod_rel = module[len(package) + 1:] if module != package else ""
        for node in ast.walk(tree):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                recv = _receiver_name(target.value)
                if recv is None or recv == "self":
                    continue
                for cls in hint_to_classes.get(recv, ()):
                    if target.attr not in attrs.get(cls, ()):
                        continue
                    owner = owner_of[cls]
                    if mod_rel == owner:
                        continue
                    decl = decls.get(cls, {}).get(target.attr)
                    if decl is None:
                        violations.append(LintViolation(
                            module, node.lineno,
                            "undeclared-shared-mutable",
                            f"mutates {cls}.{target.attr} (via "
                            f"{recv!r}) outside owning module "
                            f"{package}.{owner}, but the attribute "
                            f"declares no '#: guarded-by' discipline"))
                        continue
                    allowed = (owner,) + DISCIPLINES[decl.discipline]
                    if not any(_within(mod_rel, prefix)
                               for prefix in allowed):
                        violations.append(LintViolation(
                            module, node.lineno, "guarded-by",
                            f"mutates {cls}.{target.attr} (guarded-by "
                            f"{decl.discipline}) from {module}; "
                            f"allowed modules: "
                            f"{', '.join(package + '.' + a for a in allowed)}"))
    violations.sort(key=lambda v: (v.module, v.lineno, v.rule))
    return violations


def lint_concurrency(root: Path, package: str = "repro"
                     ) -> list[LintViolation]:
    """The static concurrency lint over a package tree: the guarded-by
    contract.  (The atomicity rules run as the ``atomicity`` flow
    pass, on the shared call-graph summaries.)"""
    return lint_guarded_by(root, package)


#: Part of the lint cache key: bump on any rule/behavior change.
LINT_VERSION = "3"


def lint_source_concurrency() -> list[LintViolation]:
    """Run the concurrency lint on the installed ``repro`` package."""
    import repro
    return lint_concurrency(Path(repro.__file__).resolve().parent)


# ======================================================================
# The ``atomicity`` flow pass: shared state across a may-yield call
# ======================================================================

#: Part of the incremental-cache key: bump on any behavior change.
ATOMICITY_VERSION = "2"

#: Modules exempt from atomicity-hazard *reporting*: the kernel funnel
#: runs under the map/object locks (checked by the guarded-by half),
#: so its reads cannot go stale across its own fault entries.
_ATOMICITY_EXEMPT = ("core.kernel", "core.fault", "core.pageout")

#: Attributes treated as shared kernel state by the atomicity scan:
#: everything the guarded classes own, plus map-entry fields.
_SHARED_STATE_ATTRS = frozenset({
    "size", "ref_count", "pager", "pager_initialized", "shadow",
    "shadow_offset", "internal", "temporary", "can_persist", "cached",
    "terminated", "pager_dead", "paging_in_progress", "nentries",
    "vm_object", "offset", "needs_copy", "protection", "inheritance",
    "wired", "busy", "dirty", "free_target", "free_min",
})


def _linearize(info: FunctionInfo, ctx: AnalysisContext) -> list[tuple]:
    """Flatten one function into source-ordered events for the hazard
    scan.

    Event shapes: ``("read", attr, line)``, ``("write", attr, line)``,
    ``("preempt", line)``, ``("ctx-read", local, line)``,
    ``("ctx-write", arg_names, line)``.  A call preempts when it is a
    yield primitive or any resolved callee's summary may yield; a
    ``yield`` preempts only in a thread body.  Control flow is
    linearized (all branches in order) — a deliberate
    over-approximation for a lint.
    """
    ctx_names = ctx_params(info.func)
    events: list[tuple] = []
    for node in walk_no_lambda(info.func):
        line = getattr(node, "lineno", 0)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if info.thread_body:
                events.append(("preempt", line))
        elif isinstance(node, ast.Attribute):
            if node.attr not in _SHARED_STATE_ATTRS:
                continue
            if isinstance(node.ctx, ast.Load):
                events.append(("read", node.attr, line))
            elif isinstance(node.ctx, (ast.Store, ast.Del)):
                events.append(("write", node.attr, line))
        elif isinstance(node, ast.Call):
            if is_yield_primitive(node, ctx_names) or any(
                    summary.may_yield
                    for _fid, summary in ctx.lookup(node, info)):
                events.append(("preempt", line))
            if ctx_method(node, ctx_names) in ("write", "rmw"):
                # Collect names *anywhere* in the argument expressions:
                # ``ctx.write(addr, bytes([v + 1]))`` writes a value
                # derived from ``v`` just as surely as passing it bare.
                args = tuple(sub.id for a in node.args
                             for sub in ast.walk(a)
                             if isinstance(sub, ast.Name))
                events.append(("ctx-write", args, line))
        elif isinstance(node, ast.Assign):
            value = node.value
            # ``v = ctx.read(a, 1)[0]`` reads just as surely as
            # ``v = ctx.read(a, 1)`` — unwrap subscripting.
            while isinstance(value, ast.Subscript):
                value = value.value
            if isinstance(value, ast.Call) \
                    and ctx_method(value, ctx_names) in ("read", "rmw"):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        events.append(("ctx-read", target.id,
                                       node.lineno))
    # Same-line ordering: argument reads happen before the call
    # preempts, a value assigned *from* a ctx read is fresh after its
    # own preemption point, and attribute stores land last.
    rank = {"read": 0, "ctx-write": 1, "preempt": 2, "ctx-read": 3,
            "write": 4}
    events.sort(key=lambda e: (e[-1], rank[e[0]]))
    return events


def _scan_function(module: str, qualname: str,
                   events: list[tuple]) -> list[Finding]:
    findings: list[Finding] = []
    read_at: dict[str, int] = {}
    stale: dict[str, tuple[int, int]] = {}
    local_read_at: dict[str, int] = {}
    stale_locals: dict[str, tuple[int, int]] = {}
    for event in events:
        kind = event[0]
        if kind == "preempt":
            line = event[1]
            for attr, rline in read_at.items():
                stale.setdefault(attr, (rline, line))
            read_at.clear()
            for name, rline in local_read_at.items():
                stale_locals.setdefault(name, (rline, line))
            local_read_at.clear()
        elif kind == "read":
            _, attr, line = event
            read_at.setdefault(attr, line)
        elif kind == "write":
            _, attr, line = event
            if attr in stale:
                rline, pline = stale[attr]
                findings.append(Finding(
                    "atomicity", module, line, "atomicity-hazard",
                    qualname,
                    f"reads shared '.{attr}' at line {rline}, may yield "
                    f"at line {pline}, then writes '.{attr}' at line "
                    f"{line} — the read can be stale by the time the "
                    f"write lands"))
            stale.pop(attr, None)
            read_at.pop(attr, None)
        elif kind == "ctx-read":
            _, name, line = event
            local_read_at[name] = line
            stale_locals.pop(name, None)
        elif kind == "ctx-write":
            _, args, line = event
            for name in args:
                if name in stale_locals:
                    rline, pline = stale_locals[name]
                    findings.append(Finding(
                        "atomicity", module, line,
                        "stale-read-across-yield", qualname,
                        f"writes value {name!r} read from memory at "
                        f"line {rline} after a preemption point at line "
                        f"{pline} — a lost update under any schedule "
                        f"that interleaves there"))
    return findings


def check_atomicity(module: str, tree: ast.AST,
                    ctx: Optional[AnalysisContext] = None
                    ) -> list[Finding]:
    """Atomicity-check one module (rules ``atomicity-hazard`` and
    ``stale-read-across-yield``).  Without *ctx*, a module-local
    context is built, so only same-module callees are seen."""
    if ctx is None:
        ctx = build_context([(module, tree, None)])
    findings: list[Finding] = []
    for info in ctx.graph.functions.values():
        if info.module == module:
            findings += _scan_function(module, info.qualname,
                                       _linearize(info, ctx))
    return sorted(findings, key=lambda f: (f.lineno, f.rule))


def atomicity_in_scope(module: str, package: str = "repro") -> bool:
    """Every module but the kernel funnel."""
    inner = _strip(module, package)
    return inner is not None and not any(
        _within(inner, exempt) for exempt in _ATOMICITY_EXEMPT)


# ======================================================================
# Dynamic half: the happens-before checker
# ======================================================================


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped happening, for replayable provenance."""

    order: int
    cpu: Optional[int]
    kind: str
    detail: str

    def __str__(self) -> str:
        where = f"cpu{self.cpu}" if self.cpu is not None else "----"
        return f"#{self.order:<6} {where:<5} {self.kind:<12} {self.detail}"


@dataclass
class InvalidationWindow:
    """One shootdown as seen by the checker: which virtual range of
    which pmap was invalidated, and in what state each CPU's copy is."""

    order: int
    origin_cpu: int
    pmap_tag: int
    pmap_name: str
    start: int
    end: int
    strategy: ShootdownStrategy
    forced: bool
    #: cpu -> "flushed" | "deferred" | "lazy" | "closed".  CPUs absent
    #: here were not tainted by the pmap ("untracked").
    status: dict[int, str]
    vc: tuple[int, ...]

    def covers(self, vpn: int, hw_page_size: int) -> bool:
        first = self.start // hw_page_size
        last = (self.end + hw_page_size - 1) // hw_page_size
        return first <= vpn < last

    def engulfed_by(self, start: int, end: int) -> bool:
        return start <= self.start and self.end <= end


@dataclass(frozen=True)
class RaceReport:
    """A CPU consumed a translation invalidated outside any open
    window — with the evidence needed to replay and diagnose it."""

    cpu: int
    pmap_name: str
    vpn: int
    fill_order: int
    window: InvalidationWindow
    status: str
    trace: tuple[TraceEvent, ...]

    def __str__(self) -> str:
        head = (f"race: cpu{self.cpu} hit stale TLB entry for "
                f"{self.pmap_name} vpn={self.vpn:#x} "
                f"(filled at #{self.fill_order}, invalidated at "
                f"#{self.window.order} by cpu{self.window.origin_cpu}, "
                f"strategy={self.window.strategy.value}, "
                f"window status={self.status!r})")
        lines = [head, "  recent events:"]
        lines += [f"    {event}" for event in self.trace]
        return "\n".join(lines)


class RaceDetector:
    """Vector-clock happens-before checking over the kernel's event bus.

    Install on a booted kernel (and optionally a scheduler); the
    detector subscribes to ``kernel.events`` and timestamps every
    pmap/TLB mutation and TLB-backed access.  A TLB hit whose fill
    predates an invalidation of that translation is a race unless the
    responsible shootdown window is still legally open on the hitting
    CPU:

    ========== =============================================
    strategy   staleness sanctioned
    ========== =============================================
    IMMEDIATE  never (flushes are synchronous IPIs)
    DEFERRED   until that CPU's next timer tick
    LAZY       until the next activate-time flush (unforced)
    ========== =============================================

    Reports accumulate in :attr:`races`; pass ``raise_on_race=True`` to
    fail fast.  Counters mirror into ``kernel.stats``
    (``race_events_timestamped``, ``races_found``).
    """

    TRACE_RING = 24

    def __init__(self, kernel: MachKernel,
                 scheduler: Optional[Scheduler] = None,
                 raise_on_race: bool = False) -> None:
        self.kernel = kernel
        self.scheduler = scheduler
        self.raise_on_race = raise_on_race
        ncpus = len(kernel.machine.cpus)
        self.ncpus = ncpus
        #: Per-CPU vector clocks.
        self.clocks: list[list[int]] = [[0] * ncpus for _ in range(ncpus)]
        self._order = 0
        #: (cpu, pmap_tag, vpn) -> order of the fill.
        self.fills: dict[tuple[int, int, int], int] = {}
        #: pmap_tag -> live invalidation windows.
        self.windows: dict[int, list[InvalidationWindow]] = {}
        self.races: list[RaceReport] = []
        self.events_timestamped = 0
        self._trace: deque[TraceEvent] = deque(maxlen=self.TRACE_RING)
        self._reported: set[tuple[int, int, int, int]] = set()
        self._pmap_names: dict[int, str] = {}
        self._installed = False
        self._hw_page_size = kernel.machine.cpus[0].tlb.page_size

    # -- event plumbing -------------------------------------------------

    def _tick_clock(self, cpu: Optional[int]) -> None:
        if cpu is not None:
            self.clocks[cpu][cpu] += 1

    def _join(self, cpu: int, vc: Sequence[int]) -> None:
        own = self.clocks[cpu]
        for i, value in enumerate(vc):
            if value > own[i]:
                own[i] = value

    def _event(self, cpu: Optional[int], kind: str, detail: str) -> int:
        self._order += 1
        self._tick_clock(cpu)
        self.events_timestamped += 1
        self.kernel.stats.race_events_timestamped += 1
        self._trace.append(TraceEvent(self._order, cpu, kind, detail))
        return self._order

    # -- installation ---------------------------------------------------

    def install(self) -> "RaceDetector":
        """Subscribe to the kernel's event bus; returns self for
        chaining."""
        if self._installed:
            return self
        self.kernel.events.subscribe(self._on_event)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        self.kernel.events.unsubscribe(self._on_event)
        self._installed = False

    # -- bus dispatch ---------------------------------------------------

    def _on_event(self, event) -> None:
        """One subscriber for everything: route the event kinds the
        happens-before model consumes, ignore the rest of the bus."""
        subsystem, kind, data = event.subsystem, event.kind, event.data
        if subsystem == "tlb":
            cpu_id = event.cpu
            if kind == "hit":
                self._on_hit(cpu_id, data["tag"], data["vpn"])
            elif kind == "fill":
                self._on_fill(cpu_id, data["tag"], data["vpn"])
            elif kind == "drop":
                self._on_drop(cpu_id, data["tag"], data["vpn"])
            elif kind == "flush_range":
                self._on_range_flushed(cpu_id, data["tag"],
                                       data["start"], data["end"])
            elif kind == "flush_pmap":
                self._on_pmap_flushed(cpu_id, data["tag"])
            elif kind == "flush_all":
                self._on_full_flushed(cpu_id)
        elif subsystem == "cpu":
            if kind == "tick":
                self._on_tick(event.cpu)
        elif subsystem == "pmap":
            if kind == "shootdown":
                self._on_shootdown(data["pmap"], data["start"],
                                   data["end"], data["strategy"],
                                   data["forced"], data["actions"])
        elif subsystem == "sched":
            if kind == "slice" and self.scheduler is not None:
                self._on_slice(data["sched_thread"], data["to_cpu"])

    # -- event handlers -------------------------------------------------

    def _name_for(self, tag: int) -> str:
        return self._pmap_names.get(tag, f"pmap@{tag:#x}")

    def _on_shootdown(self, pmap, start: int, end: int,
                      strategy: ShootdownStrategy, forced: bool,
                      actions: tuple) -> None:
        tag = id(pmap)
        self._pmap_names[tag] = getattr(pmap, "name", "") or f"{tag:#x}"
        origin = self.kernel.pmap_system.current_cpu_id
        order = self._event(
            origin, "shootdown",
            f"{self._name_for(tag)} [{start:#x},{end:#x}) "
            f"{strategy.value}{' forced' if forced else ''} "
            f"targets={[f'cpu{c}:{a}' for c, a in actions]}")
        status: dict[int, str] = {}
        for cpu_id, action in actions:
            if action in ("local", "ipi"):
                # Will be marked "flushed" when the flush thunk fires;
                # start from the sanctioned-in-flight state.
                status[cpu_id] = "deferred" if action == "ipi" \
                    else "flushed"
            elif action == "deferred":
                status[cpu_id] = "deferred"
            else:
                status[cpu_id] = "lazy"
        window = InvalidationWindow(
            order=order, origin_cpu=origin, pmap_tag=tag,
            pmap_name=self._name_for(tag), start=start, end=end,
            strategy=strategy, forced=forced, status=status,
            vc=tuple(self.clocks[origin]))
        live = self.windows.setdefault(tag, [])
        live.append(window)
        # Bound memory: drop oldest fully-flushed windows.
        if len(live) > 512:
            live[:] = [w for w in live
                       if any(s != "flushed" for s in w.status.values())
                       ] + live[-64:]

    def _on_slice(self, sched_thread, cpu_id: int) -> None:
        # A thread migrating between CPUs carries its causal history.
        previous = sched_thread.context.cpu_id
        if previous is not None and previous != cpu_id:
            self._join(cpu_id, self.clocks[previous])
        self._event(cpu_id, "slice",
                    f"thread #{sched_thread.sched_id} "
                    f"({sched_thread.task.name})")

    def _on_tick(self, cpu_id: int) -> None:
        self._event(cpu_id, "tick", f"timer tick on cpu{cpu_id}")
        # The tick closes every DEFERRED window for this CPU: its flush
        # thunks have just drained (marking "flushed" via the range
        # hook).  A window still "deferred" after its drain lost the
        # flush — consuming it afterwards is a race.
        for windows in self.windows.values():
            for window in windows:
                if window.status.get(cpu_id) == "deferred":
                    window.status[cpu_id] = "closed"

    def _on_hit(self, cpu_id: int, tag: int, vpn: int) -> None:
        self._event(cpu_id, "tlb-hit",
                    f"{self._name_for(tag)} vpn={vpn:#x}")
        fill_order = self.fills.get((cpu_id, tag, vpn), 0)
        for window in self.windows.get(tag, ()):
            if window.order <= fill_order:
                continue
            if not window.covers(vpn, self._hw_page_size):
                continue
            status = window.status.get(cpu_id, "untracked")
            if status in ("deferred", "lazy"):
                continue   # legally stale: window still open
            if status == "untracked":
                continue   # pmap never tainted this CPU
            key = (cpu_id, tag, vpn, window.order)
            if key in self._reported:
                continue
            self._reported.add(key)
            report = RaceReport(
                cpu=cpu_id, pmap_name=self._name_for(tag), vpn=vpn,
                fill_order=fill_order, window=window, status=status,
                trace=tuple(self._trace))
            self.races.append(report)
            self.kernel.stats.races_found += 1
            if self.raise_on_race:
                raise AssertionError(str(report))

    def _on_fill(self, cpu_id: int, tag: int, vpn: int) -> None:
        order = self._event(cpu_id, "tlb-fill",
                            f"{self._name_for(tag)} vpn={vpn:#x}")
        self.fills[(cpu_id, tag, vpn)] = order

    def _on_drop(self, cpu_id: int, tag: int, vpn: int) -> None:
        self._event(cpu_id, "tlb-drop",
                    f"{self._name_for(tag)} vpn={vpn:#x}")
        self.fills.pop((cpu_id, tag, vpn), None)

    def _close_windows(self, cpu_id: int, tag: Optional[int],
                       start: Optional[int] = None,
                       end: Optional[int] = None) -> None:
        for wtag, windows in self.windows.items():
            if tag is not None and wtag != tag:
                continue
            for window in windows:
                if cpu_id not in window.status:
                    continue
                if (start is not None
                        and not window.engulfed_by(start, end)):
                    continue
                if window.status[cpu_id] != "flushed":
                    window.status[cpu_id] = "flushed"
                    self._join(cpu_id, window.vc)

    def _on_range_flushed(self, cpu_id: int, tag: int,
                          start: int, end: int) -> None:
        self._event(cpu_id, "tlb-flush",
                    f"{self._name_for(tag)} [{start:#x},{end:#x})")
        self._close_windows(cpu_id, tag, start, end)

    def _on_pmap_flushed(self, cpu_id: int, tag: int) -> None:
        self._event(cpu_id, "tlb-flush",
                    f"{self._name_for(tag)} (whole pmap)")
        self._close_windows(cpu_id, tag)

    def _on_full_flushed(self, cpu_id: int) -> None:
        self._event(cpu_id, "tlb-flush", "all entries")
        self._close_windows(cpu_id, None)


# ======================================================================
# The storm: seeded-random schedules over arch x strategy
# ======================================================================

KB = 1024

#: Default base seed of the storm (a different universe per --seed).
DEFAULT_SEED = 0xACE5

def cell_seed(base_seed: int, arch: str, strategy: str,
              workload: str) -> int:
    """Stable per-cell seed: reproducing one cell never requires
    running the others."""
    token = f"{arch}:{strategy}:{workload}".encode()
    return (base_seed ^ zlib.crc32(token)) & 0xFFFFFFFF


@dataclass
class RaceCellResult:
    """Outcome of one (arch, strategy) storm cell."""

    arch: str
    strategy: str
    seed: int
    ok: bool
    races: int
    events: int
    detail: str = ""

    def __str__(self) -> str:
        status = "ok" if self.ok else "RACE" if self.races else "FAIL"
        tail = f": {self.detail}" if self.detail else ""
        return (f"{self.arch:<10} {self.strategy:<10} {status:<5} "
                f"races={self.races:<3} events={self.events:<7} "
                f"[replay: seed={self.seed:#x}]{tail}")


def _storm_fork_cow(kernel: MachKernel, sched: Scheduler) -> None:
    """Forking under preemption: COW protect/copy shootdowns while
    parent, child and grandchild threads keep writing."""
    page = kernel.page_size
    strict = kernel.pmap_system.strategy is ShootdownStrategy.IMMEDIATE
    parent = kernel.task_create(name="storm-parent")
    addr = parent.vm_allocate(8 * page)
    for off in range(0, 8 * page, page):
        parent.write(addr + off, bytes([off // page + 1]))
    child = parent.fork()
    grandchild = child.fork()

    def writer(ctx):
        for off in range(0, 8 * page, page):
            ctx.write(addr + off, bytes([17 + off // page]))
            yield
        for off in range(0, 8 * page, page):
            got = ctx.read(addr + off, 1)[0]
            # DEFERRED/LAZY legally serve the pre-COW frame while the
            # shootdown window is open; IMMEDIATE must be coherent.
            expected = (17 + off // page,) if strict \
                else (17 + off // page, off // page + 1)
            assert got in expected, (off, got)
            yield

    sched.spawn(parent, writer, name="parent-w")
    sched.spawn(child, writer, name="child-w")
    sched.spawn(grandchild, writer, name="grandchild-w")
    sched.run()
    child.terminate()
    grandchild.terminate()


def _storm_pageout(kernel: MachKernel, sched: Scheduler) -> None:
    """Memory pressure under preemption: the paging daemon's forced
    shootdowns against threads holding warm TLB entries."""
    page = kernel.page_size
    strict = kernel.pmap_system.strategy is ShootdownStrategy.IMMEDIATE
    hogs = [kernel.task_create(name=f"hog{i}") for i in range(2)]
    spans = [task.vm_allocate(24 * page) for task in hogs]

    def hog(ctx):
        base = spans[hogs.index(ctx.task)]
        for off in range(0, 24 * page, page):
            ctx.write(base + off, bytes([off // page % 200 + 1]))
            yield
        for off in range(0, 24 * page, 4 * page):
            got = ctx.read(base + off, 1)[0]
            # Reclaim + refault relocates frames; inside an open
            # DEFERRED window a stale translation may still reach the
            # old frame, so only IMMEDIATE pins the exact byte.
            if strict:
                assert got == off // page % 200 + 1, (off, got)
            yield

    for task in hogs:
        sched.spawn(task, hog, name=f"{task.name}-t")
    sched.run()
    kernel.pageout_daemon.run()


def _storm_shootdown(kernel: MachKernel, sched: Scheduler) -> None:
    """Cross-CPU protect/deallocate against concurrent readers: the
    Section 5.2 scenario itself."""
    page = kernel.page_size
    task = kernel.task_create(name="storm-smp")
    addr = task.vm_allocate(12 * page)
    for off in range(0, 12 * page, page):
        task.write(addr + off, b"s")

    def toucher(ctx):
        for off in range(0, 4 * page, page):
            ctx.write(addr + off, b"T")
            yield
            assert ctx.read(addr + off, 1) == b"T"
            yield

    def reader(ctx):
        for _ in range(2):
            for off in range(4 * page, 8 * page, page):
                assert ctx.read(addr + off, 1) in (b"s", b"T")
                yield

    def demoter(ctx):
        yield
        ctx.task.vm_protect(addr + 4 * page, 4 * page, False,
                            VMProt.READ)
        yield
        ctx.task.vm_deallocate(addr + 8 * page, 4 * page)
        yield

    sched.spawn(task, toucher, name="toucher")
    sched.spawn(task, reader, name="reader")
    sched.spawn(task, demoter, name="demoter")
    sched.run()


STORM_WORKLOADS = (
    ("fork+COW", _storm_fork_cow, {}),
    ("pageout-pressure", _storm_pageout, dict(memory_frames=48)),
    ("shootdown", _storm_shootdown, {}),
)


def run_race_cell(arch: str, strategy: ShootdownStrategy,
                  seed: int) -> RaceCellResult:
    """One storm cell: every workload on (arch, strategy) under a
    seeded-random schedule, detector armed throughout."""
    races = 0
    events = 0
    detail = ""
    ok = True
    for workload_name, workload, overrides in STORM_WORKLOADS:
        wseed = cell_seed(seed, arch, strategy.value, workload_name)
        kernel = MachKernel(_spec(arch, ncpus=4, **overrides),
                            shootdown=strategy)
        sched = Scheduler(kernel, timer_tick_every=4,
                          policy=SeededRandomPolicy(wseed))
        detector = RaceDetector(kernel, sched).install()
        try:
            workload(kernel, sched)
            kernel.pmap_system.update()
            if strategy is ShootdownStrategy.LAZY:
                # LAZY bounds staleness at activate time; emulate the
                # bound before auditing, as pageout must (Section 5.2).
                for cpu in kernel.machine.cpus:
                    cpu.tlb.flush_all()
            kernel.set_current_cpu(0)
            assert_all(kernel)
        except Exception as exc:   # noqa: BLE001 - reported per cell
            ok = False
            detail = f"{workload_name}: {type(exc).__name__}: {exc}"
        finally:
            detector.uninstall()
        races += len(detector.races)
        events += detector.events_timestamped
        if detector.races and not detail:
            ok = False
            detail = f"{workload_name}: {detector.races[0]}"
        if not ok:
            break
    return RaceCellResult(arch=arch, strategy=strategy.value, seed=seed,
                          ok=ok, races=races, events=events,
                          detail=detail)


def _run_storm_cell(cell: tuple[str, str, int]) -> RaceCellResult:
    """One (arch, strategy-value, seed) storm cell — module-level so a
    process pool can pickle it."""
    arch, strategy_value, seed = cell
    return run_race_cell(arch, ShootdownStrategy(strategy_value), seed)


def run_races(archs: Optional[Sequence[str]] = None,
              strategies: Optional[Sequence[ShootdownStrategy]] = None,
              seed: int = DEFAULT_SEED, quick: bool = False,
              verbose: bool = False,
              jobs: int | None = None) -> list[RaceCellResult]:
    """The full storm: arch x strategy cells, each printing its replay
    seed.  A correct kernel yields zero races in every cell — DEFERRED
    and LAZY staleness inside open windows is sanctioned, and
    IMMEDIATE flushes synchronously.  Cells are seeded and independent;
    ``jobs > 1`` fans them out over a process pool (fork), with results
    returned in matrix order."""
    if archs is None:
        archs = QUICK_ARCHS if quick else tuple(SWEEP_ARCHS)
    if strategies is None:
        strategies = tuple(ShootdownStrategy)
    cells = [(arch, strategy.value, seed)
             for arch in archs for strategy in strategies]
    results: list[RaceCellResult] = []
    if jobs is not None and jobs > 1 and len(cells) > 1:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(jobs, len(cells))) as pool:
            for result in pool.imap(_run_storm_cell, cells):
                results.append(result)
                if verbose:
                    print(str(result))
    else:
        for cell in cells:
            results.append(_run_storm_cell(cell))
            if verbose:
                print(str(results[-1]))
    return results


# ======================================================================
# Systematic exploration (--explore)
# ======================================================================


def _explore_run(arch: str, strategy: ShootdownStrategy,
                 policy: RecordingPolicy) -> dict:
    """One schedule of a small two-thread shootdown workload, state
    hashed for pruning, audited by detector + invariants."""
    kernel = MachKernel(_spec(arch, ncpus=2), shootdown=strategy)
    sched = Scheduler(kernel, timer_tick_every=2, policy=policy)
    detector = RaceDetector(kernel, sched).install()
    page = kernel.page_size
    task = kernel.task_create(name="explore")
    addr = task.vm_allocate(4 * page)
    for off in range(0, 4 * page, page):
        task.write(addr + off, b"e")

    policy.state_fn = lambda: hash((
        tuple(sorted(detector.fills)),
        kernel.stats.faults,
        tuple(len(w) for w in detector.windows.values()),
    ))

    def reader(ctx):
        for off in range(0, 4 * page, page):
            assert ctx.read(addr + off, 1) in (b"e", b"w")
            yield

    def mutator(ctx):
        ctx.write(addr, b"w")
        yield
        ctx.task.vm_protect(addr + 2 * page, 2 * page, False,
                            VMProt.READ)
        yield

    sched.spawn(task, reader, name="reader")
    sched.spawn(task, mutator, name="mutator")
    try:
        sched.run()
        kernel.pmap_system.update()
        if strategy is ShootdownStrategy.LAZY:
            for cpu in kernel.machine.cpus:
                cpu.tlb.flush_all()
        kernel.set_current_cpu(0)
        assert_all(kernel)
    except Exception as exc:   # noqa: BLE001 - a finding, not a crash
        detector.uninstall()
        return {"ok": False, "detail": f"{type(exc).__name__}: {exc}"}
    detector.uninstall()
    if detector.races:
        return {"ok": False, "detail": str(detector.races[0])}
    return {"ok": True}


def explore_shootdown(arch: str = "generic",
                      strategy: ShootdownStrategy =
                      ShootdownStrategy.DEFERRED,
                      max_schedules: int = 150,
                      kernel_stats=None) -> ExplorationResult:
    """Bounded DFS over schedules of the small shootdown workload."""
    result = explore_schedules(
        lambda policy: _explore_run(arch, strategy, policy),
        max_schedules=max_schedules)
    if kernel_stats is not None:
        kernel_stats.schedules_explored += result.schedules_explored
    return result
