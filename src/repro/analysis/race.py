"""Concurrency lints: the guarded-by contract and may-yield atomicity.

Sections 4.2 and 6 of the paper reason about exactly one hazard: a
mapping change on one CPU racing with translations cached in other
CPUs' TLBs, with each shootdown strategy (IMMEDIATE / DEFERRED / LAZY)
trading consistency for cost.  The hardware half of that hazard is
judged at run time by the sanitizer
(:func:`repro.analysis.invariants.check_tlbs`, which reads the TLBs
and each CPU's pending deferred flushes), armed over the seeded storms
of ``python -m repro races``.  This module checks the software
analogue statically (stdlib ``ast``): machine-independent code caching
mutable VM state across a preemption point.

* **guarded-by contract** — :func:`lint_guarded_by`, run as the
  ``concurrency`` whole-tree pass of
  :func:`repro.analysis.flow.run_flow_passes`.  Shared mutable
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
  run under the map/object locks whose contract the guarded-by lint
  checks.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.callgraph import FunctionInfo
from repro.analysis.cfg import ctx_method, ctx_params, \
    is_yield_primitive, walk, walk_no_lambda
from repro.analysis.flow import Finding, SourceTree
from repro.analysis.layering import _strip, _within
from repro.analysis.typestate import AnalysisContext, build_context

# ======================================================================
# The guarded-by contract
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


def _violation(module: str, lineno: int, rule: str,
               message: str) -> Finding:
    """One broken guarded-by rule."""
    return Finding("concurrency", module, lineno, rule, "", message)


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
                                   list[Finding],
                                   set[int]]:
    """Read one parsed guarded module (*lines* is its source text):
    declarations, full attribute sets, malformed-annotation
    violations, and consumed annotation lines."""
    decls: dict[str, dict[str, GuardDecl]] = {}
    attrs: dict[str, set[str]] = {}
    violations: list[Finding] = []
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
        for stmt in walk(init):
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
                        violations.append(_violation(
                            module, lineno, "malformed-guard",
                            f"unparseable guard annotation "
                            f"{text.strip()!r}; expected "
                            f"'#: guarded-by <discipline>'"))
                        continue
                    discipline = match.group(1)
                    if discipline not in DISCIPLINES:
                        violations.append(_violation(
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
            violations.append(_violation(
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
                    guarded: Optional[dict[str, tuple[str, ...]]] = None,
                    source: Optional[SourceTree] = None
                    ) -> list[Finding]:
    """Check every attribute store in the tree against the guarded-by
    declarations; returns all violations (empty list = clean).
    *source* is the run's already-read tree of *root*, if any."""
    guarded = guarded if guarded is not None else GUARDED_CLASSES
    if source is None:
        source = SourceTree(root, package)
    files = source.files
    trees = {module: source.parse(module) for module in files}
    decls: dict[str, dict[str, GuardDecl]] = {}
    attrs: dict[str, set[str]] = {}
    owner_of: dict[str, str] = {}
    violations: list[Finding] = []
    for rel, class_names in guarded.items():
        module = f"{package}.{rel}"
        if module not in files:
            violations.append(_violation(
                module, 0, "malformed-guard",
                f"guarded module {rel} not found under {root}"))
            continue
        mod_decls, mod_attrs, mod_violations, _ = _parse_class_guards(
            trees[module], source.lines(module), module, class_names)
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
        for node in walk(tree):
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
                        violations.append(_violation(
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
                        violations.append(_violation(
                            module, node.lineno, "guarded-by",
                            f"mutates {cls}.{target.attr} (guarded-by "
                            f"{decl.discipline}) from {module}; "
                            f"allowed modules: "
                            f"{', '.join(package + '.' + a for a in allowed)}"))
    violations.sort(key=lambda v: (v.module, v.lineno, v.rule))
    return violations


#: Part of the cache key: bump on any rule/behavior change.
LINT_VERSION = "3"


def lint_source_concurrency(source: Optional[SourceTree] = None
                            ) -> list[Finding]:
    """Run the guarded-by lint on the installed ``repro`` package
    (*source*: the run's :class:`SourceTree` of it, if read)."""
    if source is None:
        source = SourceTree()
    return lint_guarded_by(source.root, source.package, source=source)


# ======================================================================
# The ``atomicity`` flow pass: shared state across a may-yield call
# ======================================================================

#: Part of the incremental-cache key: bump on any behavior change.
ATOMICITY_VERSION = "2"

#: Modules exempt from atomicity-hazard *reporting*: the kernel funnel
#: runs under the map/object locks (checked by the guarded-by lint),
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
                             for sub in walk(a)
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
