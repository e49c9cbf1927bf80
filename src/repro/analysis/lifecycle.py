"""Resource lifecycle lint: acquire/release pairing along all paths.

The kernel juggles four kinds of manually-managed resources, each with
an acquire/release discipline the type system cannot see:

* **free-pool slots** — swap slots and physical frames popped off a
  ``_free`` list (``slot = x._free.pop()``) and returned with
  ``x._free.append(slot)`` / ``x.free_slot(slot)``.  PR 2's swap-slot
  leak (a failed ``write_direct`` dropped a freshly popped slot) is
  exactly this kind;
* **vm_object references** — ``obj.reference()`` / manager ``shadow``
  / ``create_*`` paired with ``objects.deallocate(obj)``;
* **resident pages** — ``resident.allocate(...)`` returns a page that
  is *off every queue* (and usually busy) until it is activated,
  wired, or freed; an exception in that window strands the frame
  forever;
* **holding maps and port rights** — ``AddressMap(...)`` / ``Port(...)``
  constructions paired with ``.destroy()``.

The pass runs a forward dataflow over each function's CFG
(:mod:`repro.analysis.cfg`).  Each local variable holding a resource
moves through ``ACQUIRED -> RELEASED | ESCAPED``; joining paths that
disagree yields ``TOP`` (unknown — deliberately not reported, so
correlated acquire/release conditions don't produce noise).  Reported:

* ``leak-on-exception-path`` — still ACQUIRED in a state reaching the
  synthetic exception exit (all kinds);
* ``leak-on-return`` — still ACQUIRED at normal exit (free-pool slots
  only; long-lived kinds routinely outlive their creating function);
* ``double-release`` — released while already RELEASED.

Escape analysis is ownership-transfer-shaped: returning/yielding a
variable, storing it into an attribute, subscript, or container
(``.append``/``.add``/...), aliasing it, entering it into a map
(``allocate(vm_object=...)``), or passing it to a
constructor all end tracking; passing it as a plain call argument is a
*borrow* and does not (that borrow rule is what catches leaks like a
holding map dropped when ``copy_region`` raises mid-send).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from repro.analysis.cfg import (EXC_EXIT, EXIT, CFGNode, build_cfg,
                                iter_functions, walk_no_lambda)
from repro.analysis.flow import Finding, solve_forward

PASS_NAME = "lifecycle"

#: Part of the incremental-cache key: bump on any behavior change.
PASS_VERSION = "2"

# -- resource-kind table --------------------------------------------------

#: kind -> report a still-ACQUIRED resource at the *normal* exit too?
LEAK_AT_RETURN = {"free-pool-slot"}
#: kinds never reported for leaks at all (pairing-only disciplines).
NO_LEAK_REPORT = {"page-wire"}

#: method names that store their argument somewhere (ownership moves).
ESCAPING_METHODS = {"append", "add", "insert", "setdefault", "put",
                    "push", "register", "extend", "appendleft"}

#: receiver names that make a bare ``.allocate(...)`` a resident-page
#: acquisition (``vm.resident.allocate`` vs ``vm_map.allocate``).
RESIDENT_RECEIVERS = {"resident"}

#: constructors whose result is a tracked resource.
CONSTRUCTORS = {"AddressMap": "holding-map", "Port": "port-right",
                "VMObject": "vm-object-ref"}

#: method names acquiring a vm_object reference into their result.
OBJECT_FACTORIES = {"create_internal", "create_for_pager", "shadow"}

#: resident-page releases: the page lands on a queue / the free pool.
PAGE_COMMITS = {"activate", "deactivate", "free"}

ACQ, REL, ESC, TOP = "ACQ", "REL", "ESC", "TOP"


@dataclass(frozen=True)
class _Fact:
    kind: str
    status: str
    line: int        # acquire line (kept through status changes)


_State = dict  # var name -> _Fact (immutability by convention: copy on write)


def _join(a: _State, b: _State) -> _State:
    if a == b:
        return a
    out: _State = dict(a)
    for var, fact in b.items():
        mine = out.get(var)
        if mine is None:
            out[var] = fact
        elif mine != fact:
            if mine.status == fact.status and mine.kind == fact.kind:
                out[var] = _Fact(mine.kind, mine.status,
                                 min(mine.line, fact.line))
            else:
                out[var] = _Fact(mine.kind, TOP, min(mine.line, fact.line))
    return out


# -- AST pattern matching -------------------------------------------------

def _attr_chain(expr: ast.AST) -> list[str]:
    """``self.vm.resident.allocate`` -> ["self", "vm", "resident",
    "allocate"]; [] when the expression is not a plain chain."""
    parts: list[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
        return list(reversed(parts))
    return []


def _acquire_kind(value: ast.AST) -> Optional[str]:
    """Kind acquired when *value* (an assignment RHS) runs, or None."""
    if not isinstance(value, ast.Call):
        return None
    chain = _attr_chain(value.func)
    if not chain:
        return None
    if len(chain) == 1:
        return CONSTRUCTORS.get(chain[0])
    tail = chain[-1]
    if tail == "pop" and chain[-2] == "_free":
        return "free-pool-slot"
    if tail in OBJECT_FACTORIES:
        return "vm-object-ref"
    if tail == "allocate" and chain[-2] in RESIDENT_RECEIVERS:
        return "resident-page"
    return None


@dataclass
class _Event:
    op: str          # "release" | "escape" | "havoc" | "acq-receiver"
    var: str
    kind: str = ""   # for releases: the discipline being released
    line: int = 0


def _call_events(call: ast.Call, standalone: bool) -> list[_Event]:
    events: list[_Event] = []
    chain = _attr_chain(call.func)
    line = call.lineno
    args = call.args

    def name_args() -> list[str]:
        out = [a.id for a in args if isinstance(a, ast.Name)]
        out += [kw.value.id for kw in call.keywords
                if isinstance(kw.value, ast.Name)]
        return out

    if chain and len(chain) == 1:
        # Bare-name call; constructors take ownership of their args.
        if chain[0][:1].isupper():
            events += [_Event("escape", v, line=line) for v in name_args()]
        return events
    if not chain:
        # Complex callee (call result, subscript): be conservative,
        # its arguments escape.
        return [_Event("escape", a.id, line=call.lineno)
                for a in args if isinstance(a, ast.Name)]

    tail = chain[-1]
    arg0 = args[0].id if args and isinstance(args[0], ast.Name) else None
    receiver = chain[-2] if len(chain) >= 2 else None

    if tail == "append" and receiver == "_free":
        if arg0:
            events.append(_Event("release", arg0, "free-pool-slot", line))
    elif tail == "free_slot" and arg0:
        events.append(_Event("release", arg0, "free-pool-slot", line))
    elif tail == "deallocate" and len(args) == 1 and arg0:
        events.append(_Event("release", arg0, "vm-object-ref", line))
    elif tail == "free" and len(args) == 1 and arg0:
        events.append(_Event("release", arg0, "resident-page", line))
    elif tail in PAGE_COMMITS and len(args) == 1 and arg0:
        events.append(_Event("release", arg0, "resident-page", line))
    elif tail == "wire" and len(args) == 1 and arg0:
        # Commits the page (resident side) and opens a wire count.
        events.append(_Event("release", arg0, "resident-page", line))
        events.append(_Event("havoc", arg0, line=line))
    elif tail == "unwire" and len(args) == 1 and arg0:
        events.append(_Event("release", arg0, "page-wire", line))
    elif tail == "destroy" and not args and receiver \
            and len(chain) == 2:
        # Bare-name receiver only: `holder.destroy()` releases the
        # local, `region.holding.destroy()` releases state we don't
        # track (the attribute, not a local).
        events.append(_Event("release", receiver, "destroyable", line))
    elif tail == "reference" and not args and receiver \
            and receiver != "self" and standalone and len(chain) == 2:
        events.append(_Event("acq-receiver", receiver, "vm-object-ref",
                             line))
    elif tail in ESCAPING_METHODS:
        events += [_Event("escape", v, line=line) for v in name_args()]
    elif tail == "allocate":
        # `map.allocate(vm_object=obj)` stores the object into the new
        # map entry: ownership (the caller's reference) moves with it.
        events += [_Event("escape", kw.value.id, line=line)
                   for kw in call.keywords
                   if kw.arg == "vm_object"
                   and isinstance(kw.value, ast.Name)]
    return events


def _names_under(expr: ast.AST) -> list[str]:
    return [n.id for n in walk_no_lambda(expr)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]


def _stmt_events(node: CFGNode, summary_events=None
                 ) -> tuple[list[_Event],
                            Optional[tuple[str, str, int]]]:
    """(ordered events, optional (var, kind, line) acquisition)."""
    stmt = node.stmt
    events: list[_Event] = []
    acquire: Optional[tuple[str, str, int]] = None

    for call in node.calls:
        # "standalone" = the call IS the whole statement: only then
        # does `obj.reference()` leave its new reference in obj's
        # hands (a nested `f(x=obj.reference())` hands it to f).
        standalone = isinstance(stmt, ast.Expr) and call is stmt.value
        direct = _call_events(call, standalone)
        events += direct
        if summary_events is not None:
            # Callee-summary effects apply only to arguments the
            # syntactic table did not already handle, so the same
            # release is never applied twice.
            events += summary_events(call, {ev.var for ev in direct})

    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            kind = _acquire_kind(stmt.value)
            if kind is not None:
                acquire = (target.id, kind, stmt.lineno)
            else:
                if isinstance(stmt.value, ast.Name):
                    events.append(_Event("escape", stmt.value.id,
                                         line=stmt.lineno))
                events.append(_Event("havoc", target.id,
                                     line=stmt.lineno))
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            # Storing into a structure: the stored names escape.
            events += [_Event("escape", v, line=stmt.lineno)
                       for v in _names_under(stmt.value)]
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    events.append(_Event("havoc", elt.id,
                                         line=stmt.lineno))
    elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target,
                                                        ast.Name):
        events.append(_Event("havoc", stmt.target.id, line=stmt.lineno))
    elif isinstance(stmt, ast.Return) and stmt.value is not None:
        events += [_Event("escape", v, line=stmt.lineno)
                   for v in _names_under(stmt.value)]
    elif isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, (ast.Yield, ast.YieldFrom, ast.Await)):
        events += [_Event("escape", v, line=stmt.lineno)
                   for v in _names_under(stmt.value)]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        for n in walk_no_lambda(stmt.target):
            if isinstance(n, ast.Name):
                events.append(_Event("havoc", n.id, line=stmt.lineno))
    elif isinstance(stmt, ast.Delete):
        for tgt in stmt.targets:
            if isinstance(tgt, ast.Name):
                events.append(_Event("havoc", tgt.id, line=stmt.lineno))
    return events, acquire


# -- the pass itself ------------------------------------------------------

#: callee must-exit states that mean "the callee released this
#: argument for you" (interprocedural generalization of the
#: syntactic release table above).
_SUMMARY_RELEASES = {"page:free": "resident-page",
                     "vmobject:deallocated": "vm-object-ref"}


class _FunctionChecker:
    def __init__(self, module: str, qualname: str, func: ast.AST,
                 ctx=None, info=None) -> None:
        self.module = module
        self.qualname = qualname
        self.func = func
        self.ctx = ctx       # typestate.AnalysisContext or None
        self.info = info     # callgraph.FunctionInfo or None
        self.findings: dict[tuple, Finding] = {}

    def _summary_events(self, call: ast.Call,
                        direct_vars: set[str]) -> list[_Event]:
        """Ownership effects the callee's summary proves: arguments
        it escapes stop being tracked (handoff), arguments it always
        releases count as released here.  This replaces the old
        per-function handoff special cases — a helper that stores or
        frees its parameter is now recognized wherever it is called.
        """
        if self.ctx is None or self.info is None:
            return []
        pairs = self.ctx.lookup(call, self.info)
        if not pairs:
            return []
        from repro.analysis.callgraph import _attr_chain as _cg_chain
        chain = _cg_chain(call.func)
        receiver_var = chain[0] if len(chain) == 2 else None
        events: list[_Event] = []
        must_release: dict[str, set] = {}
        seen: dict[str, int] = {}
        for fid, summary in pairs:
            bound = self.ctx.graph.bind_args(fid, call, receiver_var)
            for param, var in bound.items():
                if var in direct_vars:
                    continue
                # Escaping is a may-fact: ending tracking can only
                # hide a leak, never invent one (the borrow rule's
                # direction of safety).
                if param in summary.escapes:
                    events.append(_Event("escape", var,
                                         line=call.lineno))
                kind = _SUMMARY_RELEASES.get(
                    summary.must_exit_state(param) or "")
                if kind is not None:
                    must_release.setdefault(var, set()).add(kind)
                    seen[var] = seen.get(var, 0) + 1
        for var, kinds in sorted(must_release.items()):
            if len(kinds) == 1 and seen[var] == len(pairs):
                events.append(_Event("release", var, kinds.pop(),
                                     call.lineno))
        return events

    def _report(self, rule: str, line: int, message: str) -> None:
        key = (rule, line, message)
        self.findings.setdefault(key, Finding(
            PASS_NAME, self.module, line, rule, self.qualname, message))

    def _transfer(self, node: CFGNode,
                  state: _State) -> tuple[_State, _State]:
        events, acquire = _stmt_events(node, self._summary_events)
        after = dict(state)
        receiver_acqs: list[_Event] = []
        for ev in events:
            fact = after.get(ev.var)
            if ev.op == "havoc":
                after.pop(ev.var, None)
            elif ev.op == "escape":
                if fact is not None and fact.status in (ACQ, TOP):
                    after[ev.var] = _Fact(fact.kind, ESC, fact.line)
            elif ev.op == "acq-receiver":
                # Applied to the normal out-state only: if the
                # acquiring call itself raised, no reference was taken.
                receiver_acqs.append(ev)
            elif ev.op == "release":
                if fact is None:
                    after[ev.var] = _Fact(ev.kind, REL, ev.line)
                elif fact.status == REL and (fact.kind == ev.kind
                                             or ev.kind == "destroyable"):
                    self._report(
                        "double-release", ev.line,
                        f"{ev.var!r} ({fact.kind}) released again; "
                        f"already released on a path reaching here")
                elif fact.status in (ACQ, TOP):
                    after[ev.var] = _Fact(fact.kind, REL, fact.line)
        # The exceptional out-state: the statement may have raised
        # before completing, so releases/escapes are honoured (under-
        # approximating leaks, never inventing them) but the acquire
        # has not happened.
        exc_out = after
        norm_out = after
        if acquire is not None or receiver_acqs:
            norm_out = dict(after)
            for ev in receiver_acqs:
                norm_out[ev.var] = _Fact(ev.kind, ACQ, ev.line)
            if acquire is not None:
                var, kind, line = acquire
                norm_out[var] = _Fact(kind, ACQ, line)
        return norm_out, exc_out

    def _check_exit_edge(self, state: _State, via_line: int,
                         exceptional: bool) -> None:
        for var, fact in sorted(state.items()):
            if fact.status != ACQ or fact.kind in NO_LEAK_REPORT:
                continue
            if not exceptional and fact.kind not in LEAK_AT_RETURN:
                continue
            if exceptional:
                rule = "leak-on-exception-path"
                how = (f"still held when line {via_line} can raise"
                       if via_line else "still held when the function "
                       "can unwind")
            else:
                rule = "leak-on-return"
                how = f"still held at the return on line {via_line}" \
                    if via_line else "still held at function exit"
            # Key on the acquisition, not the escaping edge: one
            # finding per leaked acquire, at its most actionable line.
            key = (rule, var, fact.line)
            self.findings.setdefault(key, Finding(
                PASS_NAME, self.module, fact.line, rule, self.qualname,
                f"{fact.kind} {var!r} acquired here is never released "
                f"or handed off: {how}"))

    def check(self) -> list[Finding]:
        cfg = build_cfg(self.func)
        states = solve_forward(cfg, {}, self._transfer, _join)
        # Leaks are judged per exit *edge*, not on the joined exit
        # state: joining a leaking path with a clean one would yield
        # TOP and hide the leak.
        for node in cfg:
            if node.nid not in states:
                continue                      # unreachable
            out_n, out_e = self._transfer(node, states[node.nid])
            if EXC_EXIT in node.exc:
                self._check_exit_edge(out_e, node.lineno,
                                      exceptional=True)
            if EXC_EXIT in node.succ:         # raise / finally rethrow
                self._check_exit_edge(out_n, node.lineno,
                                      exceptional=True)
            if EXIT in node.succ:
                self._check_exit_edge(out_n, node.lineno,
                                      exceptional=False)
        return list(self.findings.values())


def check_module(module: str, tree: ast.AST, ctx=None) -> list[Finding]:
    """Run the lifecycle discipline over one parsed module.  With a
    :class:`repro.analysis.typestate.AnalysisContext`, callee
    summaries supply interprocedural ownership handoffs (escapes and
    must-releases); without one the syntactic tables stand alone."""
    findings: list[Finding] = []
    for qualname, func in iter_functions(tree):
        info = ctx.caller_info(module, qualname) if ctx is not None \
            else None
        findings += _FunctionChecker(module, qualname, func,
                                     ctx, info).check()
    return findings


def in_scope(module: str, package: str = "repro") -> bool:
    """Lifecycle applies to the whole package."""
    del package
    return True

