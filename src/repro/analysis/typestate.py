"""Interprocedural typestate pass: declarative VM protocol specs.

The paper's machine-independent layer works because every component
honors unwritten protocols: a page cycles free→active→inactive→
laundering→free and is never touched once freed; a ``vm_object``
reference obtained from the manager is dead after ``deallocate``; a
map entry unlinked from its map must not re-enter map structure
operations; and a pmap mutation that skipped its TLB shootdown
(``remove(..., shoot=False)``) owes one before the next yield.  The
PR 6 flow passes cannot see a violation that spans a call — a helper
that frees a page its caller still touches looks clean to both
functions in isolation.

This pass closes that hole.  Protocols are declarative
:class:`ProtocolSpec` tables (states, transitions, violations); the
checker runs each function's CFG through the shared forward solver
(:func:`repro.analysis.flow.solve_forward`), applying protocol
*operations* classified from call sites.  Calls resolved by the call
graph apply the callee's :class:`~repro.analysis.callgraph.Summary` —
the parameter states the callee definitely establishes by exit —
computed bottom-up over SCCs by
:func:`~repro.analysis.callgraph.compute_summaries`, so a protocol
violation split across any number of calls is still caught.  Joining
paths that disagree yields an unknown state that is deliberately not
reported (same noise discipline as the lifecycle pass).

Shipped rules (each has a known-bad fixture in
``tests/data/flow_fixtures/``):

* ``page-use-after-free`` / ``page-double-free`` /
  ``page-free-while-wired`` — the resident-page lifecycle;
* ``object-use-after-deallocate`` / ``object-double-deallocate`` —
  the vm_object reference protocol;
* ``entry-use-after-unlink`` — map entries re-entering map structure
  ops (or being written) after ``_unlink``; teardown *reads* of an
  unlinked entry are the sanctioned pattern and stay legal;
* ``shootdown-before-yield`` — a pmap left TLB-dirty by
  ``remove(..., shoot=False)`` (directly or via a callee that always
  exits dirty) crossing a yield point before the covering
  ``system.shootdown(...)`` / ``system.update()``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.analysis.callgraph import (
    CallGraph, EMPTY_SUMMARY, FunctionInfo, Summary, SummaryLookup,
    _attr_chain, build_callgraph, compute_summaries,
)
from repro.analysis.cfg import EXC_EXIT, EXIT, CFGNode, build_cfg, \
    ctx_params, is_yield_primitive, iter_functions, walk_no_lambda
from repro.analysis.flow import Finding, solve_forward
from repro.analysis.layering import _strip

PASS_NAME = "typestate"

#: Bumped when the pass logic changes: part of every cache key, so a
#: new rule invalidates stale cached results.
PASS_VERSION = "3"

#: Top-level repro subpackages outside the simulated kernel: protocol
#: ops never originate there, and analysis tooling talking *about*
#: pages must not be held to the page protocol.
EXEMPT = ("analysis", "bench", "cli", "viz", "__main__")

TOP = "<top>"


# -- declarative protocol specs --------------------------------------------

@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol: states, transitions, and what counts as a crime.

    ``track_on`` starts tracking an untracked variable when an op hits
    it (``resident.free(p)`` proves ``p`` is a page, now ``free``);
    ``transitions`` move tracked state; ``violations`` map ``(op,
    state)`` to a reported rule; any other ``(op, state)`` pair
    degrades to unknown, which is never reported.  ``op_for_state``
    translates a callee's must-exit state back into the op applied at
    the call site, so interprocedural effects run through the same
    violation tables as direct calls.
    """

    name: str
    kind: str                                  # lifecycle resource kind
    track_on: dict = field(default_factory=dict)
    transitions: dict = field(default_factory=dict)
    violations: dict = field(default_factory=dict)
    dead_states: frozenset = frozenset()
    use_rule: tuple = ()                       # (rule, message)
    use_writes_only: bool = False
    op_for_state: dict = field(default_factory=dict)
    yield_hazard: tuple = ()                   # (state, rule, message)


_UAF = ("page-use-after-free",
        "page {var!r} was freed on line {line} and is used here; a "
        "freed page belongs to the free pool and may be reallocated "
        "under you")

PAGE_PROTOCOL = ProtocolSpec(
    name="page", kind="resident-page",
    track_on={"page-free": "free", "page-wire": "wired",
              "page-activate": "active", "page-deactivate": "inactive"},
    transitions={
        ("page-activate", "busy"): "active",
        ("page-activate", "active"): "active",
        ("page-activate", "inactive"): "active",
        ("page-deactivate", "busy"): "inactive",
        ("page-deactivate", "active"): "inactive",
        ("page-deactivate", "inactive"): "inactive",
        ("page-wire", "busy"): "wired",
        ("page-wire", "active"): "wired",
        ("page-wire", "inactive"): "wired",
        ("page-wire", "wired"): "wired",
        ("page-free", "busy"): "free",
        ("page-free", "active"): "free",
        ("page-free", "inactive"): "free",
    },
    violations={
        ("page-free", "free"): (
            "page-double-free",
            "page {var!r} freed again; already freed on line {line}"),
        ("page-free", "wired"): (
            "page-free-while-wired",
            "page {var!r} wired on line {line} is freed here without "
            "an unwire; ResidentPageTable.free refuses wired pages"),
        ("page-activate", "free"): _UAF,
        ("page-deactivate", "free"): _UAF,
        ("page-wire", "free"): _UAF,
        ("page-unwire", "free"): _UAF,
        ("page-touch", "free"): _UAF,
    },
    dead_states=frozenset({"free"}),
    use_rule=_UAF,
    op_for_state={"free": "page-free", "active": "page-activate",
                  "inactive": "page-deactivate", "wired": "page-wire"},
)

_UAD = ("object-use-after-deallocate",
        "vm_object {var!r} was deallocated on line {line}; this "
        "reference is dead and the object may already be terminated")

OBJECT_PROTOCOL = ProtocolSpec(
    name="vmobject", kind="vm-object-ref",
    track_on={"obj-deallocate": "deallocated", "obj-reference": "live"},
    transitions={
        ("obj-deallocate", "live"): "deallocated",
        ("obj-reference", "live"): "live",
    },
    violations={
        ("obj-deallocate", "deallocated"): (
            "object-double-deallocate",
            "vm_object {var!r} deallocated again; this reference was "
            "already dropped on line {line} (over-release terminates "
            "the object under other holders)"),
        ("obj-reference", "deallocated"): _UAD,
    },
    dead_states=frozenset({"deallocated"}),
    use_rule=_UAD,
    op_for_state={"deallocated": "obj-deallocate",
                  "live": "obj-reference"},
)

ENTRY_PROTOCOL = ProtocolSpec(
    name="entry", kind="map-entry",
    track_on={"entry-unlink": "unlinked"},
    transitions={("entry-unlink", "unlinked"): "unlinked"},
    violations={
        ("entry-map-op", "unlinked"): (
            "entry-use-after-unlink",
            "map entry {var!r} was unlinked on line {line} and "
            "re-enters a map structure operation here; in Mach the "
            "entry is back in the zone by now"),
    },
    dead_states=frozenset({"unlinked"}),
    use_rule=("entry-use-after-unlink",
              "map entry {var!r} unlinked on line {line} is written "
              "here; only teardown reads of a dead entry are legal"),
    use_writes_only=True,
    op_for_state={"unlinked": "entry-unlink"},
)

PMAP_PROTOCOL = ProtocolSpec(
    name="pmap", kind="pmap-tlb",
    track_on={"pmap-mutate-unshot": "dirty"},
    transitions={
        ("pmap-mutate-unshot", "dirty"): "dirty",
        ("pmap-mutate-unshot", "clean"): "dirty",
        ("pmap-shoot", "dirty"): "clean",
        ("pmap-shoot", "clean"): "clean",
    },
    op_for_state={"dirty": "pmap-mutate-unshot", "clean": "pmap-shoot"},
    yield_hazard=(
        "dirty", "shootdown-before-yield",
        "pmap {var!r} was mutated with shoot=False on line {line} and "
        "this statement can yield the CPU before the covering "
        "shootdown; another processor can observe the stale TLB entry"),
)

PROTOCOLS: dict[str, ProtocolSpec] = {
    spec.name: spec for spec in (
        PAGE_PROTOCOL, OBJECT_PROTOCOL, ENTRY_PROTOCOL, PMAP_PROTOCOL)
}


def _op_proto_table() -> dict[str, ProtocolSpec]:
    table: dict[str, ProtocolSpec] = {}
    for spec in PROTOCOLS.values():
        for op in spec.track_on:
            table[op] = spec
        for op, _state in list(spec.transitions) + list(spec.violations):
            table[op] = spec
    table["pmap-shoot-all"] = PMAP_PROTOCOL
    return table


#: op name -> owning protocol spec
_OP_PROTO = _op_proto_table()


# -- op classification ------------------------------------------------------

#: ``x.resident.<op>(page)`` — the resident page table's queue ops.
_PAGE_OPS = {"free": "page-free", "activate": "page-activate",
             "deactivate": "page-deactivate", "wire": "page-wire",
             "unwire": "page-unwire", "insert": "page-touch",
             "remove": "page-touch", "rename": "page-touch"}

_ESCAPING_METHODS = {"append", "add", "insert", "setdefault", "put",
                     "push", "register", "extend", "appendleft"}


@dataclass(frozen=True)
class _Op:
    op: str
    var: str
    line: int


def _const_false(call: ast.Call, kwarg: str) -> bool:
    for kw in call.keywords:
        if kw.arg == kwarg and isinstance(kw.value, ast.Constant) \
                and kw.value.value is False:
            return True
    return False


def classify_call(call: ast.Call, cls: Optional[str]) -> list[_Op]:
    """Protocol ops a call applies directly to named local variables."""
    chain = _attr_chain(call.func)
    if len(chain) < 2:
        return []
    tail, recv = chain[-1], chain[-2]
    line = call.lineno
    args = call.args
    arg0 = args[0].id if args and isinstance(args[0], ast.Name) else None
    ops: list[_Op] = []
    if recv == "resident" and tail in _PAGE_OPS and arg0:
        ops.append(_Op(_PAGE_OPS[tail], arg0, line))
    elif tail == "deallocate" and len(args) == 1 and arg0 \
            and (recv == "objects"
                 or (recv == "self" and cls == "VMObjectManager")):
        ops.append(_Op("obj-deallocate", arg0, line))
    elif tail == "reference" and not args and len(chain) == 2 \
            and chain[0] != "self":
        ops.append(_Op("obj-reference", chain[0], line))
    elif tail == "_unlink" and arg0:
        ops.append(_Op("entry-unlink", arg0, line))
    elif tail in ("_link", "clip_start", "clip_end", "copy_entry_cow") \
            and arg0:
        ops.append(_Op("entry-map-op", arg0, line))
    elif tail == "remove" and len(chain) == 2 \
            and _const_false(call, "shoot"):
        ops.append(_Op("pmap-mutate-unshot", chain[0], line))
    elif tail == "shootdown" and arg0:
        ops.append(_Op("pmap-shoot", arg0, line))
    elif tail == "update" and recv == "system" and not args:
        ops.append(_Op("pmap-shoot-all", "", line))
    return ops


def classify_acquire(value: ast.AST,
                     cls: Optional[str]) -> Optional[tuple[str, str]]:
    """``(protocol, state)`` freshly acquired by an assignment RHS."""
    if not isinstance(value, ast.Call):
        return None
    chain = _attr_chain(value.func)
    if len(chain) < 2:
        return None
    tail, recv = chain[-1], chain[-2]
    if tail == "allocate" and recv == "resident":
        return ("page", "busy")
    if tail in ("create_internal", "create_for_pager", "shadow") \
            and (recv == "objects"
                 or (recv == "self" and cls == "VMObjectManager")):
        return ("vmobject", "live")
    return None


# -- dataflow facts ----------------------------------------------------------

@dataclass(frozen=True)
class _Fact:
    proto: str       # protocol name
    state: str       # concrete state or TOP
    line: int        # line that established the current state
    acquired: bool = False   # freshly acquired in this function


_State = dict    # var -> _Fact; copied on write


def _join(a: _State, b: _State) -> _State:
    if a == b:
        return a
    out: _State = dict(a)
    # Untracked on one path means the state is unknown there, not
    # absent: a page freed on one branch only must join to unknown
    # (never reported), not stay "free".
    for var, mine in a.items():
        if var not in b and mine.state != TOP:
            out[var] = _Fact(mine.proto, TOP, mine.line)
    for var, fact in b.items():
        mine = out.get(var)
        if mine is None:
            out[var] = _Fact(fact.proto, TOP, fact.line) \
                if fact.state != TOP else fact
        elif mine != fact:
            if mine.proto == fact.proto and mine.state == fact.state:
                out[var] = _Fact(mine.proto, mine.state,
                                 min(mine.line, fact.line),
                                 mine.acquired and fact.acquired)
            else:
                out[var] = _Fact(mine.proto, TOP,
                                 min(mine.line, fact.line))
    return out


# -- the engine: one function, summary mode or check mode -------------------

class _FunctionEngine:
    """Shared transfer function over one function's CFG.

    In *check mode* (``run_check``) it emits findings — but only
    during a final sweep over fixpoint states, never from the
    intermediate states the solver passes through.  In *summary mode*
    (``run_summary``) it harvests parameter exit states, escapes, and
    may-yield for the bottom-up fixpoint.
    """

    def __init__(self, module: str, qualname: str, func: ast.AST,
                 info: Optional[FunctionInfo], graph: CallGraph,
                 lookup: SummaryLookup) -> None:
        self.module = module
        self.qualname = qualname
        self.func = func
        self.info = info
        self.graph = graph
        self.lookup = lookup
        self.findings: dict[tuple, Finding] = {}
        self.escaped: set[str] = set()
        self.saw_yield = False
        self._reporting = False
        self._ctx_params = ctx_params(func)
        self._thread_body = info is not None and info.thread_body
        self._cls = info.cls if info is not None else None

    # -- reporting ----------------------------------------------------------

    def _report(self, rule: str, template: str, var: str,
                line: int, origin: int) -> None:
        if not self._reporting:
            return
        key = (rule, line, var)
        self.findings.setdefault(key, Finding(
            PASS_NAME, self.module, line, rule, self.qualname,
            template.format(var=var, line=origin)))

    # -- op application ------------------------------------------------------

    def _apply_op(self, state: _State, op: _Op) -> _State:
        spec = _OP_PROTO.get(op.op)
        if spec is None:
            return state
        if op.op == "pmap-shoot-all":
            out = dict(state)
            for var, fact in state.items():
                if fact.proto == "pmap" and fact.state == "dirty":
                    out[var] = _Fact("pmap", "clean", op.line)
            return out
        fact = state.get(op.var)
        if fact is None:
            target = spec.track_on.get(op.op)
            if target is not None:
                out = dict(state)
                out[op.var] = _Fact(spec.name, target, op.line)
                return out
            return state
        if fact.proto != spec.name or fact.state == TOP:
            # Another protocol claims this name, or paths disagree:
            # degrade quietly rather than invent a violation.
            out = dict(state)
            out[op.var] = _Fact(fact.proto, TOP, fact.line)
            return out
        crime = spec.violations.get((op.op, fact.state))
        if crime is not None:
            rule, template = crime
            self._report(rule, template, op.var, op.line, fact.line)
            return state
        nxt = spec.transitions.get((op.op, fact.state))
        out = dict(state)
        if nxt is not None:
            out[op.var] = _Fact(spec.name, nxt, op.line, fact.acquired)
        else:
            out[op.var] = _Fact(spec.name, TOP, fact.line)
        return out

    # -- summary application at call sites -----------------------------------

    def _summary_ops(self, call: ast.Call,
                     direct_vars: set[str]) -> tuple[list[_Op],
                                                     list[str], bool]:
        """(must-ops to apply, vars to degrade to unknown, callee may
        yield).  A must-op only survives when *every* candidate callee
        binds the variable and agrees on the exit state."""
        if self.info is None:
            return [], [], False
        pairs = self.lookup(call, self.info)
        if not pairs:
            return [], [], False
        chain = _attr_chain(call.func)
        receiver_var = chain[0] if len(chain) == 2 else None
        per_var_must: dict[str, set[str]] = {}
        per_var_seen: dict[str, int] = {}
        degrade: set[str] = set()
        may_yield = False
        for fid, summary in pairs:
            may_yield |= summary.may_yield
            bound = self.graph.bind_args(fid, call, receiver_var)
            for param, var in bound.items():
                if var in direct_vars:
                    continue
                must = summary.must_exit_state(param)
                if must is not None:
                    per_var_must.setdefault(var, set()).add(must)
                    per_var_seen[var] = per_var_seen.get(var, 0) + 1
                if summary.may_exit_states(param):
                    degrade.add(var)
                if param in summary.escapes:
                    self.escaped.add(var)
                    degrade.add(var)
        ops: list[_Op] = []
        for var, states in sorted(per_var_must.items()):
            if len(states) == 1 and per_var_seen[var] == len(pairs):
                proto, _, st = next(iter(states)).partition(":")
                spec = PROTOCOLS.get(proto)
                op = spec.op_for_state.get(st) if spec else None
                if op is not None:
                    ops.append(_Op(op, var, call.lineno))
                    degrade.discard(var)
                    continue
            degrade.add(var)
        return ops, sorted(degrade), may_yield

    # -- per-statement transfer ----------------------------------------------

    def _transfer(self, node: CFGNode,
                  state: _State) -> tuple[_State, _State]:
        # Dead-state uses are judged on the state *entering* the
        # statement — the op that kills a var happens during it.
        self._check_uses(node, state)

        after = dict(state)
        # A bare generator helper's yields are iteration, not
        # preemption; only thread bodies preempt at yield
        # (cfg.is_thread_body, the rule every pass shares).
        stmt_yields = node.has_yield and self._thread_body

        for call in node.calls:
            direct = classify_call(call, self._cls)
            for op in direct:
                after = self._apply_op(after, op)
            s_ops, s_degrade, callee_yields = self._summary_ops(
                call, {op.var for op in direct})
            for op in s_ops:
                after = self._apply_op(after, op)
            for var in s_degrade:
                fact = after.get(var)
                if fact is not None and fact.state != TOP:
                    after[var] = _Fact(fact.proto, TOP, fact.line)
            if callee_yields or is_yield_primitive(call,
                                                   self._ctx_params):
                stmt_yields = True

        if stmt_yields:
            self.saw_yield = True
            self._check_yield_hazard(node, after)

        # Acquisitions bind on the normal out-state only — if the RHS
        # raised, nothing was acquired.
        exc_out = after
        norm_out = self._apply_stmt(node, after)
        return norm_out, exc_out

    def _apply_stmt(self, node: CFGNode, state: _State) -> _State:
        stmt = node.stmt
        out = state
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                acq = self._acquire_of(stmt.value)
                out = dict(state)
                if acq is not None:
                    proto, st = acq
                    out[target.id] = _Fact(proto, st, stmt.lineno,
                                           acquired=True)
                else:
                    out.pop(target.id, None)
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                for n in walk_no_lambda(stmt.value):
                    if isinstance(n, ast.Name) \
                            and isinstance(n.ctx, ast.Load):
                        self.escaped.add(n.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                out = dict(state)
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        out.pop(elt.id, None)
        elif isinstance(stmt, ast.AugAssign) \
                and isinstance(stmt.target, ast.Name):
            out = dict(state)
            out.pop(stmt.target.id, None)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            out = dict(state)
            for n in walk_no_lambda(stmt.target):
                if isinstance(n, ast.Name):
                    out.pop(n.id, None)
        elif isinstance(stmt, ast.Delete):
            out = dict(state)
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name):
                    out.pop(tgt.id, None)
        # Constructor / container-method arguments escape.
        for call in node.calls:
            chain = _attr_chain(call.func)
            if not chain:
                continue
            if (len(chain) == 1 and chain[0][:1].isupper()) \
                    or chain[-1] in _ESCAPING_METHODS:
                for arg in list(call.args) + \
                        [kw.value for kw in call.keywords]:
                    if isinstance(arg, ast.Name):
                        self.escaped.add(arg.id)
        return out

    def _acquire_of(self, value: ast.AST) -> Optional[tuple[str, str]]:
        acq = classify_acquire(value, self._cls)
        if acq is not None:
            return acq
        if isinstance(value, ast.Call) and self.info is not None:
            pairs = self.lookup(value, self.info)
            if pairs:
                kinds = set(pairs[0][1].returns_acquired)
                for _fid, summary in pairs[1:]:
                    kinds &= set(summary.returns_acquired)
                if len(kinds) == 1:
                    proto, _, st = next(iter(kinds)).partition(":")
                    if proto in PROTOCOLS:
                        return (proto, st)
        return None

    # -- check-mode detectors ------------------------------------------------

    def _check_uses(self, node: CFGNode, state: _State) -> None:
        if not self._reporting:
            return
        dead = {var: fact for var, fact in state.items()
                if fact.state != TOP
                and fact.state in PROTOCOLS[fact.proto].dead_states}
        if not dead:
            return
        for expr in node.exprs:
            for sub in walk_no_lambda(expr):
                if not isinstance(sub, ast.Attribute) \
                        or not isinstance(sub.value, ast.Name):
                    continue
                fact = dead.get(sub.value.id)
                if fact is None:
                    continue
                spec = PROTOCOLS[fact.proto]
                if not spec.use_rule:
                    continue
                if spec.use_writes_only \
                        and not isinstance(sub.ctx, ast.Store):
                    continue
                rule, template = spec.use_rule
                self._report(rule, template, sub.value.id,
                             node.lineno, fact.line)

    def _check_yield_hazard(self, node: CFGNode, state: _State) -> None:
        if not self._reporting:
            return
        for var, fact in sorted(state.items()):
            spec = PROTOCOLS[fact.proto]
            if not spec.yield_hazard or fact.state == TOP:
                continue
            hazard_state, rule, template = spec.yield_hazard
            if fact.state == hazard_state:
                self._report(rule, template, var, node.lineno,
                             fact.line)

    # -- drivers ---------------------------------------------------------------

    def run_check(self) -> list[Finding]:
        cfg = build_cfg(self.func)
        states = solve_forward(cfg, {}, self._transfer, _join)
        # Report only from fixpoint states: an intermediate state can
        # hold a concrete fact a later join degrades to unknown.
        self._reporting = True
        for node in cfg:
            if node.nid in states:
                self._transfer(node, states[node.nid])
        self._reporting = False
        return sorted(self.findings.values(),
                      key=lambda f: (f.lineno, f.rule))

    def run_summary(self, propagates: bool) -> Summary:
        cfg = build_cfg(self.func)
        states = solve_forward(cfg, {}, self._transfer, _join)
        params = set(self.info.params if self.info is not None else ())
        must: Optional[set[tuple[str, str]]] = None
        may: set[tuple[str, str]] = set()
        returns: Optional[set[str]] = None
        for node in cfg:
            if node.nid not in states:
                continue
            out_n, out_e = self._transfer(node, states[node.nid])
            if EXC_EXIT in node.exc or EXC_EXIT in node.succ:
                may |= self._param_states(out_e, params)
            if EXIT in node.succ:
                edge = self._param_states(out_n, params)
                may |= edge
                must = edge if must is None else (must & edge)
                ret = self._returned_kind(node, out_n)
                returns = ret if returns is None else (returns & ret)
        return Summary(
            must_exit=tuple(sorted(must or ())),
            may_exit=tuple(sorted(may)),
            escapes=tuple(sorted(v for v in self.escaped
                                 if v in params)),
            returns_acquired=tuple(sorted(returns or ())),
            may_yield=self.saw_yield,
            propagates_transient=propagates)

    @staticmethod
    def _param_states(state: _State,
                      params: set[str]) -> set[tuple[str, str]]:
        return {(var, f"{fact.proto}:{fact.state}")
                for var, fact in state.items()
                if var in params and fact.state != TOP}

    def _returned_kind(self, node: CFGNode, state: _State) -> set[str]:
        stmt = node.stmt
        if not isinstance(stmt, ast.Return) or stmt.value is None:
            return set()
        value = stmt.value
        if isinstance(value, ast.Name):
            fact = state.get(value.id)
            if fact is not None and fact.acquired and fact.state != TOP:
                return {f"{fact.proto}:{fact.state}"}
            return set()
        acq = self._acquire_of(value)
        if acq is not None:
            return {f"{acq[0]}:{acq[1]}"}
        return set()


# -- transient propagation (errorpaths' interprocedural half) ---------------

def _function_propagates(info: FunctionInfo, lines: Optional[list[str]],
                         callee_propagates: Callable[[ast.Call], bool]
                         ) -> bool:
    """Does a transient pager/disk error escape *info* to its caller?

    True for a ``#: no-retry``-annotated transient op (the annotation
    *means* "my caller retries"), and for an unprotected call to a
    callee that itself propagates.
    """
    from repro.analysis.cfg import _header_exprs
    from repro.analysis.errorpaths import (
        TRANSIENT_OPS, _annotated, _call_tail, _catches_transient)

    def annotated(call: ast.Call) -> bool:
        return lines is not None and _annotated(lines, call.lineno)

    def scan(expr: ast.AST, protected: int) -> bool:
        if protected:
            return False
        for sub in walk_no_lambda(expr):
            if not isinstance(sub, ast.Call):
                continue
            tail = _call_tail(sub)
            if tail == "_call_pager":
                continue            # the retry funnel itself
            if tail in TRANSIENT_OPS:
                if annotated(sub):
                    return True
            elif callee_propagates(sub) and not annotated(sub):
                return True
        return False

    def walk(stmts: Iterable[ast.stmt], protected: int) -> bool:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Try):
                protects = any(_catches_transient(h)
                               for h in stmt.handlers)
                if walk(stmt.body + stmt.orelse,
                        protected + (1 if protects else 0)):
                    return True
                for handler in stmt.handlers:
                    if walk(handler.body, protected):
                        return True
                if walk(stmt.finalbody, protected):
                    return True
                continue
            # Only the statement's *header* expressions are evaluated
            # at this protection depth; nested suites recurse below.
            for expr in _header_exprs(stmt):
                if scan(expr, protected):
                    return True
            for name in ("body", "orelse"):
                inner = getattr(stmt, name, None)
                if isinstance(inner, list) and inner \
                        and isinstance(inner[0], ast.stmt):
                    if walk(inner, protected):
                        return True
        return False

    return walk(list(info.func.body), 0)


# -- context: call graph + summaries over a module set -----------------------

@dataclass
class AnalysisContext:
    """Everything the interprocedural passes share for one run."""

    graph: CallGraph
    summaries: dict[str, Summary]

    def lookup(self, call: ast.Call,
               caller: FunctionInfo) -> list[tuple[str, Summary]]:
        return [(f, self.summaries.get(f, EMPTY_SUMMARY))
                for f in self.graph.resolve(call, caller)]

    def caller_info(self, module: str,
                    qualname: str) -> Optional[FunctionInfo]:
        return self.graph.functions.get(f"{module}:{qualname}")

    def summary_digest(self, module: str) -> str:
        """Stable digest of every summary in *module* — the
        "dependency summary" component of incremental cache keys."""
        import hashlib
        parts = [f"{fid}={self.summaries[fid]!r}"
                 for fid in sorted(self.summaries)
                 if fid.startswith(module + ":")]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    def dependencies(self, module: str) -> frozenset[str]:
        """Modules whose summaries this module's findings consult:
        every module containing a resolved callee of its functions."""
        deps: set[str] = set()
        prefix = module + ":"
        for fid, callees in self.graph.edges.items():
            if not fid.startswith(prefix):
                continue
            for callee in callees:
                dep = self.graph.functions[callee].module
                if dep != module:
                    deps.add(dep)
        return frozenset(deps)


def build_context(modules: Iterable[tuple[str, ast.AST,
                                          Optional[list[str]]]]
                  ) -> AnalysisContext:
    """Build the call graph and compute all function summaries
    bottom-up.  *modules* yields ``(dotted name, tree, source lines)``
    (lines may be None; the no-retry annotation check then degrades)."""
    modules = list(modules)
    graph = build_callgraph((m, t) for m, t, _ in modules)
    lines_of = {m: ln for m, _t, ln in modules}

    def local(info: FunctionInfo, lookup: SummaryLookup) -> Summary:
        def callee_propagates(call: ast.Call) -> bool:
            return any(summary.propagates_transient
                       for _fid, summary in lookup(call, info))

        propagates = _function_propagates(
            info, lines_of.get(info.module), callee_propagates)
        engine = _FunctionEngine(info.module, info.qualname, info.func,
                                 info, graph, lookup)
        return engine.run_summary(propagates)

    summaries = compute_summaries(graph, local)
    return AnalysisContext(graph=graph, summaries=summaries)


# -- the pass ----------------------------------------------------------------

def check_module(module: str, tree: ast.AST,
                 ctx: Optional[AnalysisContext] = None) -> list[Finding]:
    """Typestate-check one module.  Without *ctx*, a module-local
    context is built, so helper/caller pairs inside the module are
    still checked interprocedurally (what the fixtures exercise)."""
    if ctx is None:
        ctx = build_context([(module, tree, None)])
    findings: list[Finding] = []
    for qualname, func in iter_functions(tree):
        info = ctx.caller_info(module, qualname)
        engine = _FunctionEngine(module, qualname, func, info,
                                 ctx.graph, ctx.lookup)
        findings += engine.run_check()
    return findings


def in_scope(module: str, package: str = "repro") -> bool:
    """Typestate scope: the simulated kernel, not the tooling."""
    inner = _strip(module, package)
    if inner is None or inner == "":
        return False
    return inner.split(".")[0] not in EXEMPT

