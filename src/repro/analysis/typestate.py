"""Ownership and typestate: one interprocedural engine, two rule groups.

The paper's machine-independent layer works because the kernel owns
pages, object references and map entries under strict rules: a page
cycles free→active→inactive→laundering→free and is never touched once
freed; a ``vm_object`` reference is dead after ``deallocate``; a swap
slot popped off a free list goes back on it or into the store; an
unlinked map entry must not re-enter map structure operations; and a
pmap mutated with ``remove(..., shoot=False)`` owes a TLB shootdown
before the next yield.

Each resource kind is a :class:`ProtocolSpec` row: states,
transitions, violations, and the states in which a resource acquired
in the function is still owed a release.  One engine, with one fact
type, one join and one transfer function, runs each function's CFG
through :func:`repro.analysis.flow.solve_forward`, applying protocol
*operations* classified from call sites.  Resolved calls apply the
callee's :class:`~repro.analysis.callgraph.Summary` (computed
bottom-up over SCCs by
:func:`~repro.analysis.callgraph.compute_summaries`), so a violation
split across calls — a helper that frees a page its caller still
touches — is still caught.  Paths that disagree join to an unknown
state, which is never reported; only a resource still owed on one path
survives a one-sided join, so a conditional acquire can still leak.

One check-mode solve per function reports two rule groups, each under
its own flow pass name and scope:

``lifecycle`` (the whole package) — acquire/release pairing:

* ``leak-on-exception-path`` — a free-pool slot, busy resident page,
  vm_object reference, holding map or port acquired here is still owed
  when an exception can unwind the function;
* ``leak-on-return`` — a free-pool slot still owed at a normal exit
  (long-lived kinds routinely outlive their creating function);
* ``double-release`` — a slot, a wiring or a holder released twice.

``typestate`` (the simulated kernel, not the tooling), each rule with
a known-bad fixture in ``tests/data/flow_fixtures/``:

* ``page-use-after-free`` / ``page-double-free`` /
  ``page-free-while-wired``;
* ``object-use-after-deallocate`` / ``object-double-deallocate``;
* ``entry-use-after-unlink`` — a structure op on, or a write to, an
  unlinked entry (teardown *reads* stay legal);
* ``shootdown-before-yield`` — a TLB-dirty pmap (directly or via a
  callee that always exits dirty) crossing a yield point before the
  covering ``system.shootdown(...)`` / ``system.update()``.

Ownership ends where a resource is handed off: stored into an
attribute, subscript or container, passed to a constructor or to
``allocate(vm_object=...)``, returned, yielded or aliased.  A plain
call argument is a *borrow* (what catches a holding map dropped when
``copy_region`` raises mid-send).
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

#: The two rule groups, each reported under its flow pass name.
LIFECYCLE, TYPESTATE = "lifecycle", "typestate"

#: Rules reported under the lifecycle pass; every other is typestate's.
LIFECYCLE_RULES = frozenset({"leak-on-exception-path", "leak-on-return",
                             "double-release"})

#: Bumped when the engine changes: part of both groups' cache keys, so
#: a new rule invalidates stale cached results.
PASS_VERSION = "4"

#: Top-level repro subpackages outside the simulated kernel, which the
#: typestate group skips: protocol ops never originate there, and
#: analysis tooling talking *about* pages must not be held to the page
#: protocol.  Lifecycle pairing applies to the whole package.
EXEMPT = ("analysis", "bench", "cli", "viz", "__main__")

TOP = "<top>"


# -- declarative protocol specs --------------------------------------------

@dataclass(frozen=True)
class ProtocolSpec:
    """One resource kind: states, transitions, and what counts as a
    crime.

    ``track_on`` starts tracking an untracked variable when an op hits
    it (``resident.free(p)`` proves ``p`` is a page, now ``free``);
    ``transitions`` move tracked state; ``violations`` map ``(op,
    state)`` to a reported rule; any other ``(op, state)`` pair
    degrades to unknown, which is never reported.  ``op_for_state``
    translates a callee's must-exit state back into the op applied at
    the call site, so interprocedural effects run through the same
    violation tables as direct calls.  ``held`` names the states in
    which a resource acquired in the function is still owed a release
    or hand-off; ``leak_on_return`` judges normal exits too.
    """

    name: str
    kind: str                                  # resource kind, as reported
    track_on: dict = field(default_factory=dict)
    transitions: dict = field(default_factory=dict)
    violations: dict = field(default_factory=dict)
    dead_states: frozenset = frozenset()
    use_rule: tuple = ()                       # (rule, message)
    use_writes_only: bool = False
    op_for_state: dict = field(default_factory=dict)
    yield_hazard: tuple = ()                   # (state, rule, message)
    held: frozenset = frozenset()
    leak_on_return: bool = False


_UAF = ("page-use-after-free",
        "page {var!r} was freed on line {line} and is used here; a "
        "freed page belongs to the free pool and may be reallocated "
        "under you")

_DOUBLE_RELEASE = ("double-release",
                   "{var!r} ({kind}) released again; already released "
                   "on line {line}")

#: Page states a queue op may move on from: fresh (busy), queued, or
#: with this function's wiring dropped (unwired).
_PAGE_MOVABLE = ("busy", "active", "inactive", "unwired")

PAGE_PROTOCOL = ProtocolSpec(
    name="page", kind="resident-page",
    track_on={"page-free": "free", "page-wire": "wired",
              "page-activate": "active", "page-deactivate": "inactive",
              "page-unwire": "unwired"},
    transitions={
        **{("page-activate", st): "active" for st in _PAGE_MOVABLE},
        **{("page-deactivate", st): "inactive" for st in _PAGE_MOVABLE},
        **{("page-wire", st): "wired"
           for st in _PAGE_MOVABLE + ("wired",)},
        **{("page-free", st): "free" for st in _PAGE_MOVABLE},
        ("page-unwire", "wired"): "unwired",
    },
    violations={
        ("page-free", "free"): (
            "page-double-free",
            "page {var!r} freed again; already freed on line {line}"),
        ("page-free", "wired"): (
            "page-free-while-wired",
            "page {var!r} wired on line {line} is freed here without "
            "an unwire; ResidentPageTable.free refuses wired pages"),
        ("page-unwire", "unwired"): _DOUBLE_RELEASE,
        ("page-activate", "free"): _UAF,
        ("page-deactivate", "free"): _UAF,
        ("page-wire", "free"): _UAF,
        ("page-unwire", "free"): _UAF,
        ("page-touch", "free"): _UAF,
    },
    dead_states=frozenset({"free"}),
    use_rule=_UAF,
    op_for_state={"free": "page-free", "active": "page-activate",
                  "inactive": "page-deactivate", "wired": "page-wire",
                  "unwired": "page-unwire"},
    # Off every queue until activated, wired or freed: an exception in
    # that window strands the frame.
    held=frozenset({"busy"}),
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
    held=frozenset({"live"}),
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

SLOT_PROTOCOL = ProtocolSpec(
    name="slot", kind="free-pool-slot",
    track_on={"slot-release": "released"},
    transitions={("slot-release", "held"): "released"},
    violations={("slot-release", "released"): _DOUBLE_RELEASE},
    op_for_state={"released": "slot-release"},
    held=frozenset({"held"}), leak_on_return=True,
)


def _holder(name: str, kind: str, track: bool = False) -> ProtocolSpec:
    """A resource released by its own ``destroy()``; *track* starts
    tracking an untracked name on a destroy (two are a double release)."""
    return ProtocolSpec(
        name=name, kind=kind,
        track_on={"destroy": "destroyed"} if track else {},
        transitions={("destroy", "held"): "destroyed"},
        violations={("destroy", "destroyed"): _DOUBLE_RELEASE},
        op_for_state={"destroyed": "destroy"},
        held=frozenset({"held"}))


PROTOCOLS: dict[str, ProtocolSpec] = {
    spec.name: spec for spec in (
        PAGE_PROTOCOL, OBJECT_PROTOCOL, ENTRY_PROTOCOL, PMAP_PROTOCOL,
        SLOT_PROTOCOL, _holder("map", "holding-map"),
        _holder("port", "port-right"),
        _holder("destroyable", "destroyable", track=True))
}

#: spec name -> every op the spec knows; any other op degrades a fact
#: of that spec to unknown.
_KNOWN_OPS = {
    spec.name: frozenset(spec.track_on)
    | {op for op, _state in list(spec.transitions) + list(spec.violations)}
    for spec in PROTOCOLS.values()
}

#: op name -> the spec an untracked variable starts under when hit
_TRACKED_BY = {op: spec for spec in PROTOCOLS.values()
               for op in spec.track_on}


# -- op classification ------------------------------------------------------

#: ``x.resident.<op>(page)`` — the resident page table's queue ops.
_PAGE_OPS = {"free": "page-free", "activate": "page-activate",
             "deactivate": "page-deactivate", "wire": "page-wire",
             "unwire": "page-unwire", "insert": "page-touch",
             "remove": "page-touch", "rename": "page-touch"}

#: Method names that store their arguments somewhere (ownership moves).
_ESCAPING_METHODS = {"append", "add", "insert", "setdefault", "put",
                     "push", "register", "extend", "appendleft"}

#: ``x = Name(...)`` constructions whose result is an owned resource.
_CONSTRUCTED = {"AddressMap": ("map", "held"), "Port": ("port", "held"),
                "VMObject": ("vmobject", "live")}


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


def _name_args(call: ast.Call) -> list[str]:
    return [a.id for a in call.args if isinstance(a, ast.Name)] + \
        [kw.value.id for kw in call.keywords
         if isinstance(kw.value, ast.Name)]


def classify_call(call: ast.Call,
                  cls: Optional[str]) -> tuple[list[_Op], list[str]]:
    """``(ops, handed)`` for one call: the protocol ops it applies
    directly to named local variables, and the names whose ownership
    it takes."""
    chain = _attr_chain(call.func)
    if not chain:
        return [], []
    if len(chain) == 1:
        # Constructors take ownership of what they are handed.
        return [], _name_args(call) if chain[0][:1].isupper() else []
    tail, recv = chain[-1], chain[-2]
    line = call.lineno
    args = call.args
    arg0 = args[0].id if args and isinstance(args[0], ast.Name) else None
    if tail == "append" and recv == "_free":
        return ([_Op("slot-release", arg0, line)] if arg0 else []), []
    ops: list[_Op] = []
    if recv == "resident" and tail in _PAGE_OPS and arg0:
        ops.append(_Op(_PAGE_OPS[tail], arg0, line))
    elif tail == "free_slot" and arg0:
        ops.append(_Op("slot-release", arg0, line))
    elif tail == "deallocate" and len(args) == 1 and arg0 \
            and (recv == "objects"
                 or (recv == "self" and cls == "VMObjectManager")):
        ops.append(_Op("obj-deallocate", arg0, line))
    elif _referenced(call) is not None:
        ops.append(_Op("obj-reference", chain[0], line))
    elif tail == "destroy" and not args and len(chain) == 2:
        # Bare-name receiver only: ``region.holding.destroy()``
        # releases an attribute, not a local.
        ops.append(_Op("destroy", chain[0], line))
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
    if tail in _ESCAPING_METHODS:
        return ops, _name_args(call)
    if tail == "allocate":
        # ``map.allocate(vm_object=obj)`` stores the object into the
        # new map entry: the caller's reference moves with it.
        return ops, [kw.value.id for kw in call.keywords
                     if kw.arg == "vm_object"
                     and isinstance(kw.value, ast.Name)]
    return ops, []


def classify_acquire(value: ast.AST,
                     cls: Optional[str]) -> Optional[tuple[str, str]]:
    """``(protocol, state)`` freshly acquired by an assignment RHS."""
    if not isinstance(value, ast.Call):
        return None
    chain = _attr_chain(value.func)
    if len(chain) < 2:
        return _CONSTRUCTED.get(chain[0]) if chain else None
    tail, recv = chain[-1], chain[-2]
    if tail == "pop" and recv == "_free":
        return ("slot", "held")
    if tail == "allocate" and recv == "resident":
        return ("page", "busy")
    if tail in ("create_internal", "create_for_pager", "shadow") \
            and (recv == "objects"
                 or (recv == "self" and cls == "VMObjectManager")):
        return ("vmobject", "live")
    return None


def _referenced(value: ast.AST) -> Optional[str]:
    """``obj`` when *value* is ``obj.reference()``.  As a whole
    statement it leaves the new reference in the function's hands (a
    nested ``f(x=obj.reference())`` hands it to ``f``)."""
    if isinstance(value, ast.Call) and not value.args:
        chain = _attr_chain(value.func)
        if len(chain) == 2 and chain[1] == "reference" \
                and chain[0] != "self":
            return chain[0]
    return None


def _names_under(expr: ast.AST) -> list[str]:
    return [n.id for n in walk_no_lambda(expr)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]


def _stored(stmt: Optional[ast.stmt]) -> list[str]:
    """Names a statement stores into an attribute or subscript."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
            and isinstance(stmt.targets[0], (ast.Attribute, ast.Subscript)):
        return _names_under(stmt.value)
    return []


def _passed_on(node: CFGNode) -> list[str]:
    """Names whose value a statement passes on without storing it:
    handed to a callee that has no name (a call result, a subscript),
    returned, yielded, or assigned to another name."""
    names = [a.id for call in node.calls if not _attr_chain(call.func)
             for a in call.args if isinstance(a, ast.Name)]
    stmt = node.stmt
    if isinstance(stmt, ast.Return) and stmt.value is not None:
        names += _names_under(stmt.value)
    elif isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, (ast.Yield, ast.YieldFrom, ast.Await)):
        names += _names_under(stmt.value)
    elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
            and isinstance(stmt.targets[0], ast.Name) \
            and isinstance(stmt.value, ast.Name):
        names.append(stmt.value.id)
    return names


# -- dataflow facts ----------------------------------------------------------

@dataclass(frozen=True)
class _Fact:
    proto: str       # protocol name
    state: str       # concrete state or TOP
    line: int        # line that established the current state
    acquired: bool = False   # freshly acquired in this function
    owned: bool = False      # taken by the acquire table, not handed off

    @property
    def owed(self) -> bool:
        """Owned and still in a state that needs a release."""
        return self.owned and self.state in PROTOCOLS[self.proto].held


_State = dict    # var -> _Fact; copied on write


def _join(a: _State, b: _State) -> _State:
    if a == b:
        return a
    out: _State = dict(a)
    # Untracked on one path means the state is unknown there, not
    # absent: a page freed on one branch only must join to unknown
    # (never reported), not stay "free".  A resource still owed on one
    # path stays owed: a conditional acquire can still leak.
    for var, mine in a.items():
        if var not in b and mine.state != TOP and not mine.owed:
            out[var] = _Fact(mine.proto, TOP, mine.line)
    for var, fact in b.items():
        mine = out.get(var)
        if mine is None:
            out[var] = fact if fact.state == TOP or fact.owed \
                else _Fact(fact.proto, TOP, fact.line)
        elif mine != fact:
            if mine.proto == fact.proto and mine.state == fact.state:
                out[var] = _Fact(mine.proto, mine.state,
                                 min(mine.line, fact.line),
                                 mine.acquired and fact.acquired,
                                 mine.owned and fact.owned)
            else:
                out[var] = _Fact(mine.proto, TOP,
                                 min(mine.line, fact.line))
    return out


# -- the engine: one function, summary mode or check mode -------------------

class _FunctionEngine:
    """The one transfer function over one function's CFG.

    In *check mode* (``run_check``) it emits findings of both rule
    groups — but only during a final sweep over fixpoint states, never
    from the intermediate states the solver passes through.  In
    *summary mode* (``run_summary``) it harvests parameter exit
    states, escapes, and may-yield for the bottom-up fixpoint.
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

    def _report(self, rule: str, var: str, line: int,
                message: str) -> None:
        if not self._reporting:
            return
        group = LIFECYCLE if rule in LIFECYCLE_RULES else TYPESTATE
        self.findings.setdefault((rule, line, var), Finding(
            group, self.module, line, rule, self.qualname, message))

    # -- op application ------------------------------------------------------

    def _apply_op(self, state: _State, op: _Op) -> _State:
        if op.op == "pmap-shoot-all":
            out = dict(state)
            for var, fact in state.items():
                if fact.proto == "pmap" and fact.state == "dirty":
                    out[var] = _Fact("pmap", "clean", op.line)
            return out
        fact = state.get(op.var)
        if fact is None:
            spec = _TRACKED_BY.get(op.op)
            if spec is None:
                return state
            out = dict(state)
            out[op.var] = _Fact(spec.name, spec.track_on[op.op], op.line)
            return out
        spec = PROTOCOLS[fact.proto]
        if fact.state == TOP or op.op not in _KNOWN_OPS[spec.name]:
            # Another protocol claims this name, or paths disagree:
            # degrade quietly rather than invent a violation.
            out = dict(state)
            out[op.var] = _Fact(fact.proto, TOP, fact.line)
            return out
        crime = spec.violations.get((op.op, fact.state))
        if crime is not None:
            rule, template = crime
            self._report(rule, op.var, op.line, template.format(
                var=op.var, line=fact.line, kind=spec.kind))
            return state
        nxt = spec.transitions.get((op.op, fact.state))
        out = dict(state)
        if nxt is not None:
            out[op.var] = _Fact(spec.name, nxt, op.line, fact.acquired,
                                fact.owned)
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
        handed = _stored(node.stmt)

        for call in node.calls:
            direct, taken = classify_call(call, self._cls)
            handed += taken
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

        # Hand-offs end ownership on both out-states: the statement may
        # raise after the store, so a leak is never invented.  Only
        # stores are parameter escapes for the summary; a value passed
        # on any other way still belongs to someone in reach.
        self.escaped.update(handed)
        for var in handed + _passed_on(node):
            fact = after.get(var)
            if fact is not None and fact.owned:
                after[var] = _Fact(fact.proto, fact.state, fact.line,
                                   fact.acquired)

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
                    # The acquire table's own results are owned here; a
                    # callee's fresh return is tracked, not judged.
                    proto, st, owned = acq
                    out[target.id] = _Fact(proto, st, stmt.lineno,
                                           acquired=True, owned=owned)
                else:
                    out.pop(target.id, None)
            elif isinstance(target, (ast.Tuple, ast.List)):
                out = dict(state)
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        out.pop(elt.id, None)
        elif isinstance(stmt, ast.Expr):
            var = _referenced(stmt.value)
            fact = state.get(var) if var is not None else None
            if fact is not None and fact.proto == "vmobject" \
                    and fact.state == "live":
                out = dict(state)
                out[var] = _Fact("vmobject", "live", stmt.lineno,
                                 fact.acquired, owned=True)
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
        return out

    def _acquire_of(self, value: ast.AST
                    ) -> Optional[tuple[str, str, bool]]:
        """``(protocol, state, owned)`` freshly acquired by *value*:
        owned when the acquire table names it, not when a callee's
        summary says it returns a fresh resource."""
        acq = classify_acquire(value, self._cls)
        if acq is not None:
            return (*acq, True)
        if isinstance(value, ast.Call) and self.info is not None:
            pairs = self.lookup(value, self.info)
            if pairs:
                kinds = set(pairs[0][1].returns_acquired)
                for _fid, summary in pairs[1:]:
                    kinds &= set(summary.returns_acquired)
                if len(kinds) == 1:
                    proto, _, st = next(iter(kinds)).partition(":")
                    if proto in PROTOCOLS:
                        return (proto, st, False)
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
                self._report(rule, sub.value.id, node.lineno,
                             template.format(var=sub.value.id,
                                             line=fact.line))

    def _check_yield_hazard(self, node: CFGNode, state: _State) -> None:
        if not self._reporting:
            return
        for var, fact in sorted(state.items()):
            spec = PROTOCOLS[fact.proto]
            if not spec.yield_hazard or fact.state == TOP:
                continue
            hazard_state, rule, template = spec.yield_hazard
            if fact.state == hazard_state:
                self._report(rule, var, node.lineno,
                             template.format(var=var, line=fact.line))

    def _check_leaks(self, state: _State, via_line: int,
                     exceptional: bool) -> None:
        for var, fact in sorted(state.items()):
            spec = PROTOCOLS[fact.proto]
            if not fact.owed or not (exceptional or spec.leak_on_return):
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
            # Keyed on the acquisition, not the exit edge: one finding
            # per leaked acquire, at its most actionable line.
            self._report(rule, var, fact.line,
                         f"{spec.kind} {var!r} acquired here is never "
                         f"released or handed off: {how}")

    # -- drivers ---------------------------------------------------------------

    def _replay(self, reporting: bool):
        """Solve, then replay each reachable node's transfer:
        ``(node, normal out, exceptional out)``.  Findings come only
        from the replay, never from intermediate solver states."""
        cfg = build_cfg(self.func)
        states = solve_forward(cfg, {}, self._transfer, _join)
        self._reporting = reporting
        for node in cfg:
            if node.nid in states:
                yield (node, *self._transfer(node, states[node.nid]))
        self._reporting = False

    def run_check(self) -> list[Finding]:
        # Leaks are judged per exit *edge*, not on the joined exit
        # state: joining a leaking path with a clean one would hide it.
        for node, out_n, out_e in self._replay(reporting=True):
            if EXC_EXIT in node.exc:
                self._check_leaks(out_e, node.lineno, exceptional=True)
            if EXC_EXIT in node.succ:         # raise / finally rethrow
                self._check_leaks(out_n, node.lineno, exceptional=True)
            if EXIT in node.succ:
                self._check_leaks(out_n, node.lineno, exceptional=False)
        return sorted(self.findings.values(),
                      key=lambda f: (f.lineno, f.rule))

    def run_summary(self, propagates: bool) -> Summary:
        params = set(self.info.params if self.info is not None else ())
        must: Optional[set[tuple[str, str]]] = None
        may: set[tuple[str, str]] = set()
        returns: Optional[set[str]] = None
        for node, out_n, out_e in self._replay(reporting=False):
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
        # A fact acquired here is a rebound local, not the caller's
        # argument.
        return {(var, f"{fact.proto}:{fact.state}")
                for var, fact in state.items()
                if var in params and fact.state != TOP
                and not fact.acquired}

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
    #: module -> its findings of both rule groups: the two groups'
    #: passes read one engine run per module (:func:`check_group`).
    checked: dict[str, list[Finding]] = field(default_factory=dict)

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


# -- the two passes -------------------------------------------------------

def check_module(module: str, tree: ast.AST,
                 ctx: Optional[AnalysisContext] = None) -> list[Finding]:
    """Run the engine over one module: one check-mode solve per
    function, reporting both rule groups.  Without *ctx*, a
    module-local context is built, so helper/caller pairs inside the
    module are still checked interprocedurally (what the fixtures
    exercise)."""
    if ctx is None:
        ctx = build_context([(module, tree, None)])
    findings: list[Finding] = []
    for qualname, func in iter_functions(tree):
        info = ctx.caller_info(module, qualname)
        engine = _FunctionEngine(module, qualname, func, info,
                                 ctx.graph, ctx.lookup)
        findings += engine.run_check()
    return findings


def check_group(group: str, module: str, tree: ast.AST,
                ctx: AnalysisContext) -> list[Finding]:
    """*group*'s findings in *module*.  The first group asked runs the
    engine; the other reads its findings from *ctx*."""
    found = ctx.checked.get(module)
    if found is None:
        found = ctx.checked[module] = check_module(module, tree, ctx)
    return [f for f in found if f.pass_name == group]


def in_scope(module: str, package: str = "repro",
             group: str = TYPESTATE) -> bool:
    """Does *group* check *module*?  Lifecycle pairing covers the whole
    package; the typestate rules cover the simulated kernel, not the
    tooling."""
    if group == LIFECYCLE:
        return True
    inner = _strip(module, package)
    if inner is None or inner == "":
        return False
    return inner.split(".")[0] not in EXEMPT
