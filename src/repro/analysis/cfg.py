"""Statement-level control-flow graphs for the dataflow passes.

The flow passes (:mod:`repro.analysis.typestate` and friends) need to
reason about *paths* — "the slot popped on line 49 never reaches the
free list on the exception path" — which a flat AST walk cannot do.
This module turns one Python function body into a small CFG:

* one node per statement (compound statements contribute a *header*
  node carrying only the parts evaluated before the branch: the
  ``if``/``while`` test, the ``for`` iterable, the ``with`` items);
* **normal edges** follow sequential execution, branches, loops,
  ``break``/``continue``/``return``;
* **exception edges** leave any statement that may raise (calls,
  subscripts, ``raise``, ``assert``, attribute access is deliberately
  not counted) and run to the innermost ``except`` handlers — or to
  the synthetic :data:`EXC_EXIT` node when no handler encloses it;
* ``try``/``finally`` is handled conservatively: the ``finally`` suite
  is reachable from both the normal and the exceptional exits of the
  protected suite, and flows on to both the next statement and the
  enclosing exception target;
* nodes whose header contains ``yield``/``yield from``/``await`` are
  flagged (``has_yield``), so passes can treat them as preemption
  points in thread bodies.

It also holds the one yield model every pass shares: which functions
are thread bodies (:func:`is_thread_body`) and which calls are yield
primitives (:func:`is_yield_primitive`).

It also owns the analyzer's one child iteration (:func:`children`,
:func:`walk`, :func:`walk_no_lambda`): each node's child tuple is
computed once per parse and kept on the node, so the many passes over
one tree share one index.

Two synthetic nodes terminate every CFG: :data:`EXIT` (normal return
or fall-off-the-end) and :data:`EXC_EXIT` (an exception escaping the
function).  Dataflow states joined into those nodes describe what is
true when the function returns, respectively when it unwinds.

The builder is deliberately conservative, never exact: a spurious edge
costs a false path (handled by the passes' lattices), a missing edge
would cost a missed bug.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional

#: Synthetic node id: normal function exit (return / end of body).
EXIT = -1
#: Synthetic node id: an exception propagating out of the function.
EXC_EXIT = -2
#: Synthetic node id: function entry (always present, never a statement).
ENTRY = 0


@dataclass
class CFGNode:
    """One statement (or statement header) in the graph."""

    nid: int
    #: The AST statement this node represents (None for ENTRY).
    stmt: Optional[ast.stmt]
    #: The sub-expressions evaluated *at* this node.  For compound
    #: statements this is the header only (test / iterable / items);
    #: body statements get their own nodes.
    exprs: tuple[ast.AST, ...] = ()
    #: Normal-flow successor node ids.
    succ: set[int] = field(default_factory=set)
    #: Exceptional successor node ids (taken when this node raises).
    exc: set[int] = field(default_factory=set)
    #: True when the header contains yield / yield from / await.
    has_yield: bool = False
    #: True when this node may raise (and therefore has live exc edges).
    may_raise: bool = False
    #: The calls evaluated at this node, in :func:`walk_no_lambda`
    #: order (lambda and nested-def bodies excluded).
    calls: tuple[ast.Call, ...] = ()

    @property
    def lineno(self) -> int:
        return getattr(self.stmt, "lineno", 0)


class CFG:
    """Control-flow graph of a single function body."""

    def __init__(self, func: ast.AST) -> None:
        self.func = func
        self.nodes: dict[int, CFGNode] = {}
        self.yield_nodes: set[int] = set()

    def node(self, nid: int) -> CFGNode:
        return self.nodes[nid]

    def __iter__(self) -> Iterator[CFGNode]:
        return iter(self.nodes.values())


# -- the one walker ---------------------------------------------------------
#
# Every child iteration in the analyzer goes through :func:`children`.
# A node's child tuple is built on first use and kept on the node, so
# it lives exactly as long as the parsed tree it indexes: one run.
# ``expr_context`` nodes (Load/Store/Del) are skipped, since no pass
# asks about them.  Leaves store nothing: CPython shares one instance
# of each operator node across every tree, so a cache on one would
# outlive the run.

_LEAVES = frozenset(
    [ast.Name, ast.Constant, ast.Pass, ast.Break, ast.Continue,
     ast.Global, ast.Nonlocal, ast.alias]
    + [cls for base in (ast.operator, ast.unaryop, ast.cmpop, ast.boolop,
                        ast.expr_context)
       for cls in base.__subclasses__()])

#: Nodes whose bodies do not execute where they are written.
_NESTED = (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)


def children(node: ast.AST) -> tuple[ast.AST, ...]:
    """*node*'s child nodes in ``ast.iter_child_nodes`` order, without
    ``expr_context`` nodes; built once per node."""
    if type(node) in _LEAVES:
        return ()
    try:
        return node._repro_children
    except AttributeError:
        kids = node._repro_children = tuple(
            child for child in ast.iter_child_nodes(node)
            if not isinstance(child, ast.expr_context))
        return kids


def walk(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` (same breadth-first order) over :func:`children`."""
    todo = deque([node])
    while todo:
        cur = todo.popleft()
        todo.extend(children(cur))
        yield cur


class NodeVisitor(ast.NodeVisitor):
    """``ast.NodeVisitor`` whose default descent is :func:`children`
    (so ``expr_context`` nodes are never visited)."""

    def generic_visit(self, node: ast.AST) -> None:
        for child in children(node):
            self.visit(child)


def walk_no_lambda(node: ast.AST) -> Iterator[ast.AST]:
    """:func:`walk`, depth-first, that does not descend into lambdas or
    nested defs: their bodies do not execute where they are written."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        for child in children(cur):
            if not isinstance(child, _NESTED):
                stack.append(child)


# -- raising / yield heuristics ------------------------------------------

_YIELDING = (ast.Yield, ast.YieldFrom, ast.Await)


def _scan(stmt: Optional[ast.AST], exprs: tuple[ast.AST, ...]
          ) -> tuple[tuple[ast.Call, ...], bool, bool]:
    """(calls, may raise, has yield) for one node, in one walk.

    Calls are collected outside nested lambdas/defs only, in
    :func:`walk_no_lambda` order.  The raise and yield heuristics also
    look inside nested lambdas.  Calls raise, and so do subscript loads
    (KeyError/IndexError); subscript stores (dict insert) are treated
    as safe.  Attribute access is deliberately not counted."""
    calls: list[ast.Call] = []
    nested: list[ast.AST] = []
    may_raise = isinstance(stmt, (ast.Raise, ast.Assert))
    has_yield = False
    for expr in exprs:
        stack = [expr]
        while stack:
            cur = stack.pop()
            if isinstance(cur, ast.Call):
                calls.append(cur)
                may_raise = True
            elif isinstance(cur, _YIELDING):
                has_yield = True
            elif isinstance(cur, ast.Subscript) \
                    and isinstance(cur.ctx, ast.Load):
                may_raise = True
            for child in children(cur):
                (nested if isinstance(child, _NESTED)
                 else stack).append(child)
    for root in nested:
        for sub in walk(root):
            if isinstance(sub, _YIELDING):
                has_yield = True
            elif isinstance(sub, ast.Call) or (
                    isinstance(sub, ast.Subscript)
                    and isinstance(sub.ctx, ast.Load)):
                may_raise = True
    return tuple(calls), may_raise, has_yield


# -- the one yield model ---------------------------------------------------
#
# Every pass that asks "may this yield the CPU?" answers with these
# rules.  A *thread body* preempts at each ``yield``; an ordinary
# generator's yields are iteration.  A *yield primitive* is a call that
# can block the running thread wherever it appears.  Whether a call
# *reaches* a primitive is the call-graph summaries' ``may_yield``.

#: Entering the fault handler can block the faulting thread on a pager
#: round trip, so calls into it are preemption points: both lanes, the
#: trap entry, and the kernel's ``fault_resolver`` seam (an attribute
#: call no call graph can resolve to its target).
FAULT_ENTRY = frozenset({"vm_fault", "vm_fault_batch", "fault_resolver",
                         "resolve_task_fault"})
#: ThreadContext methods: they run on the thread's CPU and may fault.
CTX_METHODS = frozenset({"read", "write", "rmw"})


def ctx_params(func: ast.AST) -> frozenset[str]:
    """Parameters through which *func* receives a ThreadContext: named
    ``ctx`` or annotated ``ThreadContext``."""
    names = set()
    args = func.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        ann = arg.annotation
        if arg.arg == "ctx" \
                or (isinstance(ann, ast.Name) and ann.id == "ThreadContext") \
                or (isinstance(ann, ast.Attribute)
                    and ann.attr == "ThreadContext") \
                or (isinstance(ann, ast.Constant)
                    and ann.value == "ThreadContext"):
            names.add(arg.arg)
    return frozenset(names)


def spawned_names(tree: ast.AST) -> frozenset[str]:
    """Names passed to ``<scheduler>.spawn(...)`` anywhere in *tree*."""
    return frozenset(
        arg.id for node in walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "spawn"
        for arg in node.args + [kw.value for kw in node.keywords]
        if isinstance(arg, ast.Name))


def is_thread_body(func: ast.AST, spawned: frozenset[str]) -> bool:
    """A scheduler thread body: it takes a ThreadContext, or its module
    hands it to ``.spawn(...)`` by name (*spawned*)."""
    return bool(ctx_params(func)) or func.name in spawned


def ctx_method(call: ast.Call, ctx_names: frozenset[str]) -> Optional[str]:
    """``m`` for a ``<ctx>.m(...)`` call on a ThreadContext parameter."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id in ctx_names:
        return func.attr
    return None


def is_yield_primitive(call: ast.Call, ctx_names: frozenset[str]) -> bool:
    """A fault entry, or ``read``/``write``/``rmw`` on a ctx parameter."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) \
        else getattr(func, "id", None)
    return name in FAULT_ENTRY or ctx_method(call, ctx_names) in CTX_METHODS


def _header_exprs(stmt: ast.stmt) -> tuple[ast.AST, ...]:
    """Sub-expressions evaluated at the statement's own node."""
    if isinstance(stmt, (ast.If, ast.While)):
        return (stmt.test,)
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return (stmt.target, stmt.iter)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return tuple(stmt.items)
    if isinstance(stmt, ast.Try):
        return ()
    if isinstance(stmt, getattr(ast, "Match", ())):
        return (stmt.subject,)
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        # Nested definitions are analyzed separately; only the
        # decorators run here.
        return tuple(stmt.decorator_list)
    return (stmt,)


@dataclass
class _Ctx:
    """Targets for non-local control flow at the current nesting."""

    #: Node ids exceptions flow to (handler headers and/or EXC_EXIT).
    exc: frozenset[int]
    #: Where `break` goes (collector set, filled by the loop builder).
    break_to: Optional[set[int]] = None
    #: Node id `continue` jumps to (the loop header).
    continue_to: Optional[int] = None


class _Builder:
    def __init__(self, func: ast.AST) -> None:
        self.cfg = CFG(func)
        self._next = 1
        entry = CFGNode(ENTRY, None)
        self.cfg.nodes[ENTRY] = entry

    def _new(self, stmt: ast.stmt) -> CFGNode:
        exprs = _header_exprs(stmt)
        node = CFGNode(self._next, stmt, exprs)
        node.calls, node.may_raise, node.has_yield = _scan(stmt, exprs)
        self._next += 1
        self.cfg.nodes[node.nid] = node
        if node.has_yield:
            self.cfg.yield_nodes.add(node.nid)
        return node

    def _link(self, frontier: set[int], nid: int) -> None:
        for prev in frontier:
            self.cfg.nodes[prev].succ.add(nid)

    def build(self) -> CFG:
        body = getattr(self.cfg.func, "body", [])
        ctx = _Ctx(exc=frozenset({EXC_EXIT}))
        frontier = self._suite(body, {ENTRY}, ctx)
        for nid in frontier:
            self.cfg.nodes[nid].succ.add(EXIT)
        return self.cfg

    # -- statement dispatch ----------------------------------------------

    def _suite(self, stmts: list[ast.stmt], frontier: set[int],
               ctx: _Ctx) -> set[int]:
        for stmt in stmts:
            frontier = self._stmt(stmt, frontier, ctx)
            if not frontier:      # unreachable rest of suite
                break
        return frontier

    def _stmt(self, stmt: ast.stmt, frontier: set[int],
              ctx: _Ctx) -> set[int]:
        node = self._new(stmt)
        self._link(frontier, node.nid)
        if node.may_raise:
            node.exc |= ctx.exc

        if isinstance(stmt, ast.Return):
            node.succ.add(EXIT)
            return set()
        if isinstance(stmt, ast.Raise):
            node.succ |= ctx.exc
            return set()
        if isinstance(stmt, ast.Break):
            if ctx.break_to is not None:
                ctx.break_to.add(node.nid)
            return set()
        if isinstance(stmt, ast.Continue):
            if ctx.continue_to is not None:
                node.succ.add(ctx.continue_to)
            return set()
        if isinstance(stmt, ast.If):
            then_out = self._suite(stmt.body, {node.nid}, ctx)
            else_out = self._suite(stmt.orelse, {node.nid}, ctx) \
                if stmt.orelse else {node.nid}
            return then_out | else_out
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            after: set[int] = set()
            loop_ctx = _Ctx(exc=ctx.exc, break_to=after,
                            continue_to=node.nid)
            body_out = self._suite(stmt.body, {node.nid}, loop_ctx)
            self._link(body_out, node.nid)        # back edge
            # Loop may run zero times (While test false / For empty).
            exits = {node.nid} | after
            if stmt.orelse:
                exits = self._suite(stmt.orelse, {node.nid}, ctx) | after
            return exits
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._suite(stmt.body, {node.nid}, ctx)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, node, ctx)
        match_cls = getattr(ast, "Match", None)
        if match_cls is not None and isinstance(stmt, match_cls):
            outs: set[int] = {node.nid}       # no case may match
            for case in stmt.cases:
                outs |= self._suite(case.body, {node.nid}, ctx)
            return outs
        # Simple statement (incl. nested def/class): straight-line.
        return {node.nid}

    def _try(self, stmt: ast.Try, node: CFGNode, ctx: _Ctx) -> set[int]:
        # Handler header nodes are created first so the protected
        # suite's exception edges can point at them.
        handler_nodes = []
        for handler in stmt.handlers:
            hnode = CFGNode(self._next, handler,
                            (handler.type,) if handler.type else ())
            # A handler header carries its calls; its exception edges
            # come from the protected suite, not from its own test.
            hnode.calls = _scan(None, hnode.exprs)[0]
            self._next += 1
            self.cfg.nodes[hnode.nid] = hnode
            handler_nodes.append(hnode)

        # An exception in the body may match a handler or escape (none
        # that matches — we cannot tell).  A catch-all handler (bare
        # `except:` / `except Exception` / `except BaseException`)
        # intercepts everything, so the escape edge is dropped: without
        # this, every try/cleanup/re-raise pattern would look like a
        # path that skips its own cleanup.
        def _catch_all(handler: ast.ExceptHandler) -> bool:
            if handler.type is None:
                return True
            return (isinstance(handler.type, ast.Name)
                    and handler.type.id in ("Exception", "BaseException"))

        inner_exc = frozenset({h.nid for h in handler_nodes})
        if not any(_catch_all(h) for h in stmt.handlers):
            inner_exc |= ctx.exc
        body_ctx = _Ctx(exc=inner_exc, break_to=ctx.break_to,
                        continue_to=ctx.continue_to)
        body_out = self._suite(stmt.body, {node.nid}, body_ctx)

        outs: set[int] = set()
        if stmt.orelse:
            outs |= self._suite(stmt.orelse, body_out, ctx)
        else:
            outs |= body_out
        for handler, hnode in zip(stmt.handlers, handler_nodes):
            outs |= self._suite(handler.body, {hnode.nid}, ctx)

        if stmt.finalbody:
            # Conservative: the finally suite sees every exit —
            # normal, handled, and unwinding — and flows on to both
            # the next statement and the enclosing exception target.
            fin_in = outs | {h.nid for h in handler_nodes} | {node.nid}
            fin_out = self._suite(stmt.finalbody, fin_in, ctx)
            for nid in fin_out:
                self.cfg.nodes[nid].succ |= ctx.exc
            return fin_out
        return outs


def build_cfg(func: ast.AST) -> CFG:
    """Build the control-flow graph of one function definition."""
    return _Builder(func).build()


def iter_functions(tree: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    """Yield ``(dotted qualname, FunctionDef)`` for every function in
    *tree*, including methods and nested functions.  Expressions hold
    no statements, so the search never enters one."""

    def visit(node: ast.AST, prefix: str
              ) -> Iterator[tuple[str, ast.AST]]:
        for child in children(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                yield name, child
                yield from visit(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            elif not isinstance(child, ast.expr):
                yield from visit(child, prefix)

    yield from visit(tree, "")
