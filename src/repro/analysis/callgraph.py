"""AST-derived interprocedural call graph with effect summaries.

The four PR 6 flow passes are strictly intraprocedural: a helper that
frees a page its caller still touches, or a wrapper whose transient
error surfaces three frames up, is invisible to them.  This module
supplies the missing layer:

* :func:`build_callgraph` — index every function in the source tree
  (methods, nested defs) and resolve call sites to candidate callees
  by name, enclosing class, and a small receiver-hint table
  (``resident.free`` resolves to ``ResidentPageTable.free``, not to
  every ``free`` in the tree);
* :class:`Summary` — what one function does to its parameters: the
  protocol state each parameter definitely/possibly reaches by exit
  (``("page", "page:free")`` for a helper that frees its argument),
  which parameters escape into long-lived structures, what the return
  value freshly acquires, whether the function may yield the CPU, and
  whether it propagates transient pager/disk errors to its caller;
* :func:`compute_summaries` — run a per-function ``local`` analysis
  bottom-up over Tarjan SCCs of the call graph, iterating each SCC to
  a fixpoint so recursion (and mutual recursion) converges.

Consumers: :mod:`repro.analysis.typestate` supplies the ``local``
analysis and checks both of its rule groups (ownership pairing and the
protocols) with the results; :mod:`repro.analysis.errorpaths` and the
``atomicity`` pass in :mod:`repro.analysis.race` look summaries up at
call sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

__all__ = [
    "CallGraph", "FunctionInfo", "Summary", "build_callgraph",
    "compute_summaries", "join_summaries", "strongly_connected",
]

#: Receiver names that pin a method call to one class: ``x.resident.free``
#: can only be :class:`ResidentPageTable`'s ``free``.  Keeps common
#: method names from joining the summaries of every class in the tree.
RECEIVER_HINTS = {
    "resident": "ResidentPageTable",
    "objects": "VMObjectManager",
    "physmem": "PhysicalMemory",
    "scheduler": "Scheduler",
    "sched": "Scheduler",
}

#: Method names too generic to resolve by name alone — without a
#: receiver hint or a same-class match, calls to these stay unresolved
#: (conservative: no summary applied) rather than joining dozens of
#: unrelated candidates.
_AMBIENT_NAMES = frozenset({
    "run", "get", "read", "write", "close", "open", "start", "stop",
    "step", "next", "send", "pop", "push", "add", "append", "clear",
    "copy", "items", "keys", "values", "update", "remove",
})


def _attr_chain(expr: ast.AST) -> list[str]:
    """``self.vm.resident.allocate`` -> ["self", "vm", "resident",
    "allocate"]; [] when not a plain name/attribute chain."""
    parts: list[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
        return list(reversed(parts))
    return []


@dataclass
class FunctionInfo:
    """One function (or method) in the call graph."""

    fid: str                 # "module:Qual.name" — globally unique
    module: str              # dotted module
    qualname: str            # e.g. "ResidentPageTable.free"
    name: str                # terminal name, e.g. "free"
    cls: Optional[str]       # enclosing class name, None for plain defs
    func: ast.AST            # the FunctionDef / AsyncFunctionDef node
    params: tuple[str, ...]  # positional parameter names (incl. self)
    thread_body: bool = False  # preempts at ``yield`` (cfg.is_thread_body)

    @property
    def is_method(self) -> bool:
        return self.cls is not None


def _params_of(func: ast.AST) -> tuple[str, ...]:
    args = func.args
    names = [a.arg for a in list(args.posonlyargs) + list(args.args)]
    return tuple(names)


def _class_of(qualname: str, classes: frozenset[str]) -> Optional[str]:
    parts = qualname.split(".")
    if len(parts) >= 2 and parts[-2] in classes:
        return parts[-2]
    return None


class CallGraph:
    """Whole-tree function index + call-site resolution."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self._by_name: dict[str, list[str]] = {}
        self._by_class: dict[tuple[str, str], list[str]] = {}
        self._plain_by_name: dict[str, list[str]] = {}
        self._module_locals: dict[tuple[str, str], list[str]] = {}
        #: fid -> resolved callee fids (the edge set SCCs run over)
        self.edges: dict[str, set[str]] = {}

    # -- construction ------------------------------------------------------

    def _add(self, info: FunctionInfo) -> None:
        self.functions[info.fid] = info
        self._by_name.setdefault(info.name, []).append(info.fid)
        if info.cls is not None:
            self._by_class.setdefault((info.cls, info.name),
                                      []).append(info.fid)
        else:
            self._plain_by_name.setdefault(info.name, []).append(info.fid)
        self._module_locals.setdefault((info.module, info.name),
                                       []).append(info.fid)

    # -- resolution --------------------------------------------------------

    def resolve(self, call: ast.Call,
                caller: FunctionInfo) -> tuple[str, ...]:
        """Candidate callee fids for *call* made inside *caller*.

        Empty when the callee is unknown/external — callers must treat
        that conservatively (no summary effects), never as "no effect
        proven".
        """
        chain = _attr_chain(call.func)
        if not chain:
            return ()
        name = chain[-1]
        if name.startswith("__") and name.endswith("__"):
            return ()
        if len(chain) == 1:
            # Bare-name call: same-module functions first (the common
            # helper case), then plain functions anywhere (imports).
            local = [f for f in self._module_locals.get(
                (caller.module, name), ())]
            if local:
                return tuple(local)
            return tuple(self._plain_by_name.get(name, ()))
        receiver = chain[-2]
        if receiver == "self" and caller.cls is not None:
            own = self._by_class.get((caller.cls, name))
            if own:
                return tuple(own)
        hint = RECEIVER_HINTS.get(receiver)
        if hint is not None:
            return tuple(self._by_class.get((hint, name), ()))
        if name in _AMBIENT_NAMES:
            return ()
        # Unhinted method call: every method with that name.  must-
        # effects intersect across candidates, so breadth only ever
        # weakens conclusions, never fabricates them.
        return tuple(f for f in self._by_name.get(name, ())
                     if self.functions[f].is_method)

    def bind_args(self, fid: str, call: ast.Call,
                  receiver_var: Optional[str]) -> dict[str, str]:
        """Map callee parameter names -> caller variable names for the
        plain-``Name`` arguments of *call* (others stay unbound)."""
        info = self.functions[fid]
        params = info.params
        bound: dict[str, str] = {}
        offset = 0
        if info.is_method and params:
            if receiver_var is not None:
                bound[params[0]] = receiver_var
            offset = 1
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            if offset + i < len(params) and isinstance(arg, ast.Name):
                bound[params[offset + i]] = arg.id
        for kw in call.keywords:
            if kw.arg and kw.arg in params \
                    and isinstance(kw.value, ast.Name):
                bound[kw.arg] = kw.value.id
        return bound


def build_callgraph(modules: Iterable[tuple[str, ast.AST]]) -> CallGraph:
    """Index every function under *modules* (``(dotted name, tree)``
    pairs) and resolve each function's call sites to candidate fids."""
    from repro.analysis.cfg import is_thread_body, iter_functions, \
        spawned_names, walk

    graph = CallGraph()
    per_module: list[tuple[str, ast.AST]] = list(modules)
    for module, tree in per_module:
        classes = frozenset(n.name for n in walk(tree)
                            if isinstance(n, ast.ClassDef))
        spawned = spawned_names(tree)
        for qualname, func in iter_functions(tree):
            fid = f"{module}:{qualname}"
            graph._add(FunctionInfo(
                fid=fid, module=module, qualname=qualname,
                name=qualname.split(".")[-1],
                cls=_class_of(qualname, classes), func=func,
                params=_params_of(func),
                thread_body=is_thread_body(func, spawned)))
    for info in graph.functions.values():
        callees: set[str] = set()
        for node in walk(info.func):
            if isinstance(node, ast.Call):
                callees.update(graph.resolve(node, info))
        callees.discard(info.fid)
        graph.edges[info.fid] = callees
    return graph


# -- per-function summaries ------------------------------------------------

@dataclass(frozen=True)
class Summary:
    """Externally visible effects of one function.

    States are namespaced ``"<protocol>:<state>"`` strings from
    :mod:`repro.analysis.typestate` (e.g. ``"page:free"``); parameters
    are named, and call sites bind them back to caller variables with
    :meth:`CallGraph.bind_args`.
    """

    #: (param, state): the parameter reaches *state* on every normal
    #: exit — safe to act on at the call site (e.g. "helper freed it").
    must_exit: tuple[tuple[str, str], ...] = ()
    #: (param, state): reached on at least one exit path — call sites
    #: stop trusting the variable but must not report on it.
    may_exit: tuple[tuple[str, str], ...] = ()
    #: parameters stored into long-lived structures (ownership moved).
    escapes: tuple[str, ...] = ()
    #: ``"<protocol>:<state>"`` freshly acquired into the return value
    #: on every normal return (e.g. an allocate-wrapper).
    returns_acquired: tuple[str, ...] = ()
    #: can this function (transitively) yield the CPU / block?
    may_yield: bool = False
    #: does a transient pager/disk error escape to the caller (a
    #: ``#: no-retry`` site, or an unprotected call to a propagator)?
    propagates_transient: bool = False

    def must_exit_state(self, param: str) -> Optional[str]:
        for name, state in self.must_exit:
            if name == param:
                return state
        return None

    def may_exit_states(self, param: str) -> tuple[str, ...]:
        return tuple(s for name, s in self.may_exit if name == param)


EMPTY_SUMMARY = Summary()


def join_summaries(summaries: Iterable[Summary]) -> Summary:
    """Join candidate summaries at an ambiguous call site: must-facts
    intersect (only what *every* candidate guarantees), may-facts and
    escape/yield/transient bits union."""
    summaries = list(summaries)
    if not summaries:
        return EMPTY_SUMMARY
    if len(summaries) == 1:
        return summaries[0]
    must = set(summaries[0].must_exit)
    returns = set(summaries[0].returns_acquired)
    may: set[tuple[str, str]] = set()
    escapes: set[str] = set()
    may_yield = False
    propagates = False
    for s in summaries:
        must &= set(s.must_exit)
        returns &= set(s.returns_acquired)
        may |= set(s.may_exit)
        escapes |= set(s.escapes)
        may_yield |= s.may_yield
        propagates |= s.propagates_transient
    return Summary(
        must_exit=tuple(sorted(must)), may_exit=tuple(sorted(may)),
        escapes=tuple(sorted(escapes)),
        returns_acquired=tuple(sorted(returns)),
        may_yield=may_yield, propagates_transient=propagates)


# -- SCC condensation + bottom-up fixpoint ---------------------------------

def strongly_connected(edges: dict[str, set[str]]) -> list[list[str]]:
    """Iterative Tarjan.  SCCs come out callees-before-callers (reverse
    topological order of the condensation), which is exactly the order
    a bottom-up summary computation wants."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for root in edges:
        if root in index:
            continue
        work: list[tuple[str, Iterable]] = [(root, iter(sorted(edges[root])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in edges:
                    continue
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(edges[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
    return sccs


#: lookup(call, caller) -> [(fid, Summary-so-far), ...] for every
#: resolved candidate; empty when the callee is unknown/external.
SummaryLookup = Callable[[ast.Call, FunctionInfo],
                         list[tuple[str, Summary]]]

#: local(info, lookup) -> Summary for one function, given its callees'
#: summaries so far.
LocalAnalysis = Callable[[FunctionInfo, SummaryLookup], Summary]

#: Fixpoint bound per SCC.  Summaries live in a finite lattice (states
#: per parameter), so real convergence is fast; the bound only guards
#: against a non-monotone local analysis bug.
MAX_SCC_ROUNDS = 25


def compute_summaries(graph: CallGraph,
                      local: LocalAnalysis) -> dict[str, Summary]:
    """Run *local* bottom-up over the condensation; within each SCC,
    iterate to a fixpoint so recursive groups converge."""
    summaries: dict[str, Summary] = {}

    def lookup(call: ast.Call,
               caller: FunctionInfo) -> list[tuple[str, Summary]]:
        return [(f, summaries.get(f, EMPTY_SUMMARY))
                for f in graph.resolve(call, caller)]

    for scc in strongly_connected(graph.edges):
        if len(scc) == 1 and scc[0] not in graph.edges.get(scc[0], ()):
            # Non-recursive function: its callees are final already,
            # one local run is the fixpoint.
            fid = scc[0]
            summaries[fid] = local(graph.functions[fid], lookup)
            continue
        for _round in range(MAX_SCC_ROUNDS):
            changed = False
            for fid in scc:
                new = local(graph.functions[fid], lookup)
                if summaries.get(fid) != new:
                    summaries[fid] = new
                    changed = True
            if not changed:
                break
    return summaries
