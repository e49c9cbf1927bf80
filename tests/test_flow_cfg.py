"""The CFG builder and forward solver behind the flow passes."""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.cfg import (
    ENTRY, EXC_EXIT, EXIT, build_cfg, iter_functions,
)
from repro.analysis.flow import solve_forward


def _cfg(source: str):
    tree = ast.parse(textwrap.dedent(source))
    funcs = [f for _, f in iter_functions(tree)]
    assert len(funcs) == 1
    return build_cfg(funcs[0])


def _stmt_nodes(cfg):
    return [n for n in cfg if n.nid != ENTRY and n.stmt is not None]


class TestBuilder:
    def test_linear_flow_reaches_exit(self):
        cfg = _cfg("""
            def f():
                a = 1
                b = 2
        """)
        nodes = _stmt_nodes(cfg)
        assert EXIT in nodes[-1].succ
        assert not any(n.may_raise for n in nodes)

    def test_call_gets_exception_edge(self):
        cfg = _cfg("""
            def f(x):
                g(x)
        """)
        (node,) = _stmt_nodes(cfg)
        assert node.may_raise
        assert EXC_EXIT in node.exc

    def test_subscript_store_is_safe_load_is_not(self):
        cfg = _cfg("""
            def f(d, k):
                d[k] = 1
                v = d[k]
        """)
        store, load = _stmt_nodes(cfg)
        assert not store.may_raise
        assert load.may_raise

    def test_lambda_bodies_raise_but_hold_no_calls(self):
        """A node's calls stop at a lambda (its body runs elsewhere);
        the raise heuristic still looks inside, as it always has."""
        cfg = _cfg("""
            def f(d, k):
                get = lambda: d[k]
                run(lambda: g(k), h(k))
        """)
        get, run = _stmt_nodes(cfg)
        assert get.may_raise and get.calls == ()
        assert [c.func.id for c in run.calls] == ["run", "h"]

    def test_if_both_branches_reach_exit(self):
        cfg = _cfg("""
            def f(c):
                if c:
                    a = 1
                else:
                    a = 2
        """)
        exits = [n for n in _stmt_nodes(cfg) if EXIT in n.succ]
        assert len(exits) == 2

    def test_catch_all_handler_intercepts_body_exceptions(self):
        cfg = _cfg("""
            def f(x):
                try:
                    g(x)
                except Exception:
                    raise
        """)
        call = next(n for n in _stmt_nodes(cfg)
                    if isinstance(n.stmt, ast.Expr))
        assert call.exc and EXC_EXIT not in call.exc

    def test_narrow_handler_keeps_escape_edge(self):
        cfg = _cfg("""
            def f(x):
                try:
                    g(x)
                except KeyError:
                    pass
        """)
        call = next(n for n in _stmt_nodes(cfg)
                    if isinstance(n.stmt, ast.Expr))
        assert EXC_EXIT in call.exc
        assert len(call.exc) == 2       # the handler too

    def test_finally_flows_to_exception_target(self):
        cfg = _cfg("""
            def f(x):
                try:
                    g(x)
                finally:
                    h()
        """)
        fin = next(n for n in _stmt_nodes(cfg)
                   if isinstance(n.stmt, ast.Expr)
                   and n.stmt.value.func.id == "h")
        assert EXC_EXIT in fin.succ     # conservative rethrow edge

    def test_loop_has_back_edge_and_zero_trip_exit(self):
        cfg = _cfg("""
            def f(xs):
                for x in xs:
                    use(x)
        """)
        header = next(n for n in _stmt_nodes(cfg)
                      if isinstance(n.stmt, ast.For))
        body = next(n for n in _stmt_nodes(cfg)
                    if isinstance(n.stmt, ast.Expr))
        assert header.nid in body.succ  # back edge
        assert EXIT in header.succ      # empty iterable

    def test_yield_nodes_flagged(self):
        cfg = _cfg("""
            def f():
                a = 1
                yield a
        """)
        assert cfg.yield_nodes
        nid = next(iter(cfg.yield_nodes))
        assert cfg.node(nid).has_yield

    def test_iter_functions_qualnames(self):
        tree = ast.parse(textwrap.dedent("""
            class C:
                def m(self):
                    def inner():
                        pass
            def top():
                pass
        """))
        names = [name for name, _ in iter_functions(tree)]
        assert names == ["C.m", "C.m.inner", "top"]


class TestSolver:
    def test_reaches_fixpoint_over_a_loop(self):
        cfg = _cfg("""
            def f(xs):
                seen = 0
                for x in xs:
                    seen = seen + x
                return seen
        """)

        def transfer(node, state):
            out = set(state)
            stmt = node.stmt
            if isinstance(stmt, ast.Assign):
                out |= {t.id for t in stmt.targets
                        if isinstance(t, ast.Name)}
            return out, out

        states = solve_forward(cfg, frozenset(),
                               lambda n, s: transfer(n, s),
                               lambda a, b: frozenset(a) | frozenset(b))
        assert "seen" in states[EXIT]
        assert states[ENTRY] == frozenset()

    def test_exception_states_reach_exc_exit(self):
        cfg = _cfg("""
            def f(x):
                a = 1
                g(a)
        """)
        states = solve_forward(
            cfg, 0,
            lambda n, s: (s + 1, s + 1),
            max)
        assert EXC_EXIT in states
