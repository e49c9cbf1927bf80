"""Determinism lint: kernel code must not consult the real world.

Every sweep, race schedule, and fault-injection run replays from a
seed (one ``random.Random(seed)`` in the injector, virtual time on
the machine clock).  A single wall-clock read or unseeded random draw
in kernel code silently breaks replay — results stop being a function
of the seed.  This pass forbids, in simulation code:

* ``wall-clock`` — ``time.time``/``monotonic``/``perf_counter``/
  ``sleep`` and friends (simulated time lives on ``machine.clock``),
  ``datetime.now``/``utcnow``/``today``;
* ``unseeded-random`` — any ``random``-module call except
  constructing a seeded ``random.Random(seed)`` generator;
* ``nondeterministic-source`` — ``os.urandom``, ``uuid.uuid1``/
  ``uuid4``, and any ``secrets`` import.

Scope: all of ``repro`` except the layers that *report on* runs
rather than participate in them — ``cli``, ``analysis``, and
``viz``.  ``bench`` is in scope: its tables and storms report
simulated time only (host wall-clock is measured by ``perf/``).
"""

from __future__ import annotations

import ast

from repro.analysis.cfg import NodeVisitor
from repro.analysis.flow import Finding
from repro.analysis.layering import _strip

PASS_NAME = "determinism"

#: Part of the incremental-cache key: bump on any behavior change.
PASS_VERSION = "2"

#: Top-level repro subpackages outside the replayed simulation.
EXEMPT = ("cli", "analysis", "viz", "__main__")

WALL_CLOCK_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time",
    "process_time_ns", "sleep",
})
DATETIME_FNS = frozenset({"now", "utcnow", "today"})
RANDOM_OK = frozenset({"Random", "SystemRandom"})  # SystemRandom caught
UUID_BAD = frozenset({"uuid1", "uuid4"})


def _chain(expr: ast.AST) -> list[str]:
    parts: list[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
    return list(reversed(parts))


class _ModuleChecker(NodeVisitor):
    def __init__(self, module: str) -> None:
        self.module = module
        self.findings: list[Finding] = []
        self._scope: list[str] = []

    def _report(self, lineno: int, rule: str, message: str) -> None:
        self.findings.append(Finding(
            PASS_NAME, self.module, lineno, rule,
            ".".join(self._scope), message))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "secrets" or \
                    alias.name.startswith("secrets."):
                self._report(
                    node.lineno, "nondeterministic-source",
                    "importing 'secrets' in simulation code; replay "
                    "seeds cannot reproduce OS entropy")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        for alias in node.names:
            if mod == "time" and alias.name in WALL_CLOCK_FNS:
                self._report(
                    node.lineno, "wall-clock",
                    f"'from time import {alias.name}' in simulation "
                    f"code; use the machine clock "
                    f"(machine.clock.charge/wait) so time replays")
            elif mod == "random" and alias.name not in RANDOM_OK:
                self._report(
                    node.lineno, "unseeded-random",
                    f"'from random import {alias.name}' draws from the "
                    f"shared unseeded generator; construct a "
                    f"random.Random(seed) instead")
            elif mod == "random" and alias.name == "SystemRandom":
                self._report(
                    node.lineno, "nondeterministic-source",
                    "SystemRandom reads OS entropy; replay is "
                    "impossible — use random.Random(seed)")
            elif mod == "secrets":
                self._report(
                    node.lineno, "nondeterministic-source",
                    "importing from 'secrets' in simulation code; "
                    "replay seeds cannot reproduce OS entropy")

    def visit_Call(self, node: ast.Call) -> None:
        chain = _chain(node.func)
        if len(chain) >= 2:
            root, tail = chain[0], chain[-1]
            if root == "time" and tail in WALL_CLOCK_FNS:
                self._report(
                    node.lineno, "wall-clock",
                    f"time.{tail}() reads the host's clock; simulated "
                    f"time lives on machine.clock — wall time breaks "
                    f"replay and makes runs machine-dependent")
            elif root in ("datetime", "date") and tail in DATETIME_FNS:
                self._report(
                    node.lineno, "wall-clock",
                    f"{'.'.join(chain)}() reads the host's clock; "
                    f"wall time breaks replay")
            elif root == "random":
                if tail == "SystemRandom":
                    self._report(
                        node.lineno, "nondeterministic-source",
                        "random.SystemRandom() reads OS entropy; use "
                        "random.Random(seed)")
                elif tail not in RANDOM_OK:
                    self._report(
                        node.lineno, "unseeded-random",
                        f"random.{tail}() draws from the shared "
                        f"unseeded generator; every replay diverges — "
                        f"use a random.Random(seed) instance")
            elif root == "os" and tail == "urandom":
                self._report(
                    node.lineno, "nondeterministic-source",
                    "os.urandom() is OS entropy; replay seeds cannot "
                    "reproduce it")
            elif root == "uuid" and tail in UUID_BAD:
                self._report(
                    node.lineno, "nondeterministic-source",
                    f"uuid.{tail}() is time/entropy-derived and breaks "
                    f"replay; derive ids from a counter or the seed")
        self.generic_visit(node)


def check_module(module: str, tree: ast.AST) -> list[Finding]:
    """Run the determinism rules over one parsed module."""
    checker = _ModuleChecker(module)
    checker.visit(tree)
    return checker.findings


def in_scope(module: str, package: str = "repro") -> bool:
    """Determinism applies to the replayed simulation modules."""
    inner = _strip(module, package)
    if inner is None or inner == "":
        return False
    return inner.split(".")[0] not in EXEMPT

