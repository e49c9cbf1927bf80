"""Error-path completeness: transient errors must meet retry policy.

PR 2's failure taxonomy (:mod:`repro.core.errors`) splits pager/disk
errors into *transient* (``PagerStallError``, ``DiskIOError`` — retry
with backoff) and *fatal* (crash/garbage/timeout — declare the pager
dead).  The kernel's single retry funnel is
``MachKernel._call_pager``; everything transient is supposed to flow
through it.  This pass checks the supposition:

* ``unhandled-transient`` — a call site of an operation that can
  raise a transient error (``data_request``/``data_write``/
  ``data_unlock``, ``read_block``/``write_block``,
  ``read_direct``/``write_direct``) in kernel code must be either

  - inside a lambda handed to ``_call_pager`` (the retry funnel),
  - inside a ``try`` whose handlers can catch the transient types, or
  - explicitly annotated ``#: no-retry <reason>`` on the call's line
    or in the comment block directly above it — the reviewed way to
    say "my caller retries";

* ``bare-except`` — an ``except:`` / ``except Exception`` in kernel
  paths that does **not** re-raise swallows the taxonomy whole (a
  fatal pager crash would be silently ignored); cleanup-then-``raise``
  handlers are fine.

Scope: the kernel-path packages ``core``, ``pager``, ``ipc``, ``fs``.
The fault-injection wrappers (``inject``) *produce* these errors and
are exempt, as are the analysis/bench/CLI layers.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional

from repro.analysis.cfg import is_thread_body, spawned_names
from repro.analysis.flow import Finding, iter_source_modules
from repro.analysis.layering import _strip

PASS_NAME = "errorpaths"

#: Part of the incremental-cache key: bump on any behavior change.
PASS_VERSION = "4"

#: Packages whose code counts as kernel paths.
SCOPE = ("core", "pager", "ipc", "fs")

#: Method names that can raise a transient error from the taxonomy.
TRANSIENT_OPS = frozenset({
    "data_request", "data_write", "data_unlock",
    "read_block", "write_block", "read_direct", "write_direct",
})

#: Exception names whose handler counts as catching transient errors.
CATCHERS = frozenset({
    "PagerStallError", "DiskIOError", "PagerError",
    "MemoryObjectError", "VMError", "IPCError",
    "Exception", "BaseException",
})

#: The annotation acknowledging an intentionally unprotected site.
ANNOTATION = "#: no-retry"


def _exc_name(expr: Optional[ast.AST]) -> list[str]:
    if expr is None:
        return ["<bare>"]
    if isinstance(expr, ast.Tuple):
        names: list[str] = []
        for elt in expr.elts:
            names += _exc_name(elt)
        return names
    if isinstance(expr, ast.Name):
        return [expr.id]
    if isinstance(expr, ast.Attribute):
        return [expr.attr]
    return []


def _catches_transient(handler: ast.ExceptHandler) -> bool:
    names = _exc_name(handler.type)
    return "<bare>" in names or any(n in CATCHERS for n in names)


def _reraises(body: list[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
    return False


def _call_tail(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _annotated(lines: list[str], lineno: int) -> bool:
    """True when the call line, or the contiguous comment block
    directly above it, carries the ``#: no-retry`` annotation."""
    if 1 <= lineno <= len(lines) and ANNOTATION in lines[lineno - 1]:
        return True
    ln = lineno - 1
    while 1 <= ln <= len(lines):
        stripped = lines[ln - 1].strip()
        if not stripped.startswith("#"):
            break
        if ANNOTATION in stripped:
            return True
        ln -= 1
    return False


class _ModuleChecker(ast.NodeVisitor):
    def __init__(self, module: str, source_lines: list[str],
                 spawned: frozenset[str], ctx=None) -> None:
        self.module = module
        self.lines = source_lines
        self.ctx = ctx            # typestate.AnalysisContext or None
        self.findings: list[Finding] = []
        self._protected = 0       # depth of try-with-catcher / funnel
        self._scope: list[str] = []
        self._thread_body: list[bool] = []
        self._spawned = spawned   # thread bodies named to .spawn()

    @property
    def _where(self) -> str:
        return ".".join(self._scope)

    # -- scope bookkeeping -------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scope.append(node.name)
        self._thread_body.append(is_thread_body(node, self._spawned))
        self.generic_visit(node)
        self._thread_body.pop()
        self._scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    # -- the two rules -----------------------------------------------------

    def visit_Try(self, node: ast.Try) -> None:
        protects = any(_catches_transient(h) for h in node.handlers)
        if protects:
            self._protected += 1
        for stmt in node.body + node.orelse:
            self.visit(stmt)
        if protects:
            self._protected -= 1
        for handler in node.handlers:
            names = _exc_name(handler.type)
            broad = ("<bare>" in names or "Exception" in names
                     or "BaseException" in names)
            if broad and not _reraises(handler.body):
                self.findings.append(Finding(
                    PASS_NAME, self.module, handler.lineno, "bare-except",
                    self._where,
                    "broad except swallows the whole failure taxonomy "
                    "(a fatal PagerCrashedError would vanish here); "
                    "catch the specific transient types, or re-raise "
                    "after cleanup"))
            self.visit(handler)
        for stmt in node.finalbody:
            self.visit(stmt)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        # The handler body is *outside* its own try's protection.
        for stmt in node.body:
            self.visit(stmt)

    def visit_Call(self, node: ast.Call) -> None:
        tail = _call_tail(node)
        if tail == "_call_pager":
            # Lambdas handed to the retry funnel are protected.
            self._protected += 1
            self.generic_visit(node)
            self._protected -= 1
            return
        if tail in TRANSIENT_OPS and self._protected == 0 \
                and not _annotated(self.lines, node.lineno):
            self.findings.append(Finding(
                PASS_NAME, self.module, node.lineno,
                "unhandled-transient", self._where,
                f"{tail}() can raise a transient PagerStallError/"
                f"DiskIOError but no retry/backoff handling encloses "
                f"it; route it through _call_pager, catch the "
                f"transient types, or annotate '#: no-retry <reason>' "
                f"if the caller retries"))
        elif tail not in TRANSIENT_OPS and self._protected == 0 \
                and self._thread_body and self._thread_body[-1] \
                and not _annotated(self.lines, node.lineno) \
                and self._callee_propagates(node):
            # The interprocedural half: the callee's summary says a
            # transient can escape it ('#: no-retry' somewhere inside
            # defers retrying to callers).  Propagating further is
            # fine in ordinary kernel code — the syscall boundary
            # surfaces errors to the simulated user like an errno —
            # but a *thread body* is where the scheduler's call chain
            # ends: a transient escaping here kills the thread with
            # nobody left to retry.
            self.findings.append(Finding(
                PASS_NAME, self.module, node.lineno,
                "unhandled-transient-propagated", self._where,
                f"{tail}() lets a transient PagerStallError/"
                f"DiskIOError escape and this is a thread body — the "
                f"end of the scheduler's call chain, so nothing above "
                f"will retry; catch the transient types here or "
                f"route the operation through _call_pager"))
        self.generic_visit(node)

    def _callee_propagates(self, call: ast.Call) -> bool:
        if self.ctx is None:
            return False
        info = self.ctx.caller_info(self.module, self._where)
        if info is None:
            return False
        return any(summary.propagates_transient
                   for _fid, summary in self.ctx.lookup(call, info))


def check_module(module: str, tree: ast.AST,
                 source_lines: list[str], ctx=None) -> list[Finding]:
    """Run the error-path rules over one parsed module.  With a
    :class:`repro.analysis.typestate.AnalysisContext`, calls to
    functions whose summaries propagate transients are checked too."""
    checker = _ModuleChecker(module, source_lines, spawned_names(tree),
                             ctx)
    checker.visit(tree)
    return checker.findings


def in_scope(module: str, package: str = "repro") -> bool:
    """Error paths apply to kernel-path packages only."""
    inner = _strip(module, package)
    return inner is not None and inner.split(".")[0] in SCOPE


def run_pass(root: Optional[Path] = None,
             package: str = "repro") -> list[Finding]:
    """Error-path-check every kernel-path module in the tree."""
    findings: list[Finding] = []
    for module, path, tree in iter_source_modules(root, package):
        if not in_scope(module, package):
            continue
        lines = path.read_text().splitlines()
        findings += check_module(module, tree, lines)
    return findings
