"""MI-contract conformance verifiers: pmaps and pagers.

The paper's portability claim is a contract (Section 3.6, Tables 3-3
and 3-4): a port supplies one pmap module behind the machine-
independent interface, the pmap "may forget, but never lie", and every
mapping mutation must become visible to all TLBs.  This pass makes
that contract checkable *statically*: any new pmap (modern-MMU designs
are parked) is verified the moment it calls
:func:`repro.pmap.registry.register_pmap`.

The pager side (Section 3.3, Tables 3-1 and 3-2) has the same shape
since protocol v2: every pager registered through
:func:`repro.pager.registry.register_pager` is held to the v2 calling
convention (``data_request`` accepts the advisory readahead hint),
its :class:`~repro.pager.protocol.PagerCapabilities` declaration must
be honest (a declared hook must exist), and the live
:class:`~repro.pager.base.ExternalPagerAdapter` is exercised against
the protocol-ordering rules — data arriving before ``pager_init`` is
rejected, and every issued request id is eventually answered or
retired (no in-flight leak), with late echoes drained as stale.

Pmaps and pagers share one interface checker, run against
:class:`~repro.pmap.interface.Pmap` or
:class:`~repro.pager.protocol.PagerProtocol`:

* **complete method coverage** — the class subclasses the interface
  (rule ``not-a-pmap`` / ``not-a-pager``), is concrete (no abstract
  hook left unimplemented) and every contract method is callable
  (rule ``incomplete-interface`` / ``missing-method``);
* **signature compatibility** — overrides accept the interface's
  parameters, by name and position; a parameter the interface gives a
  default keeps one, and extra parameters must carry defaults, so call
  sites never have to know about them (rule ``signature-mismatch``; a
  v1 four-argument ``data_request`` is one, naming
  ``readahead_hint``).

For every registered pmap class the verifier also checks:

* **TLB invalidation** — an override of a mutating operation
  (``enter``/``remove``/``protect``/``forget``) must either delegate
  to ``super()`` (whose implementation shoots down) without passing a
  false literal for ``shoot``, or call ``shootdown`` itself; a pmap
  that mutates silently would *lie* (rule ``missing-invalidate``);
* **declared table shape** — a pmap that inherits the base class's
  table walk (``_hw_iter``) must declare ``TABLE_SPAN``, the bytes one
  of its second-level tables maps; without it the first range
  operation would fail at run time (rule ``missing-table-span``);
* **imports, out of tree only** — what a pmap module may import is
  decided by :func:`repro.analysis.layering.pmap_import_rule`, which
  the ``layering`` pass applies to every module of the ``repro`` tree.
  This pass applies it only to pmaps defined outside that tree (a
  port such as ``examples/port_to_new_mmu.py``), whose modules the
  lint never reads (rules ``pmap-imports-mi-state`` /
  ``pmap-imports-upper-layer``, one finding per import line and rule).

Unlike the other flow passes this one inspects *live classes* (via the
registry), so conformance follows inheritance exactly the way the
kernel will resolve it at boot.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
from pathlib import Path
from typing import Optional, Type

import repro
from repro.analysis.cfg import walk
from repro.analysis.flow import Finding, SourceTree, module_files
from repro.analysis.layering import (
    import_sites, one_per_line, pmap_import_rule,
)

PASS_NAME = "conformance"

#: Part of the incremental-cache key: bump on any behavior change.
PASS_VERSION = "5"

#: Methods every pmap must export (Table 3-3 + 3-4 + simulation hooks).
CONTRACT_METHODS = (
    "reference", "destroy",
    "enter", "enter_batch", "remove", "protect", "extract", "access",
    "activate", "deactivate",
    "copy", "pageable",
    "forget", "hw_lookup", "translate_fault_type",
)

#: The machine-dependent hooks the base class fans out to.
HW_HOOKS = ("_hw_enter", "_hw_remove", "_hw_protect", "_hw_lookup",
            "_hw_iter")

#: Mutating operations that must invalidate TLBs.
MUTATORS = ("enter", "enter_batch", "remove", "protect", "forget")


def _interface_class() -> type:
    from repro.pmap.interface import Pmap
    return Pmap


def _finding(cls: type, lineno: int, rule: str, message: str,
             where: str = "") -> Finding:
    module = getattr(cls, "__module__", "repro.pmap")
    return Finding(PASS_NAME, module, lineno, rule, where or cls.__name__,
                   message)


def _class_lineno(cls: type) -> int:
    try:
        _, lineno = inspect.getsourcelines(cls)
        return lineno
    except (OSError, TypeError):
        return 0


def _method_lineno(func) -> int:
    code = getattr(func, "__code__", None)
    return getattr(code, "co_firstlineno", 0)


def _check_subclass(kind: str, name: str, cls: Type,
                    base: type) -> list[Finding]:
    if isinstance(cls, type) and issubclass(cls, base):
        return []
    return [Finding(
        PASS_NAME, getattr(cls, "__module__", "?"), 0, f"not-a-{kind}",
        getattr(cls, "__name__", repr(cls)),
        f"registered {kind} {name!r} is not a {base.__name__} subclass")]


def _check_coverage(kind: str, name: str, cls: type, base: type,
                    methods: tuple[str, ...]) -> list[Finding]:
    findings: list[Finding] = []
    abstract = sorted(getattr(cls, "__abstractmethods__", ()))
    if abstract:
        findings.append(_finding(
            cls, _class_lineno(cls), "incomplete-interface",
            f"{kind} {name!r} ({cls.__name__}) is abstract: implement "
            f"{', '.join(abstract)} (see {base.__module__}."
            f"{base.__name__})"))
    for method in methods:
        if not callable(getattr(cls, method, None)):
            findings.append(_finding(
                cls, _class_lineno(cls), "missing-method",
                f"{kind} {name!r} ({cls.__name__}) does not provide "
                f"{method}(); every registered {kind} must export the "
                f"full {base.__name__} interface"))
    return findings


def _check_signatures(kind: str, name: str, cls: type, base: type,
                      methods: tuple[str, ...]) -> list[Finding]:
    findings: list[Finding] = []
    for method in methods:
        impl = getattr(cls, method, None)
        ref = getattr(base, method, None)
        if impl is None or ref is None or impl is ref:
            continue
        try:
            want = list(inspect.signature(ref).parameters.values())
            have = list(inspect.signature(impl).parameters.values())
        except (ValueError, TypeError):      # C-level / exotic callables
            continue
        if any(p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD) for p in have):
            continue                         # *args/**kwargs accepts all
        problems: list[str] = []
        for idx, wp in enumerate(want):
            if idx >= len(have):
                problems.append(f"missing parameter {wp.name!r}")
            elif have[idx].name != wp.name:
                problems.append(
                    f"parameter {idx} is {have[idx].name!r}, interface "
                    f"says {wp.name!r}")
            elif wp.default is not wp.empty \
                    and have[idx].default is have[idx].empty:
                problems.append(
                    f"parameter {wp.name!r} has no default, but the "
                    f"interface gives it one — call sites may omit it")
        for extra in have[len(want):]:
            if extra.default is extra.empty:
                problems.append(
                    f"extra parameter {extra.name!r} has no default — "
                    f"MI call sites cannot supply it")
        if problems:
            findings.append(_finding(
                cls, _method_lineno(impl), "signature-mismatch",
                f"{kind} {name!r}: {cls.__name__}.{method}"
                f"{inspect.signature(impl)} does not match the "
                f"interface {base.__name__}.{method}"
                f"{inspect.signature(ref)}: " + "; ".join(problems),
                where=f"{cls.__name__}.{method}"))
    return findings


def _method_ast(func) -> Optional[ast.FunctionDef]:
    try:
        source = textwrap.dedent(inspect.getsource(func))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError):
        return None
    for node in walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
    return None


def _passes_no_shoot(call: ast.Call, shoot_at: Optional[int]) -> bool:
    """Does *call* pass a false literal for ``shoot`` (positional index
    *shoot_at*, ``None`` when the method has no such parameter), by
    keyword or by position?"""
    if shoot_at is None:
        return False
    values = [kw.value for kw in call.keywords if kw.arg == "shoot"]
    values += call.args[shoot_at:shoot_at + 1]
    return any(isinstance(v, ast.Constant) and not v.value for v in values)


def _invalidates(func_ast: ast.AST, method: str,
                 shoot_at: Optional[int]) -> bool:
    """Does the method body call super().<method>(...) (which shoots
    down, unless told ``shoot=False``) or a .shootdown(...) itself?"""
    for node in walk(func_ast):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "shootdown":
                return True
            if func.attr == method and isinstance(func.value, ast.Call) \
                    and isinstance(func.value.func, ast.Name) \
                    and func.value.func.id == "super" \
                    and not _passes_no_shoot(node, shoot_at):
                return True
    return False


def _check_invalidation(name: str, cls: type, base: type) -> list[Finding]:
    findings: list[Finding] = []
    for method in MUTATORS:
        impl = getattr(cls, method, None)
        ref = getattr(base, method, None)
        if impl is None or ref is None or impl is ref:
            continue
        func_ast = _method_ast(impl)
        if func_ast is None:      # no source (REPL / exec); cannot judge
            continue
        params = list(inspect.signature(ref).parameters)[1:]
        shoot_at = params.index("shoot") if "shoot" in params else None
        if not _invalidates(func_ast, method, shoot_at):
            findings.append(_finding(
                cls, _method_lineno(impl), "missing-invalidate",
                f"pmap {name!r}: {cls.__name__}.{method}() mutates "
                f"mappings without delegating to super().{method}() or "
                f"calling shootdown(); stale TLB entries would survive "
                f"on other CPUs — the pmap may forget, but never lie",
                where=f"{cls.__name__}.{method}"))
    return findings


def _check_table_span(name: str, cls: type, base: type) -> list[Finding]:
    if getattr(cls, "_hw_iter", None) is not base._hw_iter:
        return []
    span = getattr(cls, "TABLE_SPAN", None)
    if isinstance(span, int) and span > 0:
        return []
    return [_finding(
        cls, _class_lineno(cls), "missing-table-span",
        f"pmap {name!r} ({cls.__name__}) inherits the base _hw_iter "
        f"table walk but declares no TABLE_SPAN (got {span!r}); set it "
        f"to the bytes one second-level table in self._tables maps, or "
        f"override _hw_iter")]


def _defining_file(cls: type) -> Optional[str]:
    """The source file of *cls*'s module: its ``__file__``, or where
    the class's own functions were compiled when the module was loaded
    straight from a path and never entered ``sys.modules``."""
    path = getattr(sys.modules.get(cls.__module__), "__file__", None)
    if path:
        return path
    for value in vars(cls).values():
        code = getattr(value, "__code__", None)
        if code is not None:
            return code.co_filename
    return None


def _check_out_of_tree_imports(cls: type) -> list[Finding]:
    """:func:`~repro.analysis.layering.pmap_import_rule` over the
    module defining *cls*, when that module lies outside the ``repro``
    package (whose modules the ``layering`` pass already checks).
    Only the class's own module: base classes are checked where they
    are defined."""
    module = cls.__module__
    if module == "repro" or module.startswith("repro."):
        return []
    path = _defining_file(cls)
    if path is None:          # no source (REPL / exec); cannot judge
        return []
    try:
        tree = ast.parse(Path(path).read_bytes(), filename=path)
    except (OSError, SyntaxError):
        return []
    known = set(module_files(Path(repro.__file__).resolve().parent,
                             "repro"))
    findings: list[Finding] = []
    for site in import_sites(tree, module, False, known):
        broken = pmap_import_rule(site.target)
        if broken:
            findings.append(_finding(cls, site.lineno, *broken))
    return one_per_line(findings)


def verify_pmap_class(name: str, cls: Type) -> list[Finding]:
    """Check one pmap class against the MI contract; returns findings
    (empty when conformant)."""
    base = _interface_class()
    wrong = _check_subclass("pmap", name, cls, base)
    if wrong:
        return wrong
    methods = CONTRACT_METHODS + HW_HOOKS
    return (_check_coverage("pmap", name, cls, base, methods)
            + _check_signatures("pmap", name, cls, base, methods)
            + _check_invalidation(name, cls, base)
            + _check_table_span(name, cls, base)
            + _check_out_of_tree_imports(cls))


def verify_pmap_conformance(registry: Optional[dict] = None
                            ) -> list[Finding]:
    """Check every registered pmap (the live registry by default)."""
    if registry is None:
        from repro.pmap.registry import registered_pmaps
        registry = registered_pmaps()
    findings: list[Finding] = []
    for name in sorted(registry):
        findings += verify_pmap_class(name, registry[name])
    return findings


# ---------------------------------------------------------------------------
# The pager side: Table 3-1/3-2 protocol v2 conformance
# ---------------------------------------------------------------------------

#: Methods every pager must export (the v2 calling convention).
PAGER_CONTRACT_METHODS = ("data_request", "data_write", "name")


def _pager_interface_class() -> type:
    from repro.pager.protocol import PagerProtocol
    return PagerProtocol


def _check_pager_capabilities(name: str, cls: type) -> list[Finding]:
    """A declared capability is a promise the kernel dispatches on: a
    pager whose declaration names a hook it does not implement *lies*,
    the pager-side equivalent of a pmap mutating without a shootdown."""
    from repro.pager.protocol import CAPABILITY_HOOKS, PagerCapabilities
    caps = getattr(cls, "capabilities", None)
    if not isinstance(caps, PagerCapabilities):
        # Instance-level declaration (e.g. a transfer_size known only
        # at construction): nothing class-level to hold honest.
        return []
    findings: list[Finding] = []
    for hook in sorted(CAPABILITY_HOOKS):
        if getattr(caps, hook) and not callable(getattr(cls, hook, None)):
            findings.append(_finding(
                cls, _class_lineno(cls), "phantom-capability",
                f"pager {name!r} ({cls.__name__}) declares capability "
                f"{hook!r} but provides no {hook}() — capabilities "
                f"are promises the kernel dispatches on, not hints",
                where=f"{cls.__name__}.{hook}"))
    return findings


def verify_pager_class(name: str, cls: Type) -> list[Finding]:
    """Check one registered pager class against the protocol-v2
    contract; returns findings (empty when conformant)."""
    base = _pager_interface_class()
    wrong = _check_subclass("pager", name, cls, base)
    if wrong:
        return wrong
    return (_check_coverage("pager", name, cls, base,
                            PAGER_CONTRACT_METHODS)
            + _check_signatures("pager", name, cls, base,
                                PAGER_CONTRACT_METHODS)
            + _check_pager_capabilities(name, cls))


class _ProbeObject:
    """Stand-in memory object for the live adapter ordering checks."""

    def __init__(self, object_id: int) -> None:
        self.object_id = object_id
        self.can_persist = False


def _check_adapter_ordering() -> list[Finding]:
    """Exercise a live ExternalPagerAdapter against the protocol
    ordering rules nothing static can see: reply-before-init rejection
    and every-request-eventually-answered (issued ids never leak;
    retired ids drain late echoes as stale)."""
    from repro.core.errors import PagerTimeoutError
    from repro.pager.base import ExternalPager, ExternalPagerAdapter

    def finding(rule: str, message: str) -> Finding:
        return Finding(PASS_NAME, ExternalPagerAdapter.__module__,
                       _class_lineno(ExternalPagerAdapter), rule,
                       "ExternalPagerAdapter", message)

    findings: list[Finding] = []

    class _Mute(ExternalPager):
        def pager_data_request(self, kernel_if, paging_object, offset,
                               length, desired_access) -> None:
            pass

    class _Echo(ExternalPager):
        def pager_data_request(self, kernel_if, paging_object, offset,
                               length, desired_access) -> None:
            kernel_if.pager_data_provided(offset, b"\0" * length)

    # (1) Reply before any pager_init: must be rejected, not buffered.
    adapter = ExternalPagerAdapter(_Mute())
    adapter.kernel_if.pager_data_provided(0, b"\0" * 16, request_id=0)
    adapter._pump()
    if adapter.rejected_before_init == 0 or adapter._provided:
        findings.append(finding(
            "reply-order",
            "adapter accepted pager_data_provided before pager_init "
            "bound any object; data must not be installable for an "
            "uninitialized memory object"))

    # (2) An answered request retires its id and leaves nothing in
    # flight.
    adapter = ExternalPagerAdapter(_Echo())
    obj = _ProbeObject(1)
    adapter.pager_init(obj)
    page = adapter._page_size()
    adapter.data_request(obj, 0, page, 1)
    if adapter._inflight or not adapter._retired:
        findings.append(finding(
            "request-leak",
            f"after an answered data_request the adapter still tracks "
            f"{len(adapter._inflight)} in-flight id(s) "
            f"({len(adapter._retired)} retired); every request must "
            f"eventually be answered and retired"))

    # (3) An unanswered request times out, retires its id, and a late
    # echo of that id is drained as stale rather than installed.
    adapter = ExternalPagerAdapter(_Mute())
    obj = _ProbeObject(2)
    adapter.pager_init(obj)
    try:
        adapter.data_request(obj, 0, page, 1)
    except PagerTimeoutError:
        pass
    else:
        findings.append(finding(
            "request-leak",
            "a pager that never answers must surface PagerTimeoutError "
            "(the every-request-eventually-answered guarantee), not "
            "return silently"))
    if adapter._inflight:
        findings.append(finding(
            "request-leak",
            "a timed-out data_request left its id in flight; timeouts "
            "must retire the id so late replies drain as stale"))
    late = sorted(adapter._retired)
    if late:
        adapter.kernel_if.pager_data_provided(0, b"\0" * page,
                                              request_id=late[-1])
        adapter._pump()
        if adapter.stale_replies == 0 or adapter._provided:
            findings.append(finding(
                "reply-order",
                "a reply echoing a retired request id was installed; "
                "retired ids must drain as stale replies"))
    return findings


def verify_pager_conformance(registry: Optional[dict] = None
                             ) -> list[Finding]:
    """Check every registered pager (the live registry by default),
    plus the live adapter ordering probes."""
    if registry is None:
        from repro.pager.registry import registered_pagers
        registry = registered_pagers()
    findings: list[Finding] = []
    for name in sorted(registry):
        findings += verify_pager_class(name, registry[name])
    findings += _check_adapter_ordering()
    return findings


def run_pass(source: Optional[SourceTree] = None) -> list[Finding]:
    """Flow-pass entry point.  Conformance follows the *live*
    registries (inheritance resolved exactly as the kernel will at
    boot), so it reads nothing of the runner's *source*: the ``repro``
    tree's imports are the ``layering`` pass's."""
    return verify_pmap_conformance() + verify_pager_conformance()
