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

For every registered pmap class the verifier checks:

* **complete method coverage** — the class is concrete (no abstract
  ``_hw_*`` hook left unimplemented) and every Table 3-3/3-4 method is
  callable (rule ``incomplete-interface`` / ``missing-method``);
* **signature compatibility** — overrides accept the interface's
  parameters, by name and position; extra parameters must carry
  defaults so MI call sites never have to know about them (rule
  ``signature-mismatch``);
* **TLB invalidation** — an override of a mutating operation
  (``enter``/``remove``/``protect``/``forget``) must either delegate
  to ``super()`` (whose implementation shoots down) or call
  ``shootdown`` itself; a pmap that mutates silently would *lie*
  (rule ``missing-invalidate``);
* **declared table shape** — a pmap that inherits the base class's
  table walk (``_hw_iter``) must declare ``TABLE_SPAN``, the bytes one
  of its second-level tables maps; without it the first range
  operation would fail at run time (rule ``missing-table-span``);
* **no reach-around imports** — the defining module must not import
  machine-independent state (``repro.core.*`` beyond the shared
  vocabulary, the pager, or IPC); all VM information a pmap needs
  arrives through the interface (rule ``reach-around-import``).

Unlike the other flow passes this one inspects *live classes* (via the
registry), so conformance follows inheritance exactly the way the
kernel will resolve it at boot.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from pathlib import Path
from typing import Optional, Type

from repro.analysis.cfg import walk
from repro.analysis.flow import Finding, SourceTree

PASS_NAME = "conformance"

#: Part of the incremental-cache key: bump on any behavior change.
PASS_VERSION = "3"

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

#: repro.core submodules a pmap module may import: the shared
#: vocabulary only (mirrors the layering lint's VOCABULARY).
ALLOWED_CORE = ("repro.core.constants", "repro.core.errors")

#: MI packages a pmap module must never reach into.
FORBIDDEN_PREFIXES = ("repro.core", "repro.pager", "repro.ipc",
                      "repro.unix", "repro.fs")


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


def _check_coverage(name: str, cls: type) -> list[Finding]:
    findings: list[Finding] = []
    abstract = sorted(getattr(cls, "__abstractmethods__", ()))
    if abstract:
        findings.append(_finding(
            cls, _class_lineno(cls), "incomplete-interface",
            f"pmap {name!r} ({cls.__name__}) is abstract: implement "
            f"{', '.join(abstract)} (see the _hw_* hooks in "
            f"repro.pmap.interface.Pmap)"))
    for method in CONTRACT_METHODS + HW_HOOKS:
        if not callable(getattr(cls, method, None)):
            findings.append(_finding(
                cls, _class_lineno(cls), "missing-method",
                f"pmap {name!r} ({cls.__name__}) does not provide "
                f"{method}(); every registered pmap must export the "
                f"full Table 3-3/3-4 interface"))
    return findings


def _check_signatures(name: str, cls: type, base: type) -> list[Finding]:
    findings: list[Finding] = []
    for method in CONTRACT_METHODS + HW_HOOKS:
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
                continue
            if have[idx].name != wp.name:
                problems.append(
                    f"parameter {idx} is {have[idx].name!r}, interface "
                    f"says {wp.name!r}")
        for extra in have[len(want):]:
            if extra.default is extra.empty:
                problems.append(
                    f"extra parameter {extra.name!r} has no default — "
                    f"MI call sites cannot supply it")
        if problems:
            findings.append(_finding(
                cls, _method_lineno(impl), "signature-mismatch",
                f"pmap {name!r}: {cls.__name__}.{method}"
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


def _invalidates(func_ast: ast.AST, method: str) -> bool:
    """Does the method body call super().<method>(...) (which shoots
    down) or a .shootdown(...) itself?"""
    for node in walk(func_ast):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "shootdown":
                return True
            if func.attr == method and isinstance(func.value, ast.Call) \
                    and isinstance(func.value.func, ast.Name) \
                    and func.value.func.id == "super":
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
        if not _invalidates(func_ast, method):
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


def _module_imports(module_name: str, source: Optional[SourceTree]
                    ) -> list[tuple[str, int]]:
    import importlib.util
    spec = importlib.util.find_spec(module_name)
    if spec is None or spec.origin is None:
        return []
    origin = Path(spec.origin).resolve()
    try:
        # The run's SourceTree already read (and maybe parsed) the
        # module's file when it holds it.
        if source is not None \
                and source.files.get(module_name, (None,))[0] == str(origin):
            tree = source.parse(module_name)
        else:
            tree = ast.parse(origin.read_text())
    except (OSError, SyntaxError):
        return []
    out: list[tuple[str, int]] = []
    for node in walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            for alias in node.names:
                out.append((f"{node.module}.{alias.name}", node.lineno))
                out.append((node.module, node.lineno))
    return out


def _check_imports(name: str, cls: type,
                   source: Optional[SourceTree]) -> list[Finding]:
    # Only the class's own defining module: base classes are verified
    # when their own registration is checked, avoiding duplicates.
    findings: list[Finding] = []
    module_name = getattr(cls, "__module__", "")
    if not module_name:
        return findings
    seen: set[str] = set()
    for imported, lineno in _module_imports(module_name, source):
        bad = any(imported == p or imported.startswith(p + ".")
                  for p in FORBIDDEN_PREFIXES)
        ok = any(imported == a or a.startswith(imported + ".")
                 or imported.startswith(a + ".")
                 for a in ALLOWED_CORE)
        if bad and not ok and imported not in seen:
            seen.add(imported)
            findings.append(Finding(
                PASS_NAME, module_name, lineno, "reach-around-import",
                cls.__name__,
                f"pmap module imports MI state {imported!r}; the "
                f"machine-dependent layer may only use the shared "
                f"vocabulary ({', '.join(ALLOWED_CORE)}) — all VM "
                f"information must arrive through the pmap interface"))
    return findings


def verify_pmap_class(name: str, cls: Type,
                      source: Optional[SourceTree] = None
                      ) -> list[Finding]:
    """Check one pmap class against the MI contract; returns findings
    (empty when conformant).  *source*, a
    :class:`~repro.analysis.flow.SourceTree`, supplies the defining
    module's text when it holds that file."""
    base = _interface_class()
    if not (isinstance(cls, type) and issubclass(cls, base)):
        return [Finding(
            PASS_NAME, getattr(cls, "__module__", "?"), 0,
            "not-a-pmap", getattr(cls, "__name__", repr(cls)),
            f"registered pmap {name!r} is not a Pmap subclass")]
    findings = _check_coverage(name, cls)
    findings += _check_signatures(name, cls, base)
    findings += _check_invalidation(name, cls, base)
    findings += _check_table_span(name, cls, base)
    findings += _check_imports(name, cls, source)
    return findings


def verify_pmap_conformance(registry: Optional[dict] = None,
                            source: Optional[SourceTree] = None
                            ) -> list[Finding]:
    """Check every registered pmap (the live registry by default)."""
    if registry is None:
        from repro.pmap.registry import registered_pmaps
        registry = registered_pmaps()
    findings: list[Finding] = []
    for name in sorted(registry):
        findings += verify_pmap_class(name, registry[name], source)
    return findings


# ---------------------------------------------------------------------------
# The pager side: Table 3-1/3-2 protocol v2 conformance
# ---------------------------------------------------------------------------

#: Methods every pager must export (the v2 calling convention).
PAGER_CONTRACT_METHODS = ("data_request", "data_write", "name")

#: Capability flag -> the optional hook it promises.  A pager whose
#: declared capabilities name a hook it does not implement *lies*, the
#: pager-side equivalent of a pmap mutating without a shootdown.
PAGER_CAPABILITY_METHODS = {
    "has_data": "has_data",
    "has_slot": "has_slot",
    "move_slots": "move_slots",
    "release_object": "release_object",
    "lock_value_for": "lock_value_for",
    "data_unlock": "data_unlock",
    "pager_init": "pager_init",
}

#: data_request parameters after ``self`` under protocol v2; the fifth
#: (the readahead hint) must be optional so 4-argument call sites —
#: the reference kernel's v1 shim included — keep working.
_V2_REQUEST_ARITY = 5


def _pager_interface_class() -> type:
    from repro.pager.protocol import PagerProtocol
    return PagerProtocol


def _check_pager_signature(name: str, cls: type) -> list[Finding]:
    impl = getattr(cls, "data_request", None)
    if impl is None:
        return []
    try:
        params = list(inspect.signature(impl).parameters.values())
    except (ValueError, TypeError):
        return []
    if params and params[0].name == "self":
        params = params[1:]
    if any(p.kind is p.VAR_POSITIONAL for p in params):
        return []
    problems: list[str] = []
    if len(params) < _V2_REQUEST_ARITY:
        problems.append(
            f"takes {len(params)} parameters, protocol v2 takes "
            f"{_V2_REQUEST_ARITY} (obj, offset, length, desired_access, "
            f"readahead_hint=0)")
    else:
        hint = params[_V2_REQUEST_ARITY - 1]
        if hint.default is hint.empty:
            problems.append(
                f"readahead parameter {hint.name!r} has no default — "
                f"v1 call sites (four arguments) could not call it")
    if not problems:
        return []
    return [_finding(
        cls, _method_lineno(impl), "v1-signature",
        f"pager {name!r}: {cls.__name__}.data_request"
        f"{inspect.signature(impl)} is not protocol v2: "
        + "; ".join(problems),
        where=f"{cls.__name__}.data_request")]


def _check_pager_capabilities(name: str, cls: type) -> list[Finding]:
    from repro.pager.protocol import PagerCapabilities
    caps = getattr(cls, "capabilities", None)
    if not isinstance(caps, PagerCapabilities):
        # Instance-level declaration (e.g. a transfer_size known only
        # at construction): nothing class-level to hold honest.
        return []
    findings: list[Finding] = []
    for flag, method in sorted(PAGER_CAPABILITY_METHODS.items()):
        if getattr(caps, flag) and not callable(getattr(cls, method,
                                                        None)):
            findings.append(_finding(
                cls, _class_lineno(cls), "phantom-capability",
                f"pager {name!r} ({cls.__name__}) declares capability "
                f"{flag!r} but provides no {method}() — capabilities "
                f"are promises the kernel dispatches on, not hints",
                where=f"{cls.__name__}.{method}"))
    return findings


def verify_pager_class(name: str, cls: Type) -> list[Finding]:
    """Check one registered pager class against the protocol-v2
    contract; returns findings (empty when conformant)."""
    base = _pager_interface_class()
    if not (isinstance(cls, type) and issubclass(cls, base)):
        return [Finding(
            PASS_NAME, getattr(cls, "__module__", "?"), 0,
            "not-a-pager", getattr(cls, "__name__", repr(cls)),
            f"registered pager {name!r} is not a PagerProtocol "
            f"subclass")]
    findings: list[Finding] = []
    abstract = sorted(getattr(cls, "__abstractmethods__", ()))
    if abstract:
        findings.append(_finding(
            cls, _class_lineno(cls), "incomplete-interface",
            f"pager {name!r} ({cls.__name__}) is abstract: implement "
            f"{', '.join(abstract)}"))
    for method in PAGER_CONTRACT_METHODS:
        if not callable(getattr(cls, method, None)):
            findings.append(_finding(
                cls, _class_lineno(cls), "missing-method",
                f"pager {name!r} ({cls.__name__}) does not provide "
                f"{method}()"))
    findings += _check_pager_signature(name, cls)
    findings += _check_pager_capabilities(name, cls)
    return findings


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
    boot); *source* only spares re-reading the pmap modules."""
    return verify_pmap_conformance(source=source) \
        + verify_pager_conformance()
