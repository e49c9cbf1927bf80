"""Per-layer host time: spans around the public entry points of each
``repro`` package, installed from outside ``src/``.

:class:`Tracer` replaces each boundary function on its class (or
module) with a wrapper that records a span: name, layer, start, end and
parent.  A layer is the ``repro`` package that defines the function;
the benchmark's own code is the ``perf`` layer, the root span of every
traced run.  A span's self time is its duration minus the part its
child spans cover, summed per layer as the run goes, so the layers'
self times add up to the root spans' durations.  Spans outside a root
(setup, verification) pass straight through.

The first :data:`KEEP_OPS` ops (calls the benchmark makes directly into
a layer) keep their full span records, up to :data:`KEEP_EVENTS`,
exported as a Chrome trace_event file.
"""

from __future__ import annotations

import functools
import inspect
import time

#: The ``repro`` packages (``bench`` holds the Table 7 SUT glue), plus
#: the benchmark itself.
LAYERS = ("core", "pmap", "hw", "pager", "sched", "obs", "fs", "unix",
          "baseline", "ipc", "inject", "analysis", "bench", "perf")

#: Ops whose span records are kept for the Chrome trace, and a cap on
#: the records themselves (a ``tables`` op is a whole measurement).
KEEP_OPS = 2000
KEEP_EVENTS = 100_000

_PMAP_METHODS = ("enter", "enter_batch", "remove", "protect", "forget",
                 "hw_lookup")
_PAGER_METHODS = ("data_request", "data_write")


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found += [c for c in _subclasses(sub) if c not in found]
    return found


def boundaries() -> list:
    """Every wrapped entry point as ``(owner, attribute name)``.

    Pmap and pager methods are wrapped on every class that defines
    them, so subclass overrides get their own spans.  ``MachKernel.fault``
    is not wrapped: no workload calls it (scalar faults enter through
    ``translate_for``).
    """
    # Importing a module defines its subclasses for _subclasses().
    import repro.analysis
    import repro.inject.pagers             # noqa: F401
    import repro.pager.default_pager       # noqa: F401
    import repro.pager.netmemory           # noqa: F401
    import repro.pager.vnode_pager         # noqa: F401
    import repro.pmap.registry             # noqa: F401
    from repro.bench import workloads as bench
    from repro.baseline.bsd_vm import BsdVmSystem
    from repro.core.address_map import AddressMap
    from repro.core.kernel import MachKernel
    from repro.core.pageout import PageoutDaemon
    from repro.core.resident import ResidentPageTable
    from repro.core.task import Task
    from repro.core.vm_object import VMObjectManager
    from repro.fs.buffer_cache import BufferCache
    from repro.fs.disk import SimDisk
    from repro.fs.filesystem import FileSystem
    from repro.hw.mmu import MMU
    from repro.hw.physmem import PhysicalMemory
    from repro.hw.tlb import TLB
    from repro.ipc.port import Port
    from repro.obs.bus import EventBus
    from repro.pager.protocol import PagerProtocol
    from repro.pmap.interface import Pmap, PmapSystem
    from repro.sched.scheduler import Scheduler, ThreadContext
    from repro.unix.process import UnixProcess

    found = [
        (MachKernel, "translate_for"), (MachKernel, "fault_batch"),
        (MachKernel, "request_object_data"),
        (Task, "fork"), (Task, "read"), (Task, "write"),
        (AddressMap, "lookup"),
        (VMObjectManager, "shadow"), (VMObjectManager, "collapse"),
        (ResidentPageTable, "allocate"),
        (PageoutDaemon, "run"),
        (MMU, "translate"), (TLB, "fill"), (TLB, "invalidate_range"),
        (PhysicalMemory, "zero_frame"), (PhysicalMemory, "copy_frame"),
        (PmapSystem, "shootdown"),
        (Scheduler, "step"), (Scheduler, "service_pager_wait"),
        (ThreadContext, "read"), (ThreadContext, "write"),
        (EventBus, "emit"),
        (FileSystem, "read"), (FileSystem, "write"),
        (BufferCache, "read"), (BufferCache, "write"),
        (SimDisk, "read_block"), (SimDisk, "write_block"),
        (UnixProcess, "fork"), (UnixProcess, "exec"),
        (UnixProcess, "read_file"), (UnixProcess, "write_file"),
        (Port, "send"), (Port, "receive"),
        (repro.analysis, "lint_source_tree"),
        (repro.analysis, "lint_source_concurrency"),
        (repro.analysis, "run_flow_passes"),
        (bench, "measure_zero_fill"), (bench, "measure_fork"),
        (bench, "measure_read_file"), (bench, "run_compile_workload"),
    ]
    for cls in _subclasses(Pmap):
        found += [(cls, m) for m in _PMAP_METHODS if m in vars(cls)]
    for cls in _subclasses(PagerProtocol):
        found += [(cls, m) for m in _PAGER_METHODS if m in vars(cls)
                  and not getattr(vars(cls)[m], "__isabstractmethod__",
                                  False)]
    for cls in (*_subclasses(BsdVmSystem), bench.MachSUT, bench.BsdSUT):
        found += [(cls, name) for name, fn in vars(cls).items()
                  if inspect.isfunction(fn) and not name.startswith("_")]
    return found


def span_name(owner, attr: str) -> str:
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def layer_of(owner) -> str:
    module = owner.__name__ if inspect.ismodule(owner) \
        else owner.__module__
    return module.split(".")[1]


class Tracer:
    """Span recorder; :meth:`install` wraps the boundaries and
    :meth:`uninstall` restores the originals."""

    def __init__(self) -> None:
        #: Open spans: [start, seconds covered by children, name].  The
        #: root span is at the bottom whenever anything is traced.
        self._stack: list[list] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.layer_calls = dict.fromkeys(LAYERS, 0)
        #: Calls per boundary span name.
        self.calls: dict[str, int] = {}
        #: Calls made straight from a root span into a layer.
        self.ops = 0
        self.recording = True
        #: Chrome trace events of the first KEEP_OPS ops.
        self.events: list[dict] = []
        self._origin = time.perf_counter()
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------

    def install(self) -> "Tracer":
        from repro.sched.scheduler import Scheduler

        for owner, attr in boundaries():
            fn = vars(owner)[attr]
            if inspect.isgeneratorfunction(fn):
                raise TypeError(f"{span_name(owner, attr)} is a generator;"
                                f" a call span would not cover its body")
            self._replace(owner, attr, self._wrap(
                fn, span_name(owner, attr), layer_of(owner)))
        # Thread bodies are benchmark code that Scheduler.step resumes:
        # each resume is a ``perf`` span, so the body's own time is not
        # billed to ``sched``.
        spawn = Scheduler.spawn
        tracer = self

        @functools.wraps(spawn)
        def traced_spawn(scheduler, task, body, name=""):
            return spawn(scheduler, task, tracer.thread_body(body), name)

        self._replace(Scheduler, "spawn", traced_spawn)
        return self

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, layer: str):
        """*fn* as a span; outside a root it passes straight through."""
        stack, clock, tracer = self._stack, time.perf_counter, self
        self_s, layer_calls, calls = self.self_s, self.layer_calls, self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if len(stack) == 1:
                tracer.ops += 1
                if tracer.ops >= KEEP_OPS:
                    tracer.recording = False
            recorded = tracer.recording
            if recorded:
                tracer._event("B", name, layer, parent=stack[-1][2])
            frame = [clock(), 0.0, name]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                self_s[layer] += duration - frame[1]
                layer_calls[layer] += 1
                calls[name] += 1
                stack[-1][1] += duration
                if recorded:
                    tracer._event("E", name, layer)
        return traced

    def thread_body(self, body):
        """Wrap a scheduler thread body so every resume is a span."""
        step = self._wrap(next, "thread body", "perf")

        def traced_body(ctx):
            generator = body(ctx)
            while True:
                try:
                    step(generator)
                except StopIteration:
                    return
                yield
        return traced_body

    def root(self, fn, *args):
        """Run ``fn(*args)`` as one traced run: a ``perf`` root span."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        recorded = self.recording
        if recorded:
            self._event("B", "run", "perf")
        frame = [time.perf_counter(), 0.0, "run"]
        self._stack.append(frame)
        try:
            return fn(*args)
        finally:
            duration = time.perf_counter() - frame[0]
            self._stack.pop()
            self.self_s["perf"] += duration - frame[1]
            self.layer_calls["perf"] += 1
            if recorded:
                self._event("E", "run", "perf")

    def _event(self, phase: str, name: str, layer: str,
               parent=None) -> None:
        event = {"name": name, "cat": layer, "ph": phase, "pid": 1,
                 "tid": 1,
                 "ts": round((time.perf_counter() - self._origin) * 1e6, 3)}
        if phase == "B":
            event["args"] = {"op": self.ops, "parent": parent}
            if len(self.events) >= KEEP_EVENTS:
                self.recording = False
        self.events.append(event)

    def chrome_trace(self, process_name: str) -> list[dict]:
        """The kept span records as a Chrome trace_event list."""
        meta = {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                "args": {"name": process_name}}
        return [meta] + self.events
