"""Threads on CPUs: a cooperative scheduler.

Section 2: "A thread is the basic unit of CPU utilization.  It is
roughly equivalent to an independent program counter operating within a
task.  All threads within a task share access to all task resources."

The simulation schedules threads cooperatively: a thread body is a
Python generator whose ``yield``s are its preemption points.  The
scheduler multiplexes ready threads over the machine's CPUs
round-robin, performing a real ``pmap_activate`` on every switch — so
multiprogramming exercises exactly the machinery the paper discusses:
context-switch costs, TLB pollution across switches, SUN 3 context
competition above eight active tasks, and deferred TLB flushes draining
at timer ticks.

Usage::

    sched = Scheduler(kernel)

    def body(ctx):
        addr = ctx.task.vm_allocate(4096)
        ctx.write(addr, b"hello")
        yield                      # preemption point
        assert ctx.read(addr, 5) == b"hello"

    sched.spawn(task, body)
    sched.run()
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from typing import Callable, Generator, Optional

from repro.core.constants import FaultType
from repro.core.task import Task

_sched_ids = itertools.count(1)


class ThreadState(enum.Enum):
    """Lifecycle states of a scheduled thread."""
    READY = "ready"
    RUNNING = "running"
    #: Parked on a pager round trip; the CPU is lent to other threads.
    WAITING = "waiting"
    DONE = "done"
    FAILED = "failed"


class ThreadContext:
    """What a thread body sees: its task, and memory access that runs
    on whichever CPU the scheduler placed the thread on."""

    def __init__(self, scheduler: "Scheduler", task: Task,
                 thread) -> None:
        self.scheduler = scheduler
        self.task = task
        self.thread = thread
        self.cpu_id: Optional[int] = None

    def read(self, address: int, size: int) -> bytes:
        """Read bytes (faulting pages in as needed)."""
        self.scheduler._run_here(self)
        return self.task.read(address, size)

    def write(self, address: int, data: bytes) -> None:
        """Write bytes (faulting/copying pages as needed)."""
        self.scheduler._run_here(self)
        self.task.write(address, data)

    def rmw(self, address: int, delta: int = 1) -> int:
        """One read-modify-write increment on the thread's CPU."""
        self.scheduler._run_here(self)
        return self.scheduler.kernel.task_memory_rmw(self.task,
                                                     address, delta)


class SchedThread:
    """A schedulable thread: a core thread plus its generator body."""

    def __init__(self, scheduler: "Scheduler", task: Task,
                 body: Callable[[ThreadContext], Generator],
                 name: str = "") -> None:
        self.sched_id = next(_sched_ids)
        self.task = task
        self.thread = task.thread_create(
            name=name or f"sched{self.sched_id}")
        scheduler.kernel.server.register_thread(self.thread)
        self.context = ThreadContext(scheduler, task, self.thread)
        self.generator = body(self.context)
        self.state = ThreadState.READY
        self.slices = 0
        self.error: Optional[BaseException] = None

    def __repr__(self) -> str:
        return (f"SchedThread(#{self.sched_id}, {self.task.name}, "
                f"{self.state.value})")


class SchedulePolicy:
    """Strategy deciding which ready thread runs next.

    ``choose`` receives the ready queue (a sequence of
    :class:`SchedThread`, length >= 2 — trivial decisions are not
    offered) and returns the index to run.  Implementations must not
    mutate the queue.  Alternative policies (seeded-random, recording /
    replaying for systematic exploration) live in
    :mod:`repro.analysis.schedules`; this module only defines the
    protocol and the default so that ``sched`` never depends on the
    analysis package.
    """

    name = "policy"

    def choose(self, ready) -> int:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget accumulated state (for replays)."""


class RoundRobinPolicy(SchedulePolicy):
    """The historical default: always run the head of the queue."""

    name = "round-robin"

    def choose(self, ready) -> int:
        return 0


class Scheduler:
    """Multiplexing of threads over the machine's CPUs; round-robin by
    default, or any pluggable :class:`SchedulePolicy`."""

    def __init__(self, kernel, timer_tick_every: int = 8,
                 policy: Optional[SchedulePolicy] = None) -> None:
        self.kernel = kernel
        self.ready: deque[SchedThread] = deque()
        self.threads: list[SchedThread] = []
        #: Deliver a timer tick to every CPU after this many slices
        #: (drains deferred TLB flushes — Section 5.2 case 2).
        self.timer_tick_every = timer_tick_every
        self.policy = policy if policy is not None else RoundRobinPolicy()
        self.context_switches = 0
        self.slices_run = 0
        #: The kernel's instrumentation bus; each slice publishes a
        #: ``sched/slice`` event just before placement.
        self.events = kernel.events
        #: The thread whose slice is currently executing (None between
        #: slices) and the re-entrancy guard for borrowed-CPU waits.
        self._current: Optional[SchedThread] = None
        self._wait_depth = 0
        # The kernel funnels pager backoff waits back through us so
        # unrelated ready threads can run during the stall.
        kernel.scheduler = self

    # ------------------------------------------------------------------

    def spawn(self, task: Task,
              body: Callable[[ThreadContext], Generator],
              name: str = "") -> SchedThread:
        """Create a thread in *task* running *body* (a generator
        function taking a :class:`ThreadContext`)."""
        thread = SchedThread(self, task, body, name=name)
        self.threads.append(thread)
        self.ready.append(thread)
        return thread

    def _run_here(self, context: ThreadContext) -> None:
        """Bind the current thread's memory accesses to its CPU."""
        if context.cpu_id is not None:
            self.kernel.set_current_cpu(context.cpu_id)

    def _place(self, sched_thread: SchedThread, cpu) -> None:
        """Context-switch *cpu* to the thread's task."""
        if cpu.active_pmap is not sched_thread.task.pmap:
            self.context_switches += 1
            sched_thread.task.pmap.activate(sched_thread.thread, cpu)
        sched_thread.context.cpu_id = cpu.cpu_id

    def _advance(self, sched_thread: SchedThread) -> None:
        sched_thread.state = ThreadState.RUNNING
        sched_thread.slices += 1
        self.slices_run += 1
        try:
            next(sched_thread.generator)
        except StopIteration:
            sched_thread.state = ThreadState.DONE
        except Exception as exc:
            sched_thread.state = ThreadState.FAILED
            sched_thread.error = exc
        else:
            sched_thread.state = ThreadState.READY
            self.ready.append(sched_thread)

    def step(self) -> bool:
        """Run one slice on each CPU (as many as have work); returns
        False when nothing is runnable."""
        if not self.ready:
            return False
        for cpu in self.kernel.machine.cpus:
            if not self.ready:
                break
            if len(self.ready) > 1:
                index = self.policy.choose(tuple(self.ready))
                sched_thread = self.ready[index]
                del self.ready[index]
            else:
                sched_thread = self.ready.popleft()
            if sched_thread.thread.suspended:
                self.ready.append(sched_thread)
                continue
            if self.events.active:
                # Before _place, so ``from_cpu`` is still the CPU the
                # thread last ran on.
                self.events.emit(
                    "sched", "slice", task=sched_thread.task.name,
                    to_cpu=cpu.cpu_id,
                    from_cpu=sched_thread.context.cpu_id)
            self._place(sched_thread, cpu)
            self.kernel.set_current_cpu(cpu.cpu_id)
            self._current = sched_thread
            try:
                self._advance(sched_thread)
            finally:
                self._current = None
        if (self.timer_tick_every
                and self.slices_run % self.timer_tick_every == 0):
            self.kernel.machine.tick_all_timers()
        return True

    def service_pager_wait(self, deadline_us: float) -> int:
        """Lend the waiting thread's CPU to ready threads until
        *deadline_us* (simulated) or the ready queue drains; returns
        how many threads ran to completion on the borrowed time.

        Called by :meth:`repro.core.kernel.MachKernel.pager_backoff_wait`
        while a fault sits parked on its object's pending queue — the
        protocol-v2 continuation point: instead of the whole machine
        idling out a pager stall, unrelated tasks keep retiring work and
        the stalled fault resumes when the kernel's retry timer fires.

        Re-entrancy: a borrowed thread may itself hit a stalling pager;
        the nested wait then burns simulated time without borrowing
        further (one level of lending is what one spare context can
        honestly model, and it bounds recursion).
        """
        if self._wait_depth > 0 or not self.ready:
            return 0
        kernel = self.kernel
        clock = kernel.clock
        waiter = self._current
        saved_cpu = (waiter.context.cpu_id if waiter is not None
                     and waiter.context.cpu_id is not None
                     else kernel.current_cpu.cpu_id)
        cpu = kernel.machine.cpus[saved_cpu]
        if waiter is not None:
            waiter.state = ThreadState.WAITING
        self._wait_depth += 1
        tracked = self.events.active
        if tracked:
            # Borrowed slices get their own telemetry track: their
            # faults are independent latency samples, not children of
            # the waiter's still-open pager/call span.
            self.events.push_track(f"pager-wait-cpu{saved_cpu}")
        completed = 0
        no_progress = 0
        try:
            while self.ready and clock.now_us < deadline_us:
                borrowed = self.ready.popleft()
                if borrowed.thread.suspended:
                    self.ready.append(borrowed)
                    no_progress += 1
                    if no_progress > 2 * len(self.ready) + 4:
                        break
                    continue
                before = clock.now_us
                if tracked:
                    self.events.emit(
                        "sched", "borrowed_slice",
                        task=borrowed.task.name, to_cpu=cpu.cpu_id,
                        from_cpu=borrowed.context.cpu_id)
                self._place(borrowed, cpu)
                kernel.set_current_cpu(cpu.cpu_id)
                self._current = borrowed
                try:
                    self._advance(borrowed)
                finally:
                    self._current = waiter
                if borrowed.state is ThreadState.DONE:
                    completed += 1
                if clock.now_us <= before:
                    # Slices that burn no simulated time cannot reach
                    # the deadline; cap them so a queue of no-op
                    # yielders cannot spin forever.
                    no_progress += 1
                    if no_progress > 2 * len(self.ready) + 4:
                        break
                else:
                    no_progress = 0
        finally:
            self._wait_depth -= 1
            if tracked:
                self.events.pop_track()
            if waiter is not None:
                waiter.state = ThreadState.RUNNING
                # Restore the waiter's context (pmap + current CPU): the
                # borrowed threads may have switched the CPU away.
                self._place(waiter, cpu)
            kernel.set_current_cpu(saved_cpu)
        return completed

    def run(self, max_slices: int = 100_000,
            raise_on_failure: bool = True) -> None:
        """Run until every thread finishes (or the slice budget is
        spent, which raises — a runaway loop in a thread body)."""
        budget = max_slices
        while self.step():
            budget -= 1
            if budget <= 0:
                raise RuntimeError(
                    f"scheduler exceeded {max_slices} slices; "
                    f"{len(self.ready)} threads still ready")
        if raise_on_failure:
            for sched_thread in self.threads:
                if sched_thread.state is ThreadState.FAILED:
                    raise sched_thread.error

    def __repr__(self) -> str:
        states = {}
        for t in self.threads:
            states[t.state.value] = states.get(t.state.value, 0) + 1
        return f"Scheduler({states}, switches={self.context_switches})"
