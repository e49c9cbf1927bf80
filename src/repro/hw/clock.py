"""Simulated time.

All benchmark results in the reproduction are *simulated* times: every
hardware and kernel operation charges a cost (in microseconds) against a
:class:`SimClock`.  The clock distinguishes CPU time ("system time" in
the paper's Table 7-1) from elapsed time, which additionally includes
I/O wait (disk transfers overlap no useful work in this model).
"""

from __future__ import annotations


class SimClock:
    """Accumulates simulated CPU and elapsed microseconds.

    ``charge`` advances both CPU and elapsed time (computation takes
    wall-clock time); ``wait`` advances only elapsed time (the CPU is
    idle, e.g. waiting for a disk transfer).
    """

    def __init__(self) -> None:
        self._cpu_us = 0.0
        self._elapsed_us = 0.0

    def charge(self, microseconds: float) -> None:
        """Spend CPU time (also advances elapsed time)."""
        if microseconds < 0:
            raise ValueError("cannot charge negative time")
        self._cpu_us += microseconds
        self._elapsed_us += microseconds

    def wait(self, microseconds: float) -> None:
        """Spend elapsed (I/O wait) time without consuming CPU."""
        if microseconds < 0:
            raise ValueError("cannot wait negative time")
        self._elapsed_us += microseconds

    @property
    def cpu_us(self) -> float:
        """Accumulated simulated CPU microseconds."""
        return self._cpu_us

    @property
    def elapsed_us(self) -> float:
        """Accumulated simulated elapsed microseconds."""
        return self._elapsed_us

    @property
    def now_us(self) -> float:
        """The current simulated instant (elapsed time), for deadlines
        and timeouts.  Never wall-clock time: fault-injection sweeps and
        pager timeouts stay deterministic because "now" only advances
        through ``charge``/``wait``."""
        return self._elapsed_us

    def deadline(self, budget_us: float) -> "Deadline":
        """A deadline *budget_us* simulated microseconds from now."""
        return Deadline(self, budget_us)

    @property
    def cpu_ms(self) -> float:
        """Accumulated simulated CPU milliseconds."""
        return self._cpu_us / 1000.0

    @property
    def elapsed_ms(self) -> float:
        """Accumulated simulated elapsed milliseconds."""
        return self._elapsed_us / 1000.0

    def snapshot(self) -> "ClockSnapshot":
        """Capture the current reading for later interval measurement."""
        return ClockSnapshot(self, self._cpu_us, self._elapsed_us)

    def reset(self) -> None:
        """Zero both accumulators."""
        self._cpu_us = 0.0
        self._elapsed_us = 0.0

    def __repr__(self) -> str:
        return (f"SimClock(cpu={self._cpu_us:.1f}us, "
                f"elapsed={self._elapsed_us:.1f}us)")


class Deadline:
    """A point on the simulated clock after which an operation has
    timed out.

    Used by the kernel's pager-request retry loop: each retry *waits*
    (elapsed time, no CPU) until its backoff expires, so an errant
    pager costs the faulting task simulated time, never a host hang.
    """

    def __init__(self, clock: SimClock, budget_us: float) -> None:
        if budget_us < 0:
            raise ValueError("deadline budget cannot be negative")
        self._clock = clock
        self._expiry_us = clock.now_us + budget_us

    @property
    def expired(self) -> bool:
        """True once the simulated clock has passed the deadline."""
        return self._clock.now_us >= self._expiry_us

    @property
    def remaining_us(self) -> float:
        """Simulated microseconds left before expiry (0 when past)."""
        return max(0.0, self._expiry_us - self._clock.now_us)

    def __repr__(self) -> str:
        return f"Deadline(+{self.remaining_us:.1f}us)"


class ClockSnapshot:
    """A point-in-time reading of a :class:`SimClock`.

    ``interval()`` returns (cpu_us, elapsed_us) spent since the snapshot
    was taken — the unit of measurement for every benchmark.
    """

    def __init__(self, clock: SimClock, cpu_us: float, elapsed_us: float):
        self._clock = clock
        self._cpu_us = cpu_us
        self._elapsed_us = elapsed_us

    def interval(self) -> tuple[float, float]:
        """(cpu_us, elapsed_us) elapsed since this snapshot."""
        return (self._clock.cpu_us - self._cpu_us,
                self._clock.elapsed_us - self._elapsed_us)

    def cpu_interval_ms(self) -> float:
        """CPU milliseconds elapsed since the snapshot."""
        return (self._clock.cpu_us - self._cpu_us) / 1000.0

    def elapsed_interval_ms(self) -> float:
        """Elapsed milliseconds since the snapshot."""
        return (self._clock.elapsed_us - self._elapsed_us) / 1000.0
