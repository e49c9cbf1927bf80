"""Bounded log-bucket histograms for recorded distributions.

:class:`Histogram` is the one distribution type of :mod:`repro.obs`:
:class:`~repro.obs.telemetry.FaultTelemetry` fills its fault-latency
and per-stage histograms with it, and ``repro trace`` its
shadow-chain-depth digest.  Counters are not kept here: the kernel's
:class:`~repro.core.statistics.KernelStats` (the ``vm_statistics``
counters) and ``pmap_system.shootdowns`` are their one source.

Standard library only — see the module docstring of
:mod:`repro.obs.bus`.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["Histogram"]


#: Log-bucket geometry: 2**_SUB_BITS linear sub-buckets per power of
#: two bounds the relative quantization error at 2 / 2**_SUB_BITS
#: (~3.1%); _SCALE fixed-points values to eighth-units so that small
#: durations (and integer-valued samples such as chain depths) land in
#: exact buckets.
_SUB_BITS = 6
_SUB = 1 << _SUB_BITS
_SCALE = 8


def _bucket_index(scaled: int) -> int:
    """HDR-style index of a scaled non-negative integer sample: exact
    below ``_SUB``, then ``_SUB`` logarithmically spaced sub-buckets
    per power of two.  Monotonic in *scaled*."""
    if scaled < _SUB:
        return scaled
    shift = scaled.bit_length() - _SUB_BITS
    return (shift << _SUB_BITS) | (scaled >> shift)


def _bucket_value(index: int) -> float:
    """The representative (midpoint) un-scaled value of a bucket."""
    shift = index >> _SUB_BITS
    if shift == 0:
        return index / _SCALE
    mantissa = index & (_SUB - 1)
    lo = mantissa << shift
    return (lo + (1 << shift) / 2.0) / _SCALE


class Histogram:
    """A recorded distribution in bounded log-spaced buckets.

    HDR-histogram style: a sample is fixed-pointed (``_SCALE``) and
    dropped into one of at most a few thousand buckets — exact below
    ``_SUB`` scaled units, then ``_SUB`` sub-buckets per power of two,
    bounding the relative quantization error at ~3%.  Memory stays
    O(distinct buckets) no matter how many samples are recorded (a
    fault storm records millions), and :meth:`percentile` walks the
    sorted bucket keys instead of sorting raw samples.  ``min``,
    ``max``, ``mean`` and ``count`` are tracked exactly; percentiles
    clamp into ``[min, max]`` and report the exact extremes at rank 0
    and rank n-1.
    """

    __slots__ = ("name", "unit", "_buckets", "_count", "_sum", "_min",
                 "_max")

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self._buckets: Dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0

    def record(self, value: float) -> None:
        if self._count == 0:
            self._min = self._max = value
        elif value < self._min:
            self._min = value
        elif value > self._max:
            self._max = value
        self._count += 1
        self._sum += value
        index = _bucket_index(int(value * _SCALE) if value > 0 else 0)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other*'s recorded distribution into this one."""
        if other._count:
            if self._count == 0:
                self._min, self._max = other._min, other._max
            else:
                self._min = min(self._min, other._min)
                self._max = max(self._max, other._max)
            self._count += other._count
            self._sum += other._sum
            for index, n in other._buckets.items():
                self._buckets[index] = self._buckets.get(index, 0) + n
        return self

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        """The exact sum of all recorded samples."""
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min

    @property
    def max(self) -> float:
        return self._max

    def percentile(self, p: float) -> float:
        """The *p*-th percentile (nearest-rank over the log buckets,
        so within ~3% of the exact order statistic), 0 when empty."""
        if not self._count:
            return 0.0
        rank = max(0, min(self._count - 1,
                          int(round(p / 100.0 * (self._count - 1)))))
        if rank == 0:
            return self._min
        if rank == self._count - 1:
            return self._max
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen > rank:
                return min(max(_bucket_value(index), self._min),
                           self._max)
        return self._max

    def to_dict(self) -> Dict[str, float]:
        """A JSON-ready digest (the BENCH/storm report format)."""
        return {
            "count": self._count,
            "total": round(self._sum, 3),
            "mean": round(self.mean, 3),
            "min": round(self._min, 3),
            "max": round(self._max, 3),
            "p50": round(self.percentile(50), 3),
            "p95": round(self.percentile(95), 3),
            "p99": round(self.percentile(99), 3),
            "p999": round(self.percentile(99.9), 3),
        }

    def summary(self) -> str:
        unit = self.unit
        return (f"{self.name}: n={self.count} min={self.min:.1f}{unit} "
                f"p50={self.percentile(50):.1f}{unit} "
                f"p95={self.percentile(95):.1f}{unit} "
                f"max={self.max:.1f}{unit} mean={self.mean:.1f}{unit}")

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count})"
