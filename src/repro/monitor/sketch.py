"""Online quantile sketches and exemplar retention for unbounded runs.

The buffered observability path (:class:`~repro.monitor.spans.SpanCollector`
+ :class:`~repro.monitor.histogram.Histogrammer`) needs either a request
cap or pre-declared histogram bounds — a week-long soak run overflows
both.  This module provides the two constant-footprint primitives the
streaming path is built on:

* :class:`QuantileSketch` — a mergeable DDSketch-style quantile sketch
  over relative-error buckets.  No ``lo``/``hi`` must be declared up
  front: values land in logarithmic buckets ``ceil(log_gamma(v))`` with
  ``gamma = (1+alpha)/(1-alpha)``, so every reported quantile is within
  a *relative* error ``alpha`` of the exact sample quantile, whatever
  the data range turns out to be.  Bucket count grows with the log of
  the dynamic range (~1000 buckets spans nine decades at 1%), not with
  the sample count.

* :class:`ExemplarReservoir` — tree-buffer-style retention of the most
  informative recent history: the K **slowest complete** request spans
  (eviction keyed on latency rank, ties broken by a seeded hash of the
  caller's key so retention among equal-latency spans is reproducible
  but unbiased) plus the K **most recent incomplete** spans.
  Everything else is released the moment it has been folded into the
  sketches.

Both structures are deterministic (no wall clock, no unseeded
randomness) and JSON-serializable, so streaming spans documents reproduce
bit-identically for a fixed simulation.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from itertools import compress, repeat
from operator import ge, truediv
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: serialized-sketch schema version (see :meth:`QuantileSketch.to_dict`).
SKETCH_VERSION = 1

#: default quantile relative-error bound (1%).
DEFAULT_RELATIVE_ERROR = 0.01

#: default bucket cap; past it the *lowest* buckets collapse together,
#: degrading only the extreme-low quantiles (latency analyses read the
#: upper tail).  At 1% relative error this spans ~20 decades, so real
#: workloads never hit it — it is a hard memory guarantee, not a knob.
DEFAULT_MAX_BUCKETS = 2048


def chained_sum(values, start=0.0):
    """``start + values[0] + values[1] + ...`` added left to right: the
    value a ``+=`` loop leaves, on every interpreter.  Builtin ``sum``
    is compensated since Python 3.12 and ``np.sum`` adds pairwise, so
    neither matches that loop bit for bit; ``np.add.accumulate`` is
    sequential by definition.  Rows of a 2-D ``values`` fold column by
    column onto a ``start`` row.  Returns Python floats."""
    rows = np.asarray(values, dtype=float)
    column = np.empty((len(rows) + 1, *rows.shape[1:]))
    column[0] = start
    column[1:] = rows
    return np.add.accumulate(column)[-1].tolist()


class QuantileSketch:
    """A mergeable quantile sketch with bounded relative error.

    >>> s = QuantileSketch(relative_error=0.01)
    >>> for v in range(1, 1001):
    ...     s.record(float(v))
    >>> abs(s.quantile(0.5) - 500) / 500 < 0.01
    True

    Values ``<= 0`` land in a dedicated zero bucket and report as
    ``0.0`` (cycle latencies are non-negative; an exact zero has no
    logarithm).  ``merge`` is bucket-wise addition, so it is
    associative and commutative as long as neither operand has hit the
    bucket cap — merging sketches of two run halves equals sketching
    the whole run.
    """

    __slots__ = ("relative_error", "_gamma", "_ln_gamma", "_buckets",
                 "_zero_count", "count", "_sum", "_min", "_max",
                 "max_buckets", "collapsed")

    def __init__(
        self,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
    ) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ValueError("relative_error must be in (0, 1)")
        if max_buckets < 2:
            raise ValueError("max_buckets must be at least 2")
        self.relative_error = relative_error
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._ln_gamma = math.log(self._gamma)
        #: bucket index -> count; index i covers (gamma^(i-1), gamma^i].
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self.count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self.max_buckets = max_buckets
        #: True once the bucket cap forced a low-bucket collapse (the
        #: low quantiles are then upper bounds, not alpha-accurate).
        self.collapsed = False

    # -- recording ---------------------------------------------------------

    def _key(self, value: float) -> int:
        return int(math.ceil(math.log(value) / self._ln_gamma))

    def record(self, value: float) -> None:
        """Fold one observation into the sketch."""
        self.count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if value <= 0.0:
            self._zero_count += 1
            return
        buckets = self._buckets
        key = self._key(value)
        buckets[key] = buckets.get(key, 0) + 1
        if len(buckets) > self.max_buckets:
            self._collapse()

    def record_many(self, values: Sequence[float]) -> None:
        """Fold ``values`` in order: the state :meth:`record` on each in
        turn leaves.  The sum is added left to right, min and max keep
        the first extremum, and each distinct value is keyed once.  When
        the new keys could push the bucket count past ``max_buckets``
        the values go through :meth:`record` one by one, so collapses
        happen at the same points."""
        if not len(values):
            return
        counts = Counter(values)
        positive = [value for value in counts if not value <= 0.0]
        keys = list(map(math.ceil, map(
            truediv, map(math.log, positive), repeat(self._ln_gamma)
        )))
        buckets = self._buckets
        if len(buckets) + len(set(keys).difference(buckets)) > self.max_buckets:
            for value in values:
                self.record(value)
            return
        self.count += len(values)
        total = self._sum
        for value in values:
            total += value
        self._sum = total
        low = min(values)
        if self._min is None or low < self._min:
            self._min = low
        high = max(values)
        if self._max is None or high > self._max:
            self._max = high
        seen = list(map(counts.__getitem__, positive))
        self._zero_count += len(values) - sum(seen)
        for key, n in zip(keys, seen):
            buckets[key] = buckets.get(key, 0) + n

    def _collapse(self) -> None:
        """Merge the lowest buckets until back under the cap.  Collapsing
        upward into the lowest *surviving* bucket keeps every collapsed
        sample's reported value an over-estimate bounded by that
        bucket's value — the upper tail stays alpha-accurate."""
        keys = sorted(self._buckets)
        spill = 0
        while len(keys) > self.max_buckets - 1:
            spill += self._buckets.pop(keys.pop(0))
        if spill:
            self._buckets[keys[0]] = self._buckets.get(keys[0], 0) + spill
            self.collapsed = True

    # -- queries -----------------------------------------------------------

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> Optional[float]:
        return self._min

    @property
    def max(self) -> Optional[float]:
        return self._max

    def mean(self) -> float:
        if not self.count:
            raise ValueError("no samples recorded")
        return self._sum / self.count

    def bucket_count(self) -> int:
        """Distinct buckets currently held (the memory footprint)."""
        return len(self._buckets) + (1 if self._zero_count else 0)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1), within ``relative_error``
        of the exact sample quantile ``sorted(values)[rank - 1]`` with
        ``rank = ceil(q * count)`` — the same cumulative-count
        convention :meth:`Histogrammer.percentile` walks, so the two
        backends estimate the same order statistic."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if not self.count:
            raise ValueError("no samples recorded")
        target = q * self.count
        if self._zero_count and self._zero_count >= target:
            return 0.0
        seen = self._zero_count
        for key in sorted(self._buckets):
            seen += self._buckets[key]
            if seen >= target:
                # bucket midpoint in value space: 2*gamma^key/(gamma+1)
                return (
                    2.0 * math.pow(self._gamma, key) / (self._gamma + 1.0)
                )
        return self._max if self._max is not None else 0.0

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        return [self.quantile(q) for q in qs]

    # -- merging -----------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch in place (and return self).
        Operands must share the same ``relative_error``."""
        if other.relative_error != self.relative_error:
            raise ValueError(
                "cannot merge sketches with different relative errors: "
                f"{self.relative_error} vs {other.relative_error}"
            )
        buckets = self._buckets
        for key, n in other._buckets.items():
            buckets[key] = buckets.get(key, 0) + n
        self._zero_count += other._zero_count
        self.count += other.count
        self._sum += other._sum
        if other._min is not None:
            self._min = other._min if self._min is None else min(self._min, other._min)
        if other._max is not None:
            self._max = other._max if self._max is None else max(self._max, other._max)
        self.collapsed = self.collapsed or other.collapsed
        if len(buckets) > self.max_buckets:
            self._collapse()
        return self

    def copy(self) -> "QuantileSketch":
        return QuantileSketch.from_dict(self.to_dict())

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready state; :meth:`from_dict` round-trips it exactly."""
        return {
            "version": SKETCH_VERSION,
            "relative_error": self.relative_error,
            "count": self.count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "zero_count": self._zero_count,
            "collapsed": self.collapsed,
            # JSON objects key on strings; sorted for stable output
            "buckets": {str(k): self._buckets[k] for k in sorted(self._buckets)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuantileSketch":
        if data.get("version") != SKETCH_VERSION:
            raise ValueError(f"unsupported sketch version: {data.get('version')!r}")
        sketch = cls(relative_error=float(data["relative_error"]))
        sketch._buckets = {int(k): int(n) for k, n in data["buckets"].items()}
        sketch._zero_count = int(data["zero_count"])
        sketch.count = int(data["count"])
        sketch._sum = float(data["sum"])
        sketch._min = None if data["min"] is None else float(data["min"])
        sketch._max = None if data["max"] is None else float(data["max"])
        sketch.collapsed = bool(data.get("collapsed", False))
        return sketch


# ---------------------------------------------------------------------------
# exemplar retention


def _tie_hash(key: int, seed: int) -> int:
    """Deterministic tie-break mix for equal-latency spans (splitmix-ish,
    so retention does not simply favour low keys)."""
    x = (key ^ (seed * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class ExemplarReservoir:
    """Fixed-size retention of the most informative spans.

    Keeps the ``k`` slowest **complete** spans (latency rank; equal
    latencies tie-break on a seeded hash of each span's key) and the
    ``k`` most **recent incomplete** spans (by birth time, then key —
    the in-flight tail a hung run leaves behind).  Keys are distinct
    integers the caller assigns in offer order; the streaming store
    passes each request's birth ordinal, so the same simulation retains
    the same exemplars whatever request ids the process drew before.
    Memory is O(k) regardless of how many spans are offered.
    """

    def __init__(self, k: int = 64, seed: int = 0) -> None:
        if k < 1:
            raise ValueError("reservoir size must be positive")
        self.k = k
        self.seed = seed
        #: (latency, tie, span) min-ordered list, at most k entries.
        self._slowest: List[Tuple[float, int, object]] = []
        #: (birth, key, span), at most k entries, oldest evicted first.
        self._recent_incomplete: List[Tuple[float, int, object]] = []
        self.offered_complete = 0
        self.offered_incomplete = 0

    def _rank(self, latency: float, key: int) -> Tuple[float, int]:
        return (latency, _tie_hash(key, self.seed))

    def offer_complete(self, span, key: int) -> bool:
        """Offer a completed span; returns True when retained.  The
        caller may release spans that are not."""
        return self.offer_ranked(span.latency, key, lambda: span)

    def offer_ranked(self, latency: float, key: int,
                     build: Callable[[], object]) -> bool:
        """:meth:`offer_complete` for a span not built yet: ``build()``
        makes it only when its ``(latency, tie)`` rank is retained."""
        self.offered_complete += 1
        heap = self._slowest
        full = len(heap) >= self.k
        if full and latency < heap[0][0]:
            return False
        rank = self._rank(latency, key)
        if full:
            if rank <= heap[0][:2]:
                return False
            heapq.heapreplace(heap, (*rank, build()))
        else:
            heapq.heappush(heap, (*rank, build()))
        return True

    def offer_ranked_many(self, latencies: Sequence[float],
                          keys: Sequence[int],
                          build: Callable[[int], object]) -> None:
        """:meth:`offer_ranked` for each ``(latencies[k], keys[k])`` in
        order, ``build(k)`` making the k-th span.
        Once the reservoir is full its floor only rises, so the offers
        below the floor it starts with are counted without a call."""
        heap = self._slowest
        floor = heap[0][0] if len(heap) >= self.k else -math.inf
        candidates = list(compress(
            range(len(latencies)), map(ge, latencies, repeat(floor))
        ))
        self.offered_complete += len(latencies) - len(candidates)
        for k in candidates:
            self.offer_ranked(latencies[k], keys[k], lambda: build(k))

    def offer_incomplete(self, span, key: int) -> None:
        """Offer an incomplete span (an in-flight eviction or a sim-end
        orphan); only the ``k`` most recent births are kept."""
        self.offered_incomplete += 1
        entry = (span.birth, key, span)
        if len(self._recent_incomplete) < self.k:
            heapq.heappush(self._recent_incomplete, entry)
        elif entry[:2] > self._recent_incomplete[0][:2]:
            heapq.heapreplace(self._recent_incomplete, entry)

    # -- views -------------------------------------------------------------

    def slowest(self, n: Optional[int] = None) -> List[object]:
        """The retained complete spans, slowest first."""
        ordered = [e[2] for e in sorted(self._slowest, reverse=True)]
        return ordered if n is None else ordered[:n]

    def incompletes(self) -> List[object]:
        """The retained incomplete spans, most recent first (birth, then
        key)."""
        return [e[2] for e in sorted(self._recent_incomplete, reverse=True)]

    def __len__(self) -> int:
        return len(self._slowest) + len(self._recent_incomplete)
