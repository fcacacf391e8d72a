"""The metrics registry: named counters, gauges, and time-weighted series.

The paper's monitoring hardware is a *bank* of instruments — 64K-counter
histogrammers, event tracers — clipped onto arbitrary machine signals.
:class:`MetricsRegistry` is the software bank: a flat namespace of
metric instruments keyed by **component path** (``gmem.module[12]``,
``net.fwd.s1[3]``, ``pfu.port[0]``) plus a metric suffix
(``.services``, ``.queue_words``, ``.busy``).

Instruments reach the registry two ways:

* **pulled** — the hot per-event accounting (queue occupancy, link
  traffic, busy bins, memory service times) lives *inside* the
  components as :class:`Occupancy` and :class:`ServiceAccount`
  accumulators, incremented in place like the paper's hardware
  histogrammers.  A monitor arms them and registers itself as a pull
  source (:meth:`MetricsRegistry.add_source`); nothing is read until a
  snapshot or timeline sample asks.
* **pushed** — cold signals (PFU lifecycle, sync ops, faults) are still
  counted by bus subscribers writing get-or-create instruments.

Either way an unmonitored simulation touches none of this code: an
unarmed component pays one ``is not None`` branch per would-be update,
and the zero-cost fast path of :mod:`repro.monitor.signals` is kept.

Instrument kinds
----------------

``Counter``
    Monotonic event count (packets, services, sync ops).
``Gauge``
    Last-write-wins value with min/max tracking.
``TimeWeighted``
    A value that *holds* between updates (queue occupancy, words in
    flight); integrates value x time so ``mean()`` is the true
    time-weighted average, and keeps a duration-weighted distribution.
``Timeline``
    Busy-cycles accumulated into fixed-width time bins — the
    busy-fraction timeline behind utilization plots.

Histograms reuse :class:`repro.monitor.histogram.Histogrammer` (the
64K-counter hardware model) so probe and monitor distributions share
one implementation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.monitor.histogram import Histogrammer


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-write-wins value with min/max envelope."""

    __slots__ = ("name", "value", "minimum", "maximum", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value


class TimeWeighted:
    """A sampled-and-held value integrated over simulated time.

    ``update(v, now)`` closes the interval the previous value was held
    for; ``mean(now)`` is total value x time over total elapsed time —
    the right average for queue occupancy, which a plain event-weighted
    mean misstates badly under bursty arrivals.
    """

    __slots__ = ("name", "_value", "_since", "_start", "_weighted", "_max", "_dist")

    def __init__(self, name: str, start_time: float = 0.0, start_value: float = 0.0):
        self.name = name
        self._value = start_value
        self._since = start_time
        self._start = start_time
        self._weighted = 0.0
        self._max = start_value
        #: value -> cycles held at that value (the occupancy distribution).
        self._dist: Dict[float, float] = {}

    def update(self, value: float, now: float) -> None:
        held = now - self._since
        if held > 0:
            self._weighted += self._value * held
            self._dist[self._value] = self._dist.get(self._value, 0.0) + held
        self._value = value
        self._since = now
        if value > self._max:
            self._max = value

    @property
    def value(self) -> float:
        return self._value

    @property
    def maximum(self) -> float:
        return self._max

    def mean(self, now: Optional[float] = None) -> float:
        """Time-weighted mean from the first update through ``now``."""
        return _held_mean(self._start, self._since, self._value, self._weighted, now)

    def distribution(self, now: Optional[float] = None) -> Dict[float, float]:
        """``{value: cycles held}`` including the still-open interval."""
        dist = dict(self._dist)
        end = self._since if now is None else max(now, self._since)
        if end > self._since:
            dist[self._value] = dist.get(self._value, 0.0) + (end - self._since)
        return dist


def _held_mean(start, since, value, weighted, now) -> float:
    """The time-weighted mean of a held value over ``start..now``:
    ``weighted`` integrates every closed interval, the open one runs
    from ``since`` (a ``now`` before ``since`` is clamped to it)."""
    end = since if now is None else max(now, since)
    elapsed = end - start
    if elapsed <= 0:
        return value
    tail = (end - since) * value
    return (weighted + tail) / elapsed


class Timeline:
    """Busy cycles binned into fixed-width windows of simulated time."""

    __slots__ = ("name", "bin_cycles", "_bins")

    def __init__(self, name: str, bin_cycles: float = 256.0) -> None:
        if bin_cycles <= 0:
            raise ValueError("bin width must be positive")
        self.name = name
        self.bin_cycles = bin_cycles
        self._bins: Dict[int, float] = {}

    def add(self, start: float, duration: float) -> None:
        """Credit ``duration`` busy cycles beginning at ``start``,
        spread across every bin the interval overlaps."""
        if duration <= 0:
            return
        start = max(0.0, start)
        end = start + duration
        idx = int(start // self.bin_cycles)
        while start < end:
            edge = (idx + 1) * self.bin_cycles
            chunk = min(end, edge) - start
            self._bins[idx] = self._bins.get(idx, 0.0) + chunk
            start = edge
            idx += 1

    def fractions(self) -> Dict[int, float]:
        """``{bin index: busy fraction}`` clamped to 1.0 (several servers
        can share one timeline, so raw credit may exceed the bin)."""
        return {
            idx: min(1.0, busy / self.bin_cycles)
            for idx, busy in sorted(self._bins.items())
        }

    def busy_cycles(self) -> float:
        return sum(self._bins.values())

    def peak_fraction(self) -> float:
        if not self._bins:
            return 0.0
        return min(1.0, max(self._bins.values()) / self.bin_cycles)

    def clear(self) -> None:
        self._bins.clear()


class Occupancy:
    """In-place queue and traffic accounting carried by one armed
    :class:`~repro.network.resource.Resource`.

    The resource calls :meth:`edge` where a packet joins its queue and
    :meth:`depart` where one leaves; each call folds the queue depth
    into a sampled-and-held level (area and maximum, the
    :class:`TimeWeighted` arithmetic minus its duration table) and a
    count-weighted ``{queued words: edges}`` table, and a departure also
    counts packets / words and credits the optional ``busy`` timeline
    (shared by every link of one network stage).  Nothing else happens
    until a registry snapshot reads the accumulator back: ``value``,
    ``maximum`` and :meth:`mean` answer like a :class:`TimeWeighted`,
    :meth:`histogram` rebuilds the depth distribution.
    """

    __slots__ = (
        "value", "since", "area", "maximum", "counts", "packets", "words", "busy",
    )

    def __init__(self, busy: Optional[Timeline] = None) -> None:
        self.busy = busy
        self.clear()

    def clear(self) -> None:
        """Back to the freshly-armed state (the shared busy timeline
        included — every link of a stage resets together)."""
        self.value = 0.0
        self.since = 0.0
        self.area = 0.0
        self.maximum = 0.0
        self.counts: Dict[float, int] = {}
        self.packets = 0
        self.words = 0
        if self.busy is not None:
            self.busy.clear()

    def edge(self, value: int, now: float) -> None:
        """Fold the queue depth ``value`` at time ``now`` into the level
        and the depth table (:meth:`depart` repeats this inline)."""
        held = now - self.since
        if held > 0:
            self.area += self.value * held
        self.value = value
        self.since = now
        if value > self.maximum:
            self.maximum = value
        counts = self.counts
        counts[value] = counts.get(value, 0) + 1

    def depart(self, value: int, words: int, duration: float, now: float) -> None:
        """:meth:`edge`, the traffic counts and the busy credit of one
        departure, in one frame: it runs once per hop of every packet."""
        held = now - self.since
        if held > 0:
            self.area += self.value * held
        self.value = value
        self.since = now
        if value > self.maximum:
            self.maximum = value
        counts = self.counts
        counts[value] = counts.get(value, 0) + 1
        self.packets += 1
        self.words += words
        busy = self.busy
        if busy is not None and duration > 0:
            # an interval inside one bin is one dict update, with
            # Timeline.add's arithmetic: credit (start + d) - start.
            start = now - duration
            width = busy.bin_cycles
            idx = int(start // width)
            end = start + duration
            if start >= 0.0 and end <= (idx + 1) * width:
                if end > start:  # an interval rounding to nothing: no bin
                    bins = busy._bins
                    bins[idx] = bins.get(idx, 0.0) + (end - start)
            else:
                busy.add(start, duration)

    def mean(self, now: Optional[float] = None) -> float:
        return _held_mean(0.0, self.since, self.value, self.area, now)

    def histogram(self, lo: float, hi: float, bins: int) -> Histogrammer:
        return Histogrammer.from_counts(self.counts, lo, hi, bins)


class ServiceAccount:
    """In-place service accounting carried by one armed server (a global
    memory module): services, request words, a ``{service cycles:
    count}`` table, and busy credit into the optional (shared) ``busy``
    timeline.  :meth:`record` runs once per completed service."""

    __slots__ = ("services", "words", "cycles", "busy")

    def __init__(self, busy: Optional[Timeline] = None) -> None:
        self.busy = busy
        self.clear()

    def clear(self) -> None:
        self.services = 0
        self.words = 0
        self.cycles: Dict[float, int] = {}
        if self.busy is not None:
            self.busy.clear()

    def record(self, words: int, cycles: float, now: float) -> None:
        self.services += 1
        self.words += words
        table = self.cycles
        table[cycles] = table.get(cycles, 0) + 1
        busy = self.busy
        if busy is not None:
            busy.add(now - cycles, cycles)

    def histogram(self, lo: float, hi: float, bins: int) -> Histogrammer:
        return Histogrammer.from_counts(self.cycles, lo, hi, bins)


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    One registry instruments one machine; :meth:`snapshot` flattens
    everything into a JSON-serializable dict for
    :class:`~repro.monitor.report.RunReport`.

    Pull sources (:meth:`add_source`) contribute instruments read from
    component accumulators at call time; each one provides
    ``counters()``, ``levels()``, ``histograms()`` and ``timelines()``,
    each an iterable of ``(name, instrument)`` pairs (a counter's
    instrument is its plain value, a level answers like a
    :class:`TimeWeighted`), listing only instruments that have seen
    traffic.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._time_weighted: Dict[str, TimeWeighted] = {}
        self._histograms: Dict[str, Histogrammer] = {}
        self._timelines: Dict[str, Timeline] = {}
        self._sources: List[object] = []

    def add_source(self, source) -> None:
        """Register a pull source (idempotent)."""
        if source not in self._sources:
            self._sources.append(source)

    # -- get-or-create accessors ------------------------------------------------

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def time_weighted(self, name: str, start_time: float = 0.0) -> TimeWeighted:
        inst = self._time_weighted.get(name)
        if inst is None:
            inst = self._time_weighted[name] = TimeWeighted(name, start_time)
        return inst

    def histogram(
        self, name: str, lo: float = 0.0, hi: float = 64.0, bins: int = 64
    ) -> Histogrammer:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogrammer(lo, hi, bins=bins)
        return inst

    def timeline(self, name: str, bin_cycles: float = 256.0) -> Timeline:
        inst = self._timelines.get(name)
        if inst is None:
            inst = self._timelines[name] = Timeline(name, bin_cycles)
        return inst

    # -- introspection ----------------------------------------------------------
    #
    # Each accessor merges the pushed instruments with what the pull
    # sources report right now.

    def counter_values(self) -> Dict[str, float]:
        values = {name: counter.value for name, counter in self._counters.items()}
        for source in self._sources:
            values.update(source.counters())
        return values

    def levels(self) -> Dict[str, object]:
        """Time-weighted instruments: :class:`TimeWeighted` or pulled
        :class:`Occupancy` accumulators."""
        levels: Dict[str, object] = dict(self._time_weighted)
        for source in self._sources:
            levels.update(source.levels())
        return levels

    def histograms(self) -> Dict[str, Histogrammer]:
        hists = dict(self._histograms)
        for source in self._sources:
            hists.update(source.histograms())
        return hists

    def timelines(self) -> Dict[str, Timeline]:
        timelines = dict(self._timelines)
        for source in self._sources:
            timelines.update(source.timelines())
        return timelines

    def names(self) -> List[str]:
        out = set(self.counter_values()) | set(self._gauges) | set(self.levels())
        out |= set(self.histograms()) | set(self.timelines())
        return sorted(out)

    def __len__(self) -> int:
        return len(self.names())

    def snapshot(self, now: Optional[float] = None) -> Dict[str, object]:
        """Flatten every instrument into plain JSON types.

        Histograms and distributions are summarized (samples, mean,
        p50/p95) rather than dumped bin-by-bin, keeping reports compact.
        """
        snap: Dict[str, object] = dict(self.counter_values())
        for name, gauge in self._gauges.items():
            snap[name] = {
                "value": gauge.value,
                "min": gauge.minimum,
                "max": gauge.maximum,
                "updates": gauge.updates,
            }
        for name, tw in self.levels().items():
            snap[name] = {
                "mean": round(tw.mean(now), 4),
                "max": tw.maximum,
                "final": tw.value,
            }
        for name, hist in self.histograms().items():
            entry: Dict[str, object] = {"samples": hist.samples}
            if hist.samples:
                entry["mean"] = round(hist.mean(), 4)
                entry["p50"] = round(hist.percentile(0.5), 4)
                entry["p95"] = round(hist.percentile(0.95), 4)
            snap[name] = entry
        for name, timeline in self.timelines().items():
            fractions = timeline.fractions()
            snap[name] = {
                "bins": len(fractions),
                "bin_cycles": timeline.bin_cycles,
                "busy_cycles": round(timeline.busy_cycles(), 4),
                "peak_fraction": round(timeline.peak_fraction(), 4),
                "mean_fraction": round(
                    sum(fractions.values()) / len(fractions), 4
                )
                if fractions
                else 0.0,
            }
        return snap


def component_path(kind: str, *indices: Tuple) -> str:
    """Canonical metric-path builder: ``component_path("gmem.module", 12)``
    -> ``"gmem.module[12]"``."""
    path = kind
    for index in indices:
        path += f"[{index}]"
    return path
