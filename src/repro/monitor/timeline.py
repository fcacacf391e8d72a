"""Time-resolved observability: interval metric timelines.

Everything else in the monitor package answers *what happened over the
whole run* — end-of-run :meth:`MetricsRegistry.snapshot`, per-request
spans, streaming sketches.  This module answers **when**: a
:class:`MetricTimeline` samples a machine every ``interval_cycles`` of
simulated time and keeps one value per interval for a fixed set of
series — engine event volume, per-stage omega link busy cycles,
memory-module occupancy, queue depths, in-flight work, fault rates.

Sampling rides the zero-cost engine pulse
(:meth:`~repro.core.engine.Engine.attach_pulse`, PR 7): the pulse hook
fires on the watchdog check cadence (every ~4096 processed events),
reads ``engine.now``, and closes an interval whenever simulated time
has crossed the next interval edge.  The hook only *reads* machine
state — cumulative :class:`~repro.network.resource.ResourceStats`
counters, queue depths, engine self-metrics — so a timeline-enabled
run is cycle-bit-identical to a bare one (``tests/test_zero_cost.py``
asserts it), and a machine with no recorder attached pays nothing at
all.

Experiment code builds its machines internally, so the recorder reaches
them from outside: ``with observe(TimelineRecorder()):`` (see
:func:`repro.experiments.runner.observe`) arms one timeline on every
machine built inside the block and detaches it on exit.

Bounded memory
--------------

A soak-length run (millions of requests, hundreds of thousands of
cycles) would accumulate unbounded intervals at a fixed sampling width.
:class:`MetricTimeline` therefore **coalesces by powers of two**: when
the interval count exceeds ``max_intervals``, adjacent interval pairs
are merged (``delta`` series add, ``gauge`` series keep the max) and
the nominal interval width doubles.  A 1M-request soak holds at most
``max_intervals`` intervals no matter how long it runs — the same
fold-don't-buffer contract the streaming span store makes, enforced by
``benchmarks/memory_gate.py``.

Series kinds
------------

``delta``
    Sampled from a *cumulative* counter (busy cycles, packets, words,
    events, fault counts); the stored value is the increase over the
    interval.  Coalescing adds adjacent values.
``gauge``
    Sampled point-in-time (queue depth, in-flight events); the stored
    value is the reading at the interval's right edge.  Coalescing
    keeps the max — the peak is what hotspot localization wants.

Rendering
---------

Three consumers, one document (:meth:`MetricTimeline.to_dict`,
validated by :func:`validate_timeline`):

* Perfetto counter tracks — :meth:`ChromeTracer.ingest_timeline`
  renders each series as a "C"-phase counter track;
* ASCII sparklines — :func:`repro.monitor.analysis.timeline_report`;
* windowed diffs — ``python -m repro compare`` flattens per-interval
  values so a regression names *which interval* moved, not just that
  the run did.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Dict, List, Optional, Tuple

#: collapses per-instance indexes when aggregating registry instruments
#: (``fwd.s0[3].queue_words`` -> ``fwd.s0.queue_words``).
_INDEX_RE = re.compile(r"\[\d+\]")

#: timeline document format version (bump on breaking shape changes).
TIMELINE_VERSION = 1

#: default sampling width in simulated cycles.  At the standard kernel
#: workload (~1.7k cycles) this yields a few dozen intervals; soak runs
#: coalesce up from here.
DEFAULT_INTERVAL_CYCLES = 64.0

#: interval-count bound: one past this triggers a power-of-two coalesce,
#: so a run of any length holds at most this many intervals.
MAX_INTERVALS = 512

KIND_DELTA = "delta"
KIND_GAUGE = "gauge"
_KINDS = (KIND_DELTA, KIND_GAUGE)


class SeriesProbe:
    """One named, typed read-out of live machine state.

    ``read()`` must be a pure observation (no machine mutation): for
    ``delta`` series it returns a cumulative counter, for ``gauge``
    series an instantaneous reading.  ``meta`` carries static rendering
    facts (e.g. ``{"links": 32}`` so a busy-cycles series can be shown
    as utilization).
    """

    __slots__ = ("name", "kind", "read", "meta")

    def __init__(
        self,
        name: str,
        kind: str,
        read: Callable[[], float],
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown series kind {kind!r}; use {_KINDS}")
        self.name = name
        self.kind = kind
        self.read = read
        self.meta = dict(meta) if meta else {}


class MetricTimeline:
    """Per-interval series over one machine's run, bounded in memory.

    Drive it from an engine pulse (:meth:`maybe_sample` per pulse) and
    close the tail interval with :meth:`finalize` once the run ends::

        timeline = MetricTimeline(machine_probes(machine.ctx))
        machine.engine.attach_pulse(timeline.pulse)
        machine.run_programs(...)
        timeline.finalize(machine.engine.now)
        doc = timeline.to_dict()
    """

    def __init__(
        self,
        probes,
        interval_cycles: float = DEFAULT_INTERVAL_CYCLES,
        max_intervals: int = MAX_INTERVALS,
        registry=None,
    ) -> None:
        if interval_cycles <= 0:
            raise ValueError("interval_cycles must be positive")
        if max_intervals < 2:
            raise ValueError("max_intervals must be at least 2")
        # ``probes`` may be a zero-arg callable resolved at the first
        # sample: context observers fire before machine assembly, so a
        # recorder installed machine-wide must defer the component walk
        # until the components exist.
        if callable(probes):
            self._probe_factory = probes
            self.probes: List[SeriesProbe] = []
        else:
            self._probe_factory = None
            self.probes = list(probes)
            self._check_probe_names()
        #: nominal sampling width; doubles on every coalesce.
        self.interval_cycles = float(interval_cycles)
        self.initial_interval_cycles = float(interval_cycles)
        self.max_intervals = max_intervals
        #: optional :class:`~repro.monitor.metrics.MetricsRegistry` whose
        #: counters / time-weighted values are snapshotted per interval
        #: as dynamic ``reg.*`` series (instruments appear lazily, so
        #: late arrivals are zero-backfilled).
        self.registry = registry
        self.coalesces = 0
        self.samples_taken = 0
        #: right edge (sample time) per closed interval; interval ``i``
        #: covers ``(edges[i-1], edges[i]]`` with an implicit 0.0 start.
        self._edges: List[float] = []
        self._values: Dict[str, List[float]] = {p.name: [] for p in self.probes}
        self._kinds: Dict[str, str] = {p.name: p.kind for p in self.probes}
        self._meta: Dict[str, Dict[str, object]] = {
            p.name: p.meta for p in self.probes if p.meta
        }
        self._cum: Dict[str, float] = {
            p.name: 0.0 for p in self.probes if p.kind == KIND_DELTA
        }
        self._next_edge = self.interval_cycles

    def _check_probe_names(self) -> None:
        names = [p.name for p in self.probes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate series names in probes: {names}")

    def _resolve_probes(self) -> None:
        self.probes = list(self._probe_factory())
        self._probe_factory = None
        self._check_probe_names()
        for p in self.probes:
            self._values[p.name] = []
            self._kinds[p.name] = p.kind
            if p.meta:
                self._meta[p.name] = p.meta
            if p.kind == KIND_DELTA:
                self._cum[p.name] = 0.0

    # -- sampling ----------------------------------------------------------

    def pulse(self, engine) -> None:
        """Engine-pulse entry point (``attach_pulse(timeline.pulse)``)."""
        now = engine.now
        if now >= self._next_edge:
            self._sample(now)

    def maybe_sample(self, now: float) -> None:
        """Close an interval iff ``now`` crossed the next interval edge."""
        if now >= self._next_edge:
            self._sample(now)

    def finalize(self, now: float) -> None:
        """Close the partial tail interval at ``now`` (idempotent: a
        ``now`` at or before the last sample records nothing)."""
        last = self._edges[-1] if self._edges else 0.0
        if now > last:
            self._sample(now)

    def _sample(self, now: float) -> None:
        if self._probe_factory is not None:
            self._resolve_probes()
        values = self._values
        cum = self._cum
        for probe in self.probes:
            current = float(probe.read())
            if probe.kind == KIND_DELTA:
                values[probe.name].append(current - cum[probe.name])
                cum[probe.name] = current
            else:
                values[probe.name].append(current)
        if self.registry is not None:
            self._sample_registry()
        self._edges.append(now)
        self.samples_taken += 1
        # re-anchor on the grid: a pulse lands *past* the edge, and a
        # long event gap may skip several edges — the skipped span is
        # folded into this one wider interval rather than faked as
        # empty intervals that were never actually sampled.
        grid = self.interval_cycles
        self._next_edge = (now // grid + 1.0) * grid
        if len(self._edges) > self.max_intervals:
            self._coalesce()

    def _sample_registry(self) -> None:
        """Snapshot the registry's numeric instruments as dynamic
        ``reg.*`` series.  Instruments are keyed per component instance
        (``fwd.s0[3].queue_words``); one series per instance would blow
        the document up, so indexes collapse and instances sum into one
        series per instrument group (``reg.fwd.s0.queue_words``).
        Instruments appear only once they have seen traffic, so a group
        first seen mid-run is backfilled with zeros."""
        n = len(self._edges)  # intervals already closed (pre-append)
        registry = self.registry
        groups: Dict[str, float] = {}
        for name, value in registry.counter_values().items():
            key = "reg." + _INDEX_RE.sub("", name)
            groups[key] = groups.get(key, 0.0) + value
        for key, total in sorted(groups.items()):
            self._append_dynamic(key, KIND_DELTA, total, n)
        groups = {}
        for name, tw in registry.levels().items():
            key = "reg." + _INDEX_RE.sub("", name)
            groups[key] = groups.get(key, 0.0) + tw.value
        for key, total in sorted(groups.items()):
            self._append_dynamic(key, KIND_GAUGE, total, n)

    def _append_dynamic(self, key: str, kind: str, current: float, n: int) -> None:
        if self._kinds.get(key, kind) != kind:
            return  # name collision across instrument kinds: first wins
        series = self._values.get(key)
        if series is None:
            series = self._values[key] = [0.0] * n
            self._kinds[key] = kind
            if kind == KIND_DELTA:
                self._cum[key] = 0.0
        elif len(series) < n:
            series.extend([0.0] * (n - len(series)))
        if kind == KIND_DELTA:
            series.append(float(current) - self._cum[key])
            self._cum[key] = float(current)
        else:
            series.append(float(current))

    # -- power-of-two coalescing -------------------------------------------

    def _coalesce(self) -> None:
        """Merge adjacent interval pairs in place; the nominal width
        doubles, so N coalesces bound any run to ``max_intervals``
        intervals at ``2^N`` times the initial width."""
        edges = self._edges
        merged_edges = edges[1::2]
        if len(edges) % 2:
            merged_edges.append(edges[-1])
        self._edges = merged_edges
        for name, series in self._values.items():
            if len(series) < len(edges):  # dynamic series: pad first
                series.extend([0.0] * (len(edges) - len(series)))
            if self._kinds[name] == KIND_DELTA:
                merged = [
                    series[i] + series[i + 1]
                    for i in range(0, len(series) - 1, 2)
                ]
            else:
                merged = [
                    max(series[i], series[i + 1])
                    for i in range(0, len(series) - 1, 2)
                ]
            if len(series) % 2:
                merged.append(series[-1])
            self._values[name] = merged
        self.interval_cycles *= 2.0
        self.coalesces += 1
        grid = self.interval_cycles
        last = self._edges[-1] if self._edges else 0.0
        self._next_edge = (last // grid + 1.0) * grid

    # -- results -----------------------------------------------------------

    @property
    def intervals(self) -> int:
        return len(self._edges)

    def edges(self) -> List[float]:
        return list(self._edges)

    def series(self, name: str) -> List[float]:
        return list(self._values[name])

    def series_names(self) -> List[str]:
        return sorted(self._values)

    def to_dict(self) -> Dict[str, object]:
        """The JSON-serializable timeline document (see
        :func:`validate_timeline` for the schema contract)."""
        return {
            "version": TIMELINE_VERSION,
            "interval_cycles": self.interval_cycles,
            "initial_interval_cycles": self.initial_interval_cycles,
            "max_intervals": self.max_intervals,
            "coalesces": self.coalesces,
            "intervals": len(self._edges),
            "edges": [round(e, 6) for e in self._edges],
            "series": {
                name: {
                    "kind": self._kinds[name],
                    "values": [round(v, 6) for v in values],
                    **(
                        {"meta": self._meta[name]}
                        if name in self._meta
                        else {}
                    ),
                }
                for name, values in sorted(self._values.items())
            },
        }


# ---------------------------------------------------------------------------
# probe construction: what a Cedar machine exposes per interval


def _is_network(component) -> bool:
    """Duck-typed OmegaNetwork check (covers injection-view variants)."""
    return hasattr(component, "stages") and hasattr(component, "injection_ports")


def machine_probes(ctx) -> List[SeriesProbe]:
    """The standard probe set over one ``SimContext``'s components:
    engine volume and queue depths, per-stage network busy cycles and
    delivered words, injection-queue occupancy, memory-module busy
    cycles / words / queue state, and fault counts when an injector is
    armed.  Shared-fabric variants alias stage lists between the two
    network components; each physical stage is probed once."""
    engine = ctx.engine
    probes = [
        SeriesProbe("engine.events", KIND_DELTA,
                    lambda: engine.events_processed),
        SeriesProbe("engine.pending", KIND_GAUGE, engine.pending),
    ]
    seen_stages = set()
    for name, component in ctx.components():
        if _is_network(component):
            ports = component.injection_ports
            probes.append(SeriesProbe(
                f"{name}.inject.queued_words", KIND_GAUGE,
                lambda ports=ports: sum(p.queued_words for p in ports),
                meta={"ports": len(ports)},
            ))
            if id(component.stages) in seen_stages:
                continue  # shared fabric: already probed via the twin
            seen_stages.add(id(component.stages))
            for idx, stage in enumerate(component.stages):
                probes.append(SeriesProbe(
                    f"{name}.s{idx}.busy", KIND_DELTA,
                    lambda stage=stage: sum(
                        r.stats.busy_cycles for r in stage
                    ),
                    meta={"links": len(stage)},
                ))
            last = component.stages[-1]
            probes.append(SeriesProbe(
                f"{name}.words", KIND_DELTA,
                lambda last=last: sum(r.stats.words for r in last),
            ))
        elif hasattr(component, "modules"):  # GlobalMemory
            modules = component.modules
            probes.extend([
                SeriesProbe(
                    f"{name}.busy", KIND_DELTA,
                    lambda modules=modules: sum(
                        m.stats.busy_cycles for m in modules
                    ),
                    meta={"links": len(modules)},
                ),
                SeriesProbe(
                    f"{name}.words", KIND_DELTA,
                    lambda modules=modules: sum(
                        m.stats.words for m in modules
                    ),
                ),
                SeriesProbe(
                    f"{name}.queued_words", KIND_GAUGE,
                    lambda modules=modules: sum(
                        m.queued_words for m in modules
                    ),
                ),
                SeriesProbe(
                    f"{name}.queued_pkts", KIND_GAUGE,
                    lambda modules=modules: sum(
                        m.queued_packets for m in modules
                    ),
                ),
            ])
        elif hasattr(component, "transients"):  # FaultInjector
            injector = component
            probes.extend([
                SeriesProbe(
                    f"{name}.events", KIND_DELTA,
                    lambda injector=injector: (
                        injector.transients + injector.port_downs
                        + injector.ecc_retries + injector.sync_timeouts
                        + injector.rerouted
                    ),
                ),
                SeriesProbe(
                    f"{name}.ports_down", KIND_GAUGE,
                    lambda injector=injector: len(injector._down),
                ),
            ])
    return probes


# ---------------------------------------------------------------------------
# the recorder: per-machine observer for experiment code


def arm_machine_timeline(ctx, interval_cycles: float, **kwargs) -> MetricTimeline:
    """Attach a :class:`MetricTimeline` over :func:`machine_probes` to
    ``ctx``'s engine pulse and return it; ``kwargs`` go to the
    timeline.  Observers fire before machine assembly, so the component
    walk is deferred to the first pulse via a probe factory.  Undo with
    ``ctx.engine.detach_pulse()``."""
    timeline = MetricTimeline(
        lambda: machine_probes(ctx), interval_cycles=interval_cycles, **kwargs
    )
    ctx.engine.attach_pulse(timeline.pulse)
    return timeline


class TimelineRecorder:
    """Attach a :class:`MetricTimeline` to every machine built under
    :func:`~repro.experiments.runner.observe`.

    Same shape as :class:`~repro.monitor.report.ReportCollector` /
    :class:`~repro.monitor.telemetry.HeartbeatEmitter`: called with each
    new machine, it arms an engine pulse, so experiment code that
    builds machines internally gets timelines without modification::

        recorder = TimelineRecorder(interval_cycles=64.0)
        with observe(recorder):
            experiment.runner(...)
        docs = recorder.documents()
    """

    def __init__(
        self,
        interval_cycles: float = DEFAULT_INTERVAL_CYCLES,
        max_intervals: int = MAX_INTERVALS,
    ) -> None:
        self.interval_cycles = interval_cycles
        self.max_intervals = max_intervals
        self._records: List[tuple] = []  # (ctx, timeline)

    def __call__(self, ctx) -> Callable[[], object]:
        timeline = arm_machine_timeline(
            ctx, self.interval_cycles, max_intervals=self.max_intervals
        )
        self._records.append((ctx, timeline))
        return ctx.engine.detach_pulse

    # -- results -----------------------------------------------------------

    @property
    def machines(self) -> int:
        return len(self._records)

    def timelines(self) -> List[MetricTimeline]:
        return [timeline for _ctx, timeline in self._records]

    def documents(self) -> List[Dict[str, object]]:
        """One finalized timeline document per machine (closing each
        machine's partial tail interval at its engine's current time)."""
        out = []
        for ctx, timeline in self._records:
            timeline.finalize(ctx.engine.now)
            out.append(timeline.to_dict())
        return out


# ---------------------------------------------------------------------------
# validation (the CI artifact check, like validate_spans / _chrome_trace)


def validate_timeline(doc: Dict) -> Tuple[int, int]:
    """Check one timeline document against the schema essentials.

    Returns ``(n_series, n_intervals)``; raises ``ValueError`` on
    malformation: unknown version, non-monotonic edges, a series whose
    length disagrees with the edge count, an unknown kind, or a
    non-finite value.
    """
    if not isinstance(doc, dict):
        raise ValueError("timeline document must be an object")
    if doc.get("version") != TIMELINE_VERSION:
        raise ValueError(
            f"unknown timeline version {doc.get('version')!r} "
            f"(expected {TIMELINE_VERSION})"
        )
    width = doc.get("interval_cycles")
    if not isinstance(width, (int, float)) or width <= 0:
        raise ValueError(f"interval_cycles must be positive: {width!r}")
    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise ValueError("timeline document missing its edges array")
    last = 0.0
    for edge in edges:
        if not isinstance(edge, (int, float)) or edge <= last:
            raise ValueError(
                f"edges must be strictly increasing and positive: {edges!r}"
            )
        last = edge
    if doc.get("intervals") != len(edges):
        raise ValueError(
            f"intervals field ({doc.get('intervals')!r}) disagrees with "
            f"edge count ({len(edges)})"
        )
    series = doc.get("series")
    if not isinstance(series, dict):
        raise ValueError("timeline document missing its series map")
    for name, entry in series.items():
        if not isinstance(entry, dict):
            raise ValueError(f"series {name!r} is not an object")
        if entry.get("kind") not in _KINDS:
            raise ValueError(
                f"series {name!r} has unknown kind {entry.get('kind')!r}"
            )
        values = entry.get("values")
        if not isinstance(values, list) or len(values) != len(edges):
            raise ValueError(
                f"series {name!r} has {len(values) if isinstance(values, list) else 'no'} "
                f"values for {len(edges)} intervals"
            )
        for value in values:
            if not isinstance(value, (int, float)) or value != value:
                raise ValueError(
                    f"series {name!r} holds a non-numeric value: {value!r}"
                )
    return len(series), len(edges)


def validate_timeline_file(path) -> Tuple[int, int]:
    """Load ``path`` (one document, or a ``{"machines": [...]}`` bundle
    written by ``python -m repro timeline --out``) and validate every
    document in it; returns summed ``(n_series, n_intervals)``."""
    with open(path) as fh:
        doc = json.load(fh)
    docs = doc["machines"] if isinstance(doc, dict) and "machines" in doc else [doc]
    if not docs:
        raise ValueError(f"no timeline documents in {path}")
    totals = [0, 0]
    for entry in docs:
        n_series, n_intervals = validate_timeline(entry)
        totals[0] += n_series
        totals[1] += n_intervals
    return totals[0], totals[1]
