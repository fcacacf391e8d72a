"""Structured run reports: what one experiment run actually did.

A :class:`RunReport` is the machine-readable record of one registered
experiment execution — configuration hash, simulated time, engine
self-metrics (events dispatched, pending work), and a metrics snapshot
from the standard utilization monitors.  It holds only simulated facts,
so the same run always serializes (:func:`report_json`) to the same
bytes; wall time is reported where it is measured (run-all's section
headers and summary line, telemetry, heartbeats).
``python -m repro run-all`` emits one JSON report per artifact and
``python -m repro report`` aggregates a directory of them.

Collection runs under :func:`repro.experiments.runner.observe`: inside
``with observe(collector):`` every machine built anywhere in the
process — including deep inside experiment code — gets a
:class:`~repro.monitor.metrics.MetricsRegistry` plus the standard
monitor set: in-place accounting armed on its links, memory modules and
cluster banks as they are assembled (read back when the report is
built), and subscribers on its cold signals.  Monitors only observe, so
the simulated results are bit-identical with or without collection.

Reports have one mode: each machine's buffered
:class:`~repro.monitor.spans.SpanCollector` keeps one record per
signal.  Building a machine folds the buffers of the earlier machines
whose engines are idle (:meth:`~repro.monitor.spans.SpanCollector.fold`):
nothing is in flight there, so the latency summary stays exact while
one raw buffer is alive at a time.  Contexts and registries live until
the report is built.  (The bounded-memory
:class:`~repro.monitor.streamstore.StreamingSpanStore` serves
``analyze --stream``, ``compare --stream`` and the soak, not reports.)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.monitor.metrics import MetricsRegistry
from repro.monitor.monitors import attach_standard_monitors, detach_monitors
from repro.monitor.spans import SpanCollector

#: report format version (bump on breaking shape changes).
#: v3: streaming collection mode — the per-machine ``latency`` summary
#: may carry ``"mode": "streaming"`` plus serialized sketch state.
#: v4: time-resolved collection — per-machine records may carry a
#: ``timeline`` section (:meth:`MetricTimeline.to_dict`); readers must
#: tolerate its absence (timelines are opt-in).
#: v5: simulated facts only — ``elapsed_s``, ``cached`` and the engine's
#: ``events_per_sec``, ``run_wall_s`` and ``queue_depth_*`` are gone.
REPORT_VERSION = 5

#: default on-disk report location (repo-/cwd-relative), one JSON per
#: artifact, written by ``python -m repro run-all``.
DEFAULT_REPORT_DIR = ".repro-reports"


def report_json(report: Dict[str, object]) -> str:
    """``report`` as the canonical report text: one-space indent,
    sorted keys, trailing newline — what run-all writes to
    ``.repro-reports/`` and ``python -m repro report EXPERIMENT``
    prints, so equal reports are equal bytes."""
    return json.dumps(report, indent=1, sort_keys=True) + "\n"


class ReportCollector:
    """Instrument every SimContext built under
    :func:`~repro.experiments.runner.observe` with the standard monitors
    and a buffered :class:`~repro.monitor.spans.SpanCollector`::

        collector = ReportCollector()
        with observe(collector):
            output = experiment.runner(**kwargs)
        machines = collector.machine_dicts()
    """

    #: per-machine span cap while reporting (smaller than the analyze
    #: CLI's: reports want the decomposition, not every exemplar).
    SPAN_CAP = 100_000

    def __init__(self, timeline: Optional[float] = None) -> None:
        self._records: List[tuple] = []
        #: time-resolved collection: a sampling interval in simulated
        #: cycles arms a :class:`~repro.monitor.timeline.MetricTimeline`
        #: per machine (riding the engine pulse) and adds a ``timeline``
        #: section to each machine record.  ``None`` (the default)
        #: collects nothing and leaves the engine pulse unused.
        self.timeline = timeline

    def __call__(self, ctx) -> Callable[[], None]:
        # an idle engine has nothing in flight, so no later record can
        # name a request its machine traced: fold its buffer
        for earlier, _registry, spans, _timeline in self._records:
            if earlier.engine.pending() == 0:
                spans.fold()
        registry = MetricsRegistry()
        monitors = attach_standard_monitors(ctx, registry)
        spans = SpanCollector(max_requests=self.SPAN_CAP).attach(ctx.bus)
        timeline = None
        if self.timeline is not None:
            from repro.monitor.timeline import arm_machine_timeline

            timeline = arm_machine_timeline(ctx, self.timeline, registry=registry)
        self._records.append((ctx, registry, spans, timeline))

        def undo() -> None:
            detach_monitors(monitors)
            spans.detach()
            if timeline is not None:
                ctx.engine.detach_pulse()

        return undo

    # -- results -----------------------------------------------------------

    @property
    def machines(self) -> int:
        return len(self._records)

    def machine_dicts(self) -> List[Dict[str, object]]:
        """One JSON-ready record per machine built during collection.
        A machine not folded yet (the last one built) is read from its
        buffer in place: folding it first would give the same summary
        and only add the fold's working memory to the peak."""
        out = []
        for ctx, registry, spans, timeline in self._records:
            engine = ctx.engine
            record = {
                "config_hash": ctx.config.stable_hash(),
                "components": len(ctx.names()),
                "sim_cycles": engine.now,
                "engine": engine.self_metrics(),
                "metrics": registry.snapshot(now=engine.now),
            }
            if timeline is not None:
                timeline.finalize(engine.now)
                record["timeline"] = timeline.to_dict()
            record["latency"] = SpanCollector.analyze([spans]).summary()
            out.append(record)
        return out


@dataclass(frozen=True)
class RunReport:
    """The structured record of one experiment execution."""

    experiment: str
    title: str
    kwargs: Dict[str, object]
    machines: List[Dict[str, object]] = field(default_factory=list)
    version: int = REPORT_VERSION

    # -- derived aggregates ------------------------------------------------

    def total_sim_cycles(self) -> float:
        return sum(m.get("sim_cycles", 0.0) for m in self.machines)

    def total_engine_events(self) -> int:
        return sum(
            m.get("engine", {}).get("events_processed", 0) for m in self.machines
        )

    def latency_summary(self) -> Dict[str, object]:
        """Run-level latency rollup over the per-machine span analyses:
        traced-request total, the worst machine p95, and the stage
        that dominates the worst machine's tail."""
        traced = [
            m["latency"] for m in self.machines
            if isinstance(m.get("latency"), dict) and m["latency"].get("requests")
        ]
        summary: Dict[str, object] = {
            "requests": sum(m["requests"] for m in traced),
        }
        p95s = [
            m["end_to_end"]["all"]["p95"]
            for m in traced
            if m.get("end_to_end", {}).get("all")
        ]
        if p95s:
            worst = max(range(len(p95s)), key=lambda i: p95s[i])
            summary["worst_p95_cycles"] = p95s[worst]
            bottleneck = traced[worst].get("bottleneck")
            if bottleneck:
                summary["bottleneck"] = bottleneck
        return summary

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "experiment": self.experiment,
            "title": self.title,
            "kwargs": dict(self.kwargs),
            "machines_built": len(self.machines),
            "total_sim_cycles": self.total_sim_cycles(),
            "total_engine_events": self.total_engine_events(),
            "latency": self.latency_summary(),
            "machines": list(self.machines),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunReport":
        return cls(
            experiment=str(data.get("experiment", "?")),
            title=str(data.get("title", "")),
            kwargs=dict(data.get("kwargs", {})),
            machines=list(data.get("machines", [])),
            version=int(data.get("version", REPORT_VERSION)),
        )


def aggregate_reports(reports: List[Dict[str, object]]) -> Dict[str, object]:
    """Roll a set of report dicts up into fleet-level totals."""
    total_events = sum(r.get("total_engine_events", 0) for r in reports)
    total_cycles = sum(r.get("total_sim_cycles", 0.0) for r in reports)
    return {
        "experiments": len(reports),
        "machines_built": sum(r.get("machines_built", 0) for r in reports),
        "total_sim_cycles": total_cycles,
        "total_engine_events": total_events,
    }


def render_report_summary(reports: List[Dict[str, object]]) -> str:
    """Human-readable rollup of per-artifact reports (the ``python -m
    repro report`` view)."""
    from repro.util.tables import Table

    table = Table(
        title="Run reports",
        columns=["experiment", "machines", "sim cycles", "events"],
        precision=1,
    )
    for report in sorted(reports, key=lambda r: str(r.get("experiment", ""))):
        table.add_row(
            [
                str(report.get("experiment", "?")),
                report.get("machines_built", 0),
                report.get("total_sim_cycles", 0.0),
                report.get("total_engine_events", 0),
            ]
        )
    summary = aggregate_reports(reports)
    lines = [
        table.render(),
        "",
        f"{summary['experiments']} experiments, "
        f"{summary['machines_built']} machines, "
        f"{summary['total_engine_events']} engine events",
    ]
    sparks = _timeline_sparks(reports)
    if sparks:
        lines.extend(["", *sparks])
    return "\n".join(lines)


def _timeline_sparks(reports: List[Dict[str, object]]) -> List[str]:
    """One engine-event sparkline per machine record carrying a
    timeline section — the time-resolved row of the report summary."""
    from repro.util.ascii_chart import sparkline

    lines: List[str] = []
    for report in sorted(reports, key=lambda r: str(r.get("experiment", ""))):
        for i, machine in enumerate(report.get("machines", [])):
            timeline = machine.get("timeline")
            if not isinstance(timeline, dict):
                continue
            series = timeline.get("series", {}).get("engine.events", {})
            values = series.get("values", [])
            if not values:
                continue
            lines.append(
                f"{report.get('experiment', '?')}[m{i}] events/interval "
                f"|{sparkline(values, width=48, lo=0.0)}| "
                f"{timeline.get('intervals', 0)} x "
                f"{timeline.get('interval_cycles', 0.0):g} cycles"
            )
    if lines:
        lines.insert(0, "timelines (engine events per interval):")
    return lines
