"""Post-run analysis of a simulated machine.

Turns the per-resource statistics every simulation accumulates into the
reports a performance engineer wants: utilization by subsystem, the
bottleneck ranking, and an ASCII heat strip of the network stages.
This is the software half of the paper's performance-monitoring story —
the hardware tracers/histogrammers collect, these tools interpret.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.machine import CedarMachine
from repro.monitor.spans import LatencyAnalysis, PHASES, RequestSpan
from repro.network.resource import Resource
from repro.util.ascii_chart import line_chart, sparkline
from repro.util.tables import Table


@dataclass(frozen=True)
class ResourceReport:
    name: str
    utilization: float
    blocked_fraction: float
    packets: int
    words: int

    @property
    def pressure(self) -> float:
        """Utilization plus blocking: how contended the resource is."""
        return self.utilization + self.blocked_fraction


def _report(resource: Resource, elapsed: float) -> ResourceReport:
    blocked = resource.stats.blocked_cycles / elapsed if elapsed > 0 else 0.0
    return ResourceReport(
        name=resource.name,
        utilization=resource.utilization(elapsed),
        blocked_fraction=min(1.0, blocked),
        packets=resource.stats.packets,
        words=resource.stats.words,
    )


def machine_resources(machine: CedarMachine) -> List[Resource]:
    """Every queueing resource in the machine, in a stable order.

    Shared-fabric configurations alias stage links between the two
    network objects; each physical resource is listed once.
    """
    out: List[Resource] = []
    seen = set()

    def add(resource: Resource) -> None:
        if id(resource) not in seen:
            seen.add(id(resource))
            out.append(resource)

    nets = [machine.forward_network]
    if machine.reverse_network is not machine.forward_network:
        nets.append(machine.reverse_network)
    for net in nets:
        for port in net.injection_ports:
            add(port)
        for stage in net.stages:
            for link in stage:
                add(link)
    for module in machine.gmem.modules:
        add(module)
    for cluster in machine.clusters:
        add(cluster.cache)
        add(cluster.cluster_memory)
    return out


def utilization_report(
    machine: CedarMachine, elapsed: Optional[float] = None
) -> Dict[str, float]:
    """Mean utilization per subsystem."""
    elapsed = elapsed if elapsed is not None else machine.engine.now
    groups: Dict[str, List[float]] = {}
    for resource in machine_resources(machine):
        name = resource.name
        if name.startswith("gm["):
            key = "global memory modules"
        elif ".inject" in name:
            key = "network injection ports"
        elif ".s0" in name or ".s1" in name or ".s2" in name:
            key = "network stage links"
        elif name.endswith(".cache"):
            key = "cluster caches"
        elif name.endswith(".cmem"):
            key = "cluster memories"
        else:
            key = "other"
        groups.setdefault(key, []).append(resource.utilization(elapsed))
    return {key: sum(v) / len(v) for key, v in groups.items() if v}


def bottlenecks(
    machine: CedarMachine, top: int = 5, elapsed: Optional[float] = None
) -> List[ResourceReport]:
    """The most contended individual resources, by pressure."""
    if top < 1:
        raise ValueError("top must be positive")
    elapsed = elapsed if elapsed is not None else machine.engine.now
    reports = [_report(r, elapsed) for r in machine_resources(machine)]
    reports.sort(key=lambda r: r.pressure, reverse=True)
    return reports[:top]


_SHADES = " .:-=+*#%@"


def stage_heat_strip(machine: CedarMachine, elapsed: Optional[float] = None) -> str:
    """One character per network link, per stage: utilization 0..1 as
    a density shade — the at-a-glance view of where traffic piles up."""
    elapsed = elapsed if elapsed is not None else machine.engine.now
    lines = []
    nets = [("fwd", machine.forward_network)]
    if machine.reverse_network is not machine.forward_network:
        nets.append(("rev", machine.reverse_network))
    for label, net in nets:
        for stage_idx, stage in enumerate(net.stages):
            cells = []
            for link in stage:
                u = link.utilization(elapsed)
                cells.append(_SHADES[min(len(_SHADES) - 1, int(u * len(_SHADES)))])
            lines.append(f"{label}.s{stage_idx} |{''.join(cells)}|")
    modules = machine.gmem.modules
    cells = []
    for module in modules:
        u = module.utilization(elapsed)
        cells.append(_SHADES[min(len(_SHADES) - 1, int(u * len(_SHADES)))])
    lines.append(f"gm     |{''.join(cells)}|")
    lines.append("        utilization shade: ' '=idle .. '@'=saturated")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# timeline rendering (the `repro timeline` output)


def timeline_report(doc: Dict, width: int = 64) -> str:
    """Sparkline view of one timeline document
    (:meth:`~repro.monitor.timeline.MetricTimeline.to_dict`): one row
    per series, per-interval values as density shades, so the question
    "when did the network saturate / the queues back up?" is answered
    by scanning a column of the terminal.  Flat all-zero series are
    summarized in one count line instead of printed — a quiet fault
    injector shouldn't cost thirty blank rows."""
    edges = doc.get("edges", [])
    if not edges:
        return "timeline: no intervals sampled (run shorter than one interval?)"
    header = (
        f"timeline: {doc.get('intervals', len(edges))} intervals x "
        f"{doc.get('interval_cycles', 0.0):g} cycles"
        f" (sampled at {doc.get('initial_interval_cycles', 0.0):g}, "
        f"{doc.get('coalesces', 0)} coalesce(s)), "
        f"0..{edges[-1]:g} cycles"
    )
    name_width = max(
        (len(name) for name in doc.get("series", {})), default=0
    )
    lines = [header, ""]
    flat = 0
    for name, entry in sorted(doc.get("series", {}).items()):
        values = entry.get("values", [])
        if not any(values):
            flat += 1
            continue
        peak = max(values)
        spark = sparkline(values, width=width, lo=0.0, hi=peak)
        lines.append(
            f"  {name:<{name_width}} |{spark}| "
            f"peak {peak:g} ({entry.get('kind', '?')})"
        )
    if flat:
        lines.append(f"  ({flat} all-zero series not shown)")
    lines.append(
        "  shade: ' '=0 .. '@'=series peak; each cell is one interval"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# request-latency rendering (the `repro analyze` output)

#: waterfall glyph per phase, in timeline order.
_PHASE_GLYPHS = dict(zip(PHASES, "fwsbr"))


def latency_tables(analysis: LatencyAnalysis) -> str:
    """The per-phase / per-stage / per-origin decomposition tables."""
    phase_table = Table(
        title="latency decomposition by phase (cycles)",
        columns=["phase", "n", "mean", "p50", "p90", "p95", "p99", "max", "share%"],
    )
    for phase, row in analysis.phase_decomposition().items():
        phase_table.add_row([
            phase, row["count"], row["mean"], row["p50"], row["p90"],
            row["p95"], row["p99"], row["max"], 100.0 * row["share"],
        ])
    stage_table = Table(
        title="queue wait vs. service per stage (cycles/traversal)",
        columns=["stage", "traversals", "queue_wait", "service", "blocked", "share%"],
        precision=2,
    )
    for stage, row in analysis.stage_decomposition().items():
        stage_table.add_row([
            stage, row["traversals"], row["queue_wait"], row["service"],
            row["blocked"], 100.0 * row["share"],
        ])
    origin_table = Table(
        title="end-to-end latency by origin (cycles)",
        columns=["origin", "n", "mean", "p50", "p90", "p95", "p99", "max"],
    )
    for origin, row in analysis.end_to_end().items():
        origin_table.add_row([
            origin, row["count"], row["mean"], row["p50"], row["p90"],
            row["p95"], row["p99"], row["max"],
        ])
    rendered = "\n\n".join(
        t.render() for t in (phase_table, stage_table, origin_table)
    )
    dropped = analysis.dropped
    if dropped:
        rendered += (
            f"\n(population truncated: {dropped} requests dropped at the "
            f"collector cap)"
        )
    return rendered


def latency_distribution_chart(
    analysis: LatencyAnalysis, width: int = 64, height: int = 12
) -> str:
    """End-to-end latency quantile curve (x: percentile, y: cycles)."""
    qs = [i / 100.0 for i in range(1, 100)]
    values = analysis.quantile_curve(qs)
    points = [(q * 100.0, value) for q, value in zip(qs, values)]
    return line_chart(
        {"latency": points},
        width=width,
        height=height,
        title="end-to-end latency quantiles",
        x_label="percentile",
        y_label="cycles",
    )


def _waterfall_row(span: RequestSpan, scale: float, width: int) -> str:
    phases = span.phases()
    bar = []
    for phase in PHASES:
        cells = int(round(phases[phase] * scale))
        bar.append(_PHASE_GLYPHS[phase] * cells)
    bar = "".join(bar)[:width].ljust(width)
    notes = ""
    if span.faults:
        kinds = sorted({fault["type"] for fault in span.faults})
        notes = "  !" + ",".join(kinds)
    return (
        f"#{span.request_id:<8d} {span.origin:<8s} port {span.port:<3d} "
        f"{span.latency:8.1f} cy |{bar}|{notes}"
    )


def span_waterfalls(
    analysis: LatencyAnalysis, top: int = 5, width: int = 56
) -> str:
    """Slowest-``top`` request waterfalls: one bar per request, phases
    as glyph runs proportional to their share of the slowest latency."""
    slowest = analysis.slowest(top)
    if not slowest:
        return "no completed requests"
    scale = width / max(s.latency for s in slowest)
    legend = "  ".join(f"{g}={p}" for p, g in _PHASE_GLYPHS.items())
    lines = [f"slowest {len(slowest)} requests  ({legend})"]
    lines.extend(_waterfall_row(span, scale, width) for span in slowest)
    return "\n".join(lines)


def latency_report(analysis: LatencyAnalysis, top: int = 5) -> str:
    """The full `repro analyze` text block: tables, quantile chart,
    bottleneck attribution, exemplar waterfalls, reconciliation check."""
    if not analysis.requests:
        return "no completed request spans collected"
    parts = []
    dropped = analysis.dropped
    if dropped:
        parts.append(
            f"WARNING: {dropped} requests were dropped at the collector's "
            f"cap — the tables below describe a truncated population "
            f"(use --stream or raise max_requests for full coverage)"
        )
    parts.extend([latency_tables(analysis), latency_distribution_chart(analysis)])
    attribution = analysis.bottleneck_attribution()
    if attribution:
        worst = attribution[0]
        parts.append(
            f"bottleneck: stage {worst['stage']!r} contributes "
            f"{100.0 * worst['share']:.0f}% of p95-cohort latency"
        )
    parts.append(span_waterfalls(analysis, top=top))
    parts.append(
        f"phase sums reconcile with end-to-end latency to within "
        f"{analysis.reconciliation_error():.3g} cycles "
        f"(bound: 1 cycle/request)"
    )
    return "\n\n".join(parts)
