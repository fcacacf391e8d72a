"""Cross-run differential reports: ``python -m repro compare A B``.

Loads two runs' worth of structured results — per-experiment
:class:`~repro.monitor.report.RunReport` JSONs (a single file or a
whole ``.repro-reports/`` directory) or, with ``--stream``, merged
streaming spans documents built on the mergeable
:class:`~repro.monitor.sketch.QuantileSketch` — and renders
per-metric and per-quantile deltas.

Only *deterministic simulated* quantities are diffed (simulated
cycles, engine event counts, traced-request counts, latency means and
quantiles, per-interval timeline values): two identical-seed runs
produce exactly zero deltas, so the comparison is a seedable CI gate.
No wall-clock field is diffed because a run report holds none: wall
time is reported where it is measured (run-all's headers, telemetry),
and :func:`report_metrics` picks out the simulated quantities, so
reports written before report version 5 compare the same way.

Significance uses the paper's own stability metric
(:func:`repro.metrics.stability.stability`): a pair ``(a, b)`` is
**significant** when its stability ``min/max`` falls below the
threshold (default 0.98, i.e. a >2% swing).  The CLI exits non-zero
when any significant delta survives — the primitive the sweep engine
and a CI perf gate both want.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.metrics.stability import stability

#: a pair whose min/max stability falls below this is significant
#: (0.98 ~ a swing of more than 2%).
DEFAULT_STABILITY_THRESHOLD = 0.98

#: the quantile columns diffed from latency summaries and sketches.
QUANTILE_KEYS = ("p50", "p90", "p95", "p99")


def pair_stability(a: float, b: float) -> float:
    """St of the two-member ensemble {a, b}: ``min/max`` in (0, 1].

    Degenerate pairs are handled the way a differential report needs:
    exactly equal values (including 0 == 0) are perfectly stable
    (1.0); a zero against a non-zero is maximally unstable (0.0).
    """
    if a == b:
        return 1.0
    if a <= 0.0 or b <= 0.0:
        return 0.0
    return stability([a, b])


@dataclass(frozen=True)
class Delta:
    """One metric's A-vs-B comparison."""

    experiment: str
    metric: str
    a: float
    b: float

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def stability(self) -> float:
        return pair_stability(self.a, self.b)

    def significant(self, threshold: float = DEFAULT_STABILITY_THRESHOLD) -> bool:
        return self.stability < threshold


@dataclass
class CompareResult:
    """All deltas between two runs, plus coverage differences."""

    deltas: List[Delta] = field(default_factory=list)
    #: experiments present in only one side (coverage differences are
    #: always significant: the runs did different work).
    only_a: List[str] = field(default_factory=list)
    only_b: List[str] = field(default_factory=list)
    threshold: float = DEFAULT_STABILITY_THRESHOLD

    @property
    def significant(self) -> List[Delta]:
        return [d for d in self.deltas if d.significant(self.threshold)]

    @property
    def ok(self) -> bool:
        """True when the runs agree: no significant deltas and the same
        experiment coverage."""
        return not self.significant and not self.only_a and not self.only_b


# ---------------------------------------------------------------------------
# loading


def load_reports(path) -> Dict[str, Dict]:
    """Run reports from ``path``: a directory of per-experiment JSONs
    (the ``.repro-reports/`` layout) or a single report file.  Keyed by
    experiment name; raises ``ValueError`` when nothing loads."""
    p = Path(path)
    reports: Dict[str, Dict] = {}
    if p.is_dir():
        for entry in sorted(p.glob("*.json")):
            try:
                doc = json.loads(entry.read_text())
            except ValueError as exc:
                raise ValueError(f"unreadable report {entry}: {exc}")
            reports[str(doc.get("experiment", entry.stem))] = doc
    elif p.is_file():
        doc = json.loads(p.read_text())
        reports[str(doc.get("experiment", p.stem))] = doc
    else:
        raise ValueError(
            f"no reports at {path}; run `python -m repro run-all` first"
        )
    if not reports:
        raise ValueError(
            f"no reports under {path}/; run `python -m repro run-all` first"
        )
    return reports


# ---------------------------------------------------------------------------
# report comparison


def _timeline_rows(machine: Dict, prefix: str) -> Dict[str, float]:
    """The windowed timeline metrics of one machine record: one row per
    series per interval (``m0.timeline[net.fwd.s1.busy].i004``), so a
    regression is localized to *which interval* moved, not just that
    the run's totals drifted.  Interval geometry rows catch the
    structural drift case (different widths stop the per-interval rows
    from meaning the same window)."""
    rows: Dict[str, float] = {}
    timeline = machine.get("timeline")
    if not isinstance(timeline, dict):
        return rows
    rows[f"{prefix}timeline.intervals"] = float(timeline.get("intervals", 0))
    rows[f"{prefix}timeline.interval_cycles"] = float(
        timeline.get("interval_cycles", 0.0)
    )
    series = timeline.get("series")
    if not isinstance(series, dict):
        return rows
    for name, entry in sorted(series.items()):
        values = entry.get("values") if isinstance(entry, dict) else None
        if not isinstance(values, list):
            continue
        base = f"{prefix}timeline[{name}].i"
        for k, value in enumerate(values):
            if isinstance(value, (int, float)):
                rows[f"{base}{k:03d}"] = float(value)
    return rows


def _latency_rows(machine: Dict, prefix: str) -> Dict[str, float]:
    """The deterministic latency metrics of one machine record."""
    rows: Dict[str, float] = {}
    latency = machine.get("latency")
    if not isinstance(latency, dict) or not latency.get("requests"):
        return rows
    rows[f"{prefix}traced_requests"] = float(latency["requests"])
    for origin, table in sorted(latency.get("end_to_end", {}).items()):
        if not isinstance(table, dict):
            continue
        base = f"{prefix}latency[{origin}]."
        for key in ("count", "mean", "max") + QUANTILE_KEYS:
            value = table.get(key)
            if isinstance(value, (int, float)):
                rows[base + key] = float(value)
    return rows


def report_metrics(report: Dict) -> Dict[str, float]:
    """Flatten one RunReport dict into its deterministic simulated
    metrics."""
    rows: Dict[str, float] = {
        "total_sim_cycles": float(report.get("total_sim_cycles", 0.0)),
        "total_engine_events": float(report.get("total_engine_events", 0)),
        "machines_built": float(report.get("machines_built", 0)),
    }
    for i, machine in enumerate(report.get("machines", [])):
        prefix = f"m{i}."
        cycles = machine.get("sim_cycles")
        if isinstance(cycles, (int, float)):
            rows[f"{prefix}sim_cycles"] = float(cycles)
        events = machine.get("engine", {}).get("events_processed")
        if isinstance(events, (int, float)):
            rows[f"{prefix}events_processed"] = float(events)
        rows.update(_latency_rows(machine, prefix))
        rows.update(_timeline_rows(machine, prefix))
    return rows


def _has_section(reports: Dict[str, Dict], section: str) -> bool:
    """Whether any machine record in ``reports`` carries ``section``."""
    return any(
        isinstance(machine.get(section), dict) and machine.get(section)
        for doc in reports.values()
        for machine in doc.get("machines", [])
        if isinstance(machine, dict)
    )


def check_section_parity(
    a_reports: Dict[str, Dict], b_reports: Dict[str, Dict]
) -> None:
    """Raise ``ValueError`` when exactly one report set carries a
    ``latency`` or ``timeline`` section: the sets were collected with
    different options, so every shared metric in that section would
    diff against a fabricated 0.0 — a wall of false regressions, not a
    comparison.  Coverage differences (an experiment present on one
    side only) are *not* parity errors; they stay flagged in the
    differential report."""
    for section, remedy in (
        ("latency", "collect both sides the same way (run-all --reports)"),
        ("timeline", "re-run both sides with the same --interval sampling"),
    ):
        a_has = _has_section(a_reports, section)
        b_has = _has_section(b_reports, section)
        if a_has != b_has:
            missing = "B" if a_has else "A"
            raise ValueError(
                f"report set {missing} has no {section} sections but the "
                f"other set does; {remedy}"
            )


def compare_reports(
    a_reports: Dict[str, Dict],
    b_reports: Dict[str, Dict],
    threshold: float = DEFAULT_STABILITY_THRESHOLD,
) -> CompareResult:
    """Diff two report sets (experiment name -> RunReport dict).

    Raises ``ValueError`` (via :func:`check_section_parity`) when one
    set carries latency/timeline sections and the other has none — the
    CLI surfaces that as its standard one-line ``error:`` instead of a
    spurious wall of zero-vs-nonzero deltas."""
    check_section_parity(a_reports, b_reports)
    result = CompareResult(threshold=threshold)
    result.only_a = sorted(set(a_reports) - set(b_reports))
    result.only_b = sorted(set(b_reports) - set(a_reports))
    for name in sorted(set(a_reports) & set(b_reports)):
        a_rows = report_metrics(a_reports[name])
        b_rows = report_metrics(b_reports[name])
        for metric in sorted(set(a_rows) | set(b_rows)):
            a = a_rows.get(metric, 0.0)
            b = b_rows.get(metric, 0.0)
            result.deltas.append(Delta(name, metric, a, b))
    return result


# ---------------------------------------------------------------------------
# streaming-sketch comparison


def _doc_sketches(doc: Dict) -> Dict[str, "QuantileSketch"]:
    from repro.monitor.sketch import QuantileSketch

    out = {}
    sketches = doc.get("sketches", {})
    for group in ("latency", "phases"):
        for name, payload in sketches.get(group, {}).items():
            out[f"{group}[{name}]"] = QuantileSketch.from_dict(payload)
    return out


def compare_streaming_docs(
    a_doc: Dict,
    b_doc: Dict,
    threshold: float = DEFAULT_STABILITY_THRESHOLD,
    label: str = "(stream)",
) -> CompareResult:
    """Diff two streaming spans documents per sketch and per quantile.

    Counts, means, and extrema are exact; quantile deltas inherit the
    sketches' declared relative-error bound, so a threshold tighter
    than ``1 - 2*relative_error`` compares noise — the default 0.98
    against 1% sketches is the sensible floor.
    """
    result = CompareResult(threshold=threshold)
    a_sketches = _doc_sketches(a_doc)
    b_sketches = _doc_sketches(b_doc)
    result.only_a = sorted(set(a_sketches) - set(b_sketches))
    result.only_b = sorted(set(b_sketches) - set(a_sketches))
    qs = [float(k[1:]) / 100.0 for k in QUANTILE_KEYS]
    for name in sorted(set(a_sketches) & set(b_sketches)):
        sa, sb = a_sketches[name], b_sketches[name]
        result.deltas.append(Delta(label, f"{name}.count", sa.count, sb.count))
        result.deltas.append(
            Delta(label, f"{name}.mean", sa.mean(), sb.mean())
        )
        for key, q in zip(QUANTILE_KEYS, qs):
            result.deltas.append(
                Delta(label, f"{name}.{key}", sa.quantile(q), sb.quantile(q))
            )
    for counter in ("complete", "incomplete", "dropped"):
        result.deltas.append(
            Delta(
                label,
                counter,
                float(a_doc.get(counter, 0)),
                float(b_doc.get(counter, 0)),
            )
        )
    return result


# ---------------------------------------------------------------------------
# rendering


def render_compare(
    result: CompareResult,
    a_label: str = "A",
    b_label: str = "B",
    show_all: bool = False,
) -> str:
    """Human-readable differential report: the significant deltas (or
    every delta with ``show_all``), coverage differences, and a one
    line verdict."""
    from repro.util.tables import Table

    lines: List[str] = []
    significant = result.significant
    shown = result.deltas if show_all else significant
    if shown:
        flagged = {id(d) for d in significant}
        table = Table(
            title=f"Differential report ({a_label} vs {b_label})",
            columns=["experiment", "metric", a_label, b_label,
                     "delta", "stability", "sig"],
            precision=2,
        )
        for delta in shown:
            table.add_row(
                [
                    delta.experiment,
                    delta.metric,
                    delta.a,
                    delta.b,
                    delta.delta,
                    delta.stability,
                    "*" if id(delta) in flagged else "",
                ]
            )
        lines.append(table.render())
    for side, names, other in (
        (a_label, result.only_a, b_label),
        (b_label, result.only_b, a_label),
    ):
        if names:
            lines.append(
                f"only in {side} (missing from {other}): {', '.join(names)}"
            )
    total = len(result.deltas)
    if result.ok:
        lines.append(
            f"OK: {total} metrics compared, zero significant deltas "
            f"(stability threshold {result.threshold:g})"
        )
    else:
        lines.append(
            f"DIFFER: {len(significant)} of {total} metrics significant "
            f"(stability < {result.threshold:g})"
            + (
                f", coverage differs by "
                f"{len(result.only_a) + len(result.only_b)} experiment(s)"
                if result.only_a or result.only_b
                else ""
            )
        )
    return "\n\n".join(lines)
