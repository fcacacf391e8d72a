"""CI perf smoke: the engine's self-metered throughput vs the baseline,
plus the simulator-level perf trajectory with span-collection overhead.

Part one runs the same 64-chain / 20k-event drain as the
pytest-benchmark suite, but measures it with the engine's own
self-metrics (events dispatched and wall time inside the run loop)
instead of pytest-benchmark, so it needs no plugins and finishes in
well under a second.  The realized events/sec is compared against the
archived ``engine_event_throughput`` rate in
``benchmarks/output/BENCH_engine.json`` with a generous 3x tolerance —
shared CI runners are noisy; this guards against order-of-magnitude
regressions (an accidentally-hot monitoring path, a lost fast path),
not percent-level drift.

Part two runs a small whole-machine kernel simulation in four modes —
bare, with a full :class:`~repro.monitor.spans.SpanCollector`, with
a 1-in-16 :class:`~repro.monitor.sampling.SampledSpanCollector`, and
with a :class:`~repro.monitor.timeline.MetricTimeline` sampling at the
default 64-cycle interval — and appends one trajectory point (bare
events/sec, full-span, sampled-span and timeline overhead percentages
clamped at 0, and inter-rep spread) to ``BENCH_sim.json`` at the
repository root.  Gated modes (bare, timeline) take the **median of 5
timed runs after a warmup iteration**; ungated overhead modes take the
median of 3.  All modes must report *identical* simulated cycles (the
zero-cost contract); a mismatch fails the smoke.

Usage: ``python benchmarks/perf_smoke.py`` (exit 0 = within tolerance).
With ``--gate``, additionally enforce the CI perf-gate bands: the new
bare rate must stay within 1.5x of the previous ``BENCH_sim.json``
point and timeline overhead within 5%; when inter-rep spread exceeds
the gate band the gate warns that its verdict is noise-limited (it does
not fail on spread alone).
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

BENCH_JSON = pathlib.Path(__file__).parent / "output" / "BENCH_engine.json"

#: simulator perf trajectory at the repo root, one point appended per run.
BENCH_SIM_JSON = pathlib.Path(__file__).parent.parent / "BENCH_sim.json"

#: trajectory length cap: drop the oldest points past this.
SIM_HISTORY = 200

#: top-level description written into ``BENCH_sim.json`` — refreshed on
#: every append so the file's self-description tracks the point schema.
BENCH_SIM_DESCRIPTION = (
    "simulator perf trajectory: one point per perf-smoke run (bare "
    "events/sec; full, 1-in-N sampled and timeline collection overhead "
    "% clamped at 0; inter-rep spread %; peak span-tracing bytes)"
)

#: a smoke run on a noisy shared runner may be this much slower than the
#: archived baseline before we call it a regression.
TOLERANCE = 3.0

#: perf-gate band (``--gate``): the new bare rate may be at most this
#: much slower than the previous trajectory point before the gate fails.
SIM_GATE_TOLERANCE = 1.5

#: perf-gate ceiling (``--gate``) on timeline-sampling overhead at the
#: default interval — the time-resolved view must stay near-free.
TIMELINE_GATE_PCT = 5.0

#: reps per mode: gated modes (bare throughput, timeline overhead) take
#: the median of 5; ungated overhead modes stay at 3 to bound smoke
#: runtime.
GATED_REPS = 5
UNGATED_REPS = 3

EVENTS = 20_000
CHAINS = 64

#: sim-trajectory workload: CEs running the CG kernel, strip-mined.
SIM_CES = 8
SIM_STRIPS = 4


def measured_events_per_sec() -> float:
    from repro.core.engine import Engine

    engine = Engine()
    count = {"n": 0}

    def tick():
        if count["n"] < EVENTS:
            count["n"] += 1
            engine.schedule_after(1.0, tick)

    for worker in range(CHAINS):
        engine.schedule(worker / CHAINS, tick)
    engine.run()
    metrics = engine.self_metrics()
    assert metrics["events_processed"] == EVENTS + CHAINS
    return metrics["events_per_sec"]


#: sampled-tracing interval measured alongside full tracing.
SIM_SAMPLE_EVERY = 16


def peak_tracing_bytes() -> int:
    """Peak allocation attributable to span collection: one untimed
    tracemalloc run of the trajectory workload with the full collector,
    minus a bare run's peak.  Recorded per trajectory point so span-path
    memory regressions show up in ``BENCH_sim.json`` alongside the
    throughput overhead they usually accompany."""
    import tracemalloc

    peaks = {}
    for mode in ("bare", "spans"):
        tracemalloc.start()
        try:
            sim_measurement(mode)
            _current, peaks[mode] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return max(peaks["spans"] - peaks["bare"], 0)


#: timeline sampling interval measured alongside span collection (the
#: :data:`repro.monitor.timeline.DEFAULT_INTERVAL_CYCLES` default).
SIM_TIMELINE_INTERVAL = 64.0


def sim_measurement(mode="bare"):
    """One whole-machine kernel run; returns (sim cycles, events/sec,
    requests traced).  ``mode`` is ``"bare"`` (no collector),
    ``"spans"`` (full :class:`SpanCollector`), ``"sampled"``
    (1-in-``SIM_SAMPLE_EVERY`` :class:`SampledSpanCollector`),
    ``"timeline"`` (a :class:`MetricTimeline` riding the engine pulse
    at the default interval — the bus stays quiescent)."""
    from repro.core.config import CedarConfig
    from repro.core.machine import CedarMachine
    from repro.kernels.programs import KERNELS, kernel_program
    from repro.monitor.sampling import SampledSpanCollector
    from repro.monitor.spans import SpanCollector

    machine = CedarMachine(CedarConfig())
    timeline = None
    if mode == "spans":
        collector = SpanCollector().attach(machine.bus)
    elif mode == "sampled":
        collector = SampledSpanCollector(every=SIM_SAMPLE_EVERY).attach(
            machine.bus
        )
    elif mode == "timeline":
        from repro.monitor.timeline import MetricTimeline, machine_probes

        collector = None
        timeline = MetricTimeline(
            machine_probes(machine.ctx),
            interval_cycles=SIM_TIMELINE_INTERVAL,
        )
        machine.engine.attach_pulse(timeline.pulse)
    else:
        collector = None
    programs = {
        port: kernel_program(KERNELS["CG"], port, SIM_STRIPS, prefetch=True)
        for port in range(SIM_CES)
    }
    cycles = machine.run_programs(programs)
    metrics = machine.engine.self_metrics()
    traced = collector.completed if collector is not None else 0
    if collector is not None:
        collector.detach()
    if timeline is not None:
        machine.engine.detach_pulse()
        timeline.finalize(machine.engine.now)
        if timeline.intervals == 0:
            raise RuntimeError("timeline mode sampled no intervals")
        traced = timeline.intervals
    return cycles, float(metrics["events_per_sec"]), traced


def _median_rates(modes, reps=None):
    """Median events/sec per mode, modes **interleaved round-robin**
    (bare, spans, sampled, bare, ...) so slow system windows —
    frequency scaling, a noisy co-tenant — bias every mode equally
    instead of poisoning whichever mode ran in that window; first-run
    effects (imports, pool warm-up) are absorbed by the warmup
    iteration the caller runs.  ``reps`` maps mode -> rep count
    (default :data:`GATED_REPS` for bare/timeline,
    :data:`UNGATED_REPS` otherwise); modes with fewer reps drop out of
    the later rounds.  All reps of a mode must report identical
    simulated cycles.  Returns ``{mode: (cycles, median events/sec,
    traced, spread)}`` where ``spread`` is (max - min) / median across
    the reps — the inter-rep noise the gate warns about."""
    if reps is None:
        reps = {}
    gated = ("bare", "timeline")
    want = {
        mode: reps.get(mode, GATED_REPS if mode in gated else UNGATED_REPS)
        for mode in modes
    }
    runs = {mode: [] for mode in modes}
    for round_idx in range(max(want.values())):
        for mode in modes:
            if round_idx < want[mode]:
                runs[mode].append(sim_measurement(mode))
    out = {}
    for mode, measured in runs.items():
        cycles = {r[0] for r in measured}
        if len(cycles) != 1:
            raise RuntimeError(
                f"nondeterministic simulated cycles in {mode} reps: {cycles}"
            )
        rates = sorted(r[1] for r in measured)
        median = rates[len(rates) // 2]
        spread = (rates[-1] - rates[0]) / median if median else 0.0
        out[mode] = (measured[0][0], median, measured[0][2], spread)
    return out


def append_sim_point() -> dict:
    """Measure the sim trajectory point and append it to BENCH_sim.json.

    One warmup iteration, then the **median of 3** timed runs per mode,
    modes interleaved (first-run noise used to dominate trajectory
    points when this took the max of cold runs).  Raises
    ``RuntimeError`` if any monitored run's simulated cycles differ
    from the bare run's (a zero-cost violation).
    """
    sim_measurement("bare")  # warmup: imports, packet pool, code caches
    medians = _median_rates(("bare", "spans", "sampled", "timeline"))
    bare = medians["bare"]
    traced = medians["spans"]
    sampled = medians["sampled"]
    timeline = medians["timeline"]
    for label in ("spans", "sampled", "timeline"):
        if medians[label][0] != bare[0]:
            raise RuntimeError(
                f"{label} run changed simulated cycles: "
                f"{bare[0]} bare vs {medians[label][0]} {label}"
            )

    def _overhead_pct(monitored):
        """Collection overhead vs bare, clamped at 0: a monitored run
        timing *faster* than bare is runner noise, and a negative
        overhead in the trajectory reads as a measurement bug."""
        if not monitored:
            return 0.0
        return max(0.0, (bare[1] / monitored - 1.0) * 100.0)

    point = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": f"CG x{SIM_CES}ces x{SIM_STRIPS}strips",
        "sim_cycles": bare[0],
        "events_per_sec": round(bare[1], 1),
        "events_per_sec_with_spans": round(traced[1], 1),
        "span_overhead_pct": round(_overhead_pct(traced[1]), 1),
        "events_per_sec_sampled": round(sampled[1], 1),
        "sampled_every": SIM_SAMPLE_EVERY,
        "sampled_overhead_pct": round(_overhead_pct(sampled[1]), 1),
        "events_per_sec_timeline": round(timeline[1], 1),
        "timeline_interval": SIM_TIMELINE_INTERVAL,
        "timeline_overhead_pct": round(_overhead_pct(timeline[1]), 1),
        "bare_spread_pct": round(bare[3] * 100.0, 1),
        "timeline_spread_pct": round(timeline[3] * 100.0, 1),
        "requests_traced": traced[2],
        # measured untimed, after the timed reps, so tracemalloc's
        # dispatch cost never touches the throughput numbers above
        "peak_tracing_bytes": peak_tracing_bytes(),
    }
    try:
        doc = json.loads(BENCH_SIM_JSON.read_text())
    except (OSError, ValueError):
        doc = {"description": BENCH_SIM_DESCRIPTION, "points": []}
    doc["description"] = BENCH_SIM_DESCRIPTION
    doc["points"] = (doc.get("points", []) + [point])[-SIM_HISTORY:]
    BENCH_SIM_JSON.write_text(json.dumps(doc, indent=1) + "\n")
    return point


def last_sim_point():
    """The most recent trajectory point, or ``None`` on a fresh tree."""
    try:
        points = json.loads(BENCH_SIM_JSON.read_text()).get("points", [])
        return points[-1] if points else None
    except (OSError, ValueError):
        return None


def gate_against(previous, point):
    """Perf-gate checks for CI (``--gate``): the new point must stay
    within :data:`SIM_GATE_TOLERANCE` of the previous trajectory point's
    bare rate (shared runners are noisy — this catches structural
    regressions, not percent drift), timeline sampling at the default
    interval must cost at most :data:`TIMELINE_GATE_PCT` of bare
    throughput.  Returns ``(failures, warnings)``: warnings flag
    inter-rep spread wider than the gate band (the gate's verdict is
    then noise-limited)."""
    failures = []
    warnings = []
    if previous is not None:
        floor = float(previous["events_per_sec"]) / SIM_GATE_TOLERANCE
        if point["events_per_sec"] < floor:
            failures.append(
                f"bare throughput {point['events_per_sec']:,.0f} events/s "
                f"fell below {floor:,.0f} (last point "
                f"{previous['events_per_sec']:,.0f} / "
                f"{SIM_GATE_TOLERANCE}x tolerance)"
            )
    if point.get("timeline_overhead_pct", 0.0) > TIMELINE_GATE_PCT:
        message = (
            f"timeline sampling overhead "
            f"{point['timeline_overhead_pct']:+.1f}% exceeds the "
            f"{TIMELINE_GATE_PCT:.0f}% ceiling at the default "
            f"{point.get('timeline_interval', SIM_TIMELINE_INTERVAL):g}-cycle "
            f"interval"
        )
        # a sub-5% overhead cannot be resolved when the reps themselves
        # disagree by more than 5%: demote to a warning on noisy runners
        # rather than flake the gate (quiet runners still hard-fail).
        noise = max(
            point.get("bare_spread_pct", 0.0),
            point.get("timeline_spread_pct", 0.0),
        )
        if noise > TIMELINE_GATE_PCT:
            warnings.append(
                f"{message} — but inter-rep spread {noise:.1f}% exceeds "
                f"the ceiling, so the verdict is noise-limited"
            )
        else:
            failures.append(message)
    # a gate verdict is only as good as the measurement: when one mode's
    # reps disagree by more than the gate band, say so out loud.
    gate_band_pct = (SIM_GATE_TOLERANCE - 1.0) * 100.0
    spread = point.get("bare_spread_pct", 0.0)
    if spread > gate_band_pct:
        warnings.append(
            f"bare_spread {spread:.1f}% exceeds the "
            f"{gate_band_pct:.0f}% gate band — this runner is too "
            f"noisy for the gate verdict to be meaningful"
        )
    # zero-cost cycle divergence already raises inside append_sim_point.
    return failures, warnings


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    gate = "--gate" in argv
    previous = last_sim_point()
    point = append_sim_point()
    print(
        f"perf-smoke: sim {point['events_per_sec']:,.0f} events/s, "
        f"span overhead {point['span_overhead_pct']:+.1f}% full / "
        f"{point['sampled_overhead_pct']:+.1f}% sampled 1/"
        f"{point['sampled_every']}, timeline overhead "
        f"{point['timeline_overhead_pct']:+.1f}% at "
        f"{point['timeline_interval']:g} cycles "
        f"({point['requests_traced']} requests traced) -> {BENCH_SIM_JSON.name}"
    )
    if gate:
        failures, warnings = gate_against(previous, point)
        for warning in warnings:
            print(f"perf-gate: WARN: {warning}")
        for failure in failures:
            print(f"perf-gate: FAIL: {failure}")
        if failures:
            return 1
        print(
            f"perf-gate: OK (within {SIM_GATE_TOLERANCE}x of last point, "
            f"timeline overhead <= {TIMELINE_GATE_PCT:.0f}%, cycles "
            f"identical across bare/spans/sampled/timeline)"
        )
    try:
        baseline = json.loads(BENCH_JSON.read_text())
        baseline_rate = float(baseline["engine_event_throughput"]["rate"])
    except (OSError, ValueError, KeyError):
        print(f"perf-smoke: no baseline in {BENCH_JSON}; skipping comparison")
        rate = max(measured_events_per_sec() for _ in range(3))
        print(f"perf-smoke: measured {rate:,.0f} events/s")
        return 0

    # best of three: absorbs one-off scheduler hiccups on shared runners
    rate = max(measured_events_per_sec() for _ in range(3))
    floor = baseline_rate / TOLERANCE
    verdict = "OK" if rate >= floor else "REGRESSION"
    print(
        f"perf-smoke: {rate:,.0f} events/s vs baseline "
        f"{baseline_rate:,.0f} (floor {floor:,.0f}, tolerance {TOLERANCE}x): "
        f"{verdict}"
    )
    return 0 if rate >= floor else 1


if __name__ == "__main__":
    sys.exit(main())
