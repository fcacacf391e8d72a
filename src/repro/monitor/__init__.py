"""Cedar performance-monitoring hardware and the observability layer.

"The Cedar approach to performance monitoring relies on external
hardware to collect time-stamped event traces and histograms of various
hardware signals.  The event tracers can each collect 1M events and the
histogrammers have 64K 32-bit counters" (Section 2).  Software can also
post events ("software event tracing").

The Table 2 methodology is implemented by :class:`PrefetchProbe`: first
word Latency and Interarrival time are "measured for every prefetch
request by recording when an address from the prefetch unit is issued to
the forward network and when each datum returns to the prefetch buffer".

On top of the probe hardware sits the machine-wide observability stack:

* :class:`MetricsRegistry` — counters / gauges / time-weighted series
  keyed by component path (``gmem.module[12]``, ``net.fwd.s1[3]``);
* the utilization monitors (:mod:`repro.monitor.monitors`) — in-place
  accumulators armed inside links, memory modules and cluster banks and
  pulled into the registry at report time (busy-fraction timelines,
  queue-occupancy distributions, service-time histograms), plus bus
  subscribers for the cold PFU / sync / fault signals;
* :class:`ChromeTracer` — whole-run Chrome/Perfetto trace export
  (``python -m repro trace <experiment> --out trace.json``);
* :class:`RunReport` / :class:`ReportCollector` — structured per-run
  reports (``python -m repro run-all`` / ``python -m repro report``);
* :class:`MetricTimeline` / :class:`TimelineRecorder` — time-resolved
  interval metric series riding the engine pulse, with bounded memory
  via power-of-two coalescing (``python -m repro timeline``);
* :mod:`repro.monitor.profiler` — host wall-clock profiling with
  per-subsystem frame attribution (``python -m repro profile``).

Subscribers go through the zero-cost :class:`SignalBus` and
accumulators sit behind one ``is not None`` branch: an unmonitored
machine pays one guarded branch per would-be emission or update, and
its cycle counts are bit-identical with or without monitors attached.
"""

# Exports resolve lazily (PEP 562): ``from repro.monitor import X`` works
# as before, but importing a leaf like ``repro.monitor.signals`` no longer
# drags the whole observability stack in — which both keeps
# ``import repro.network`` light and breaks the import cycle
# network.resource -> monitor.signals -> (eager __init__) -> spans ->
# gmemory -> network.resource.
_EXPORTS = {
    "ChromeTracer": "repro.monitor.tracer",
    "Event": "repro.monitor.tracer",
    "EventTracer": "repro.monitor.tracer",
    "validate_chrome_trace": "repro.monitor.tracer",
    "validate_chrome_trace_file": "repro.monitor.tracer",
    "Histogrammer": "repro.monitor.histogram",
    "Counter": "repro.monitor.metrics",
    "Gauge": "repro.monitor.metrics",
    "MetricsRegistry": "repro.monitor.metrics",
    "Timeline": "repro.monitor.metrics",
    "TimeWeighted": "repro.monitor.metrics",
    "ClusterMonitor": "repro.monitor.monitors",
    "MemoryMonitor": "repro.monitor.monitors",
    "NetworkMonitor": "repro.monitor.monitors",
    "PrefetchMonitor": "repro.monitor.monitors",
    "SyncMonitor": "repro.monitor.monitors",
    "attach_standard_monitors": "repro.monitor.monitors",
    "detach_monitors": "repro.monitor.monitors",
    "PrefetchProbe": "repro.monitor.probes",
    "ProbeSummary": "repro.monitor.probes",
    "DEFAULT_REPORT_DIR": "repro.monitor.report",
    "ReportCollector": "repro.monitor.report",
    "RunReport": "repro.monitor.report",
    "aggregate_reports": "repro.monitor.report",
    "render_report_summary": "repro.monitor.report",
    "NULL_SIGNAL": "repro.monitor.signals",
    "SIGNAL_CATALOG": "repro.monitor.signals",
    "Signal": "repro.monitor.signals",
    "SignalBus": "repro.monitor.signals",
    "Subscription": "repro.monitor.signals",
    "LatencyAnalysis": "repro.monitor.spans",
    "RequestSpan": "repro.monitor.spans",
    "SpanCollector": "repro.monitor.spans",
    "validate_spans": "repro.monitor.spans",
    "validate_spans_file": "repro.monitor.spans",
    "ExemplarReservoir": "repro.monitor.sketch",
    "QuantileSketch": "repro.monitor.sketch",
    "StreamingSpanStore": "repro.monitor.streamstore",
    "DEFAULT_TELEMETRY_DIR": "repro.monitor.telemetry",
    "FleetTelemetry": "repro.monitor.telemetry",
    "HeartbeatEmitter": "repro.monitor.telemetry",
    "TELEMETRY_VERSION": "repro.monitor.telemetry",
    "TelemetrySink": "repro.monitor.telemetry",
    "validate_telemetry": "repro.monitor.telemetry",
    "validate_telemetry_file": "repro.monitor.telemetry",
    "FleetProgress": "repro.monitor.progress",
    "TransitionPrinter": "repro.monitor.progress",
    "make_progress": "repro.monitor.progress",
    "check_section_parity": "repro.monitor.compare",
    "compare_reports": "repro.monitor.compare",
    "compare_streaming_docs": "repro.monitor.compare",
    "load_reports": "repro.monitor.compare",
    "render_compare": "repro.monitor.compare",
    "DEFAULT_INTERVAL_CYCLES": "repro.monitor.timeline",
    "MAX_INTERVALS": "repro.monitor.timeline",
    "MetricTimeline": "repro.monitor.timeline",
    "SeriesProbe": "repro.monitor.timeline",
    "TIMELINE_VERSION": "repro.monitor.timeline",
    "TimelineRecorder": "repro.monitor.timeline",
    "machine_probes": "repro.monitor.timeline",
    "validate_timeline": "repro.monitor.timeline",
    "validate_timeline_file": "repro.monitor.timeline",
    "HostProfile": "repro.monitor.profiler",
    "profile_call": "repro.monitor.profiler",
    "render_profile": "repro.monitor.profiler",
}


def __getattr__(name):
    from importlib import import_module

    target = _EXPORTS.get(name)
    if target is None:
        # plain submodule access, e.g. ``repro.monitor.signals``
        try:
            return import_module(f"repro.monitor.{name}")
        except ImportError:
            raise AttributeError(
                f"module 'repro.monitor' has no attribute {name!r}"
            ) from None
    value = getattr(import_module(target), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "DEFAULT_INTERVAL_CYCLES",
    "DEFAULT_TELEMETRY_DIR",
    "HostProfile",
    "MAX_INTERVALS",
    "MetricTimeline",
    "SeriesProbe",
    "TIMELINE_VERSION",
    "TimelineRecorder",
    "machine_probes",
    "profile_call",
    "render_profile",
    "validate_timeline",
    "validate_timeline_file",
    "FleetProgress",
    "FleetTelemetry",
    "HeartbeatEmitter",
    "NULL_SIGNAL",
    "TELEMETRY_VERSION",
    "TelemetrySink",
    "TransitionPrinter",
    "check_section_parity",
    "compare_reports",
    "compare_streaming_docs",
    "load_reports",
    "make_progress",
    "render_compare",
    "validate_telemetry",
    "validate_telemetry_file",
    "StreamingSpanStore",
    "ExemplarReservoir",
    "QuantileSketch",
    "ChromeTracer",
    "ClusterMonitor",
    "Counter",
    "DEFAULT_REPORT_DIR",
    "Event",
    "EventTracer",
    "Gauge",
    "Histogrammer",
    "LatencyAnalysis",
    "MemoryMonitor",
    "MetricsRegistry",
    "NetworkMonitor",
    "PrefetchMonitor",
    "PrefetchProbe",
    "ProbeSummary",
    "ReportCollector",
    "RequestSpan",
    "RunReport",
    "SIGNAL_CATALOG",
    "Signal",
    "SignalBus",
    "SpanCollector",
    "Subscription",
    "SyncMonitor",
    "Timeline",
    "TimeWeighted",
    "aggregate_reports",
    "attach_standard_monitors",
    "detach_monitors",
    "render_report_summary",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "validate_spans",
    "validate_spans_file",
]
