"""Sampled request tracing: span collection for long runs.

A full :class:`~repro.monitor.spans.SpanCollector` records every event
of every request.  For throughput studies that is still measurable
overhead (each of the ~15 bus events per reference appends a record),
and the statistics it feeds — latency percentiles, phase shares,
bottleneck attribution — converge long before every request is traced.

:class:`SampledSpanCollector` traces **every Nth request end to end**:
a request is either fully traced (all its events recorded, phase sums
reconciling exactly with its end-to-end latency, same as full tracing)
or not traced at all — its packet's ``trace`` mark is cleared at birth
so the per-hop ``net.span`` record is never even built, and its other
events are filtered by one set-membership test.  There is no
per-request partial sampling — reconciliation semantics are preserved
for the traced population.

One caveat follows from the mark living *on the packet*: attaching a
sampling collector and a full :class:`SpanCollector` to the same run
thins the full collector's hop records to the sampled population too
(birth/deliver/memory events are unaffected).  Attach one collector
per run — the experiment runner already does.

Determinism
-----------

Selection uses the collector's own **birth counter**, not the process-
global ``request_id``: the k-th reference born after attach is traced
iff ``k % every == 0``.  Birth order is part of the deterministic event
order, so two identical runs trace the same references — ``request_id``
values, by contrast, come from a process-wide counter whose start
depends on whatever ran earlier in the process.

Sampling only *observes* (the selection branch runs inside the
subscriber-guarded handlers), so the zero-cost guarantee is untouched
and simulated cycles are bit-identical to an untraced run.

Statistics caveat: percentiles computed from a 1-in-N sample are
estimates of the population percentiles; tail attribution (p99 of a
16x-thinned population) needs proportionally longer runs for the same
confidence.  The ``sampled_every`` / ``sampled_out`` fields in the
spans document record what fraction was traced.
"""

from __future__ import annotations

from repro.monitor.spans import SpanCollector


class SampledSpanCollector(SpanCollector):
    """Trace every ``every``-th request; drop the rest at the handler.

    ``every=1`` is exact full tracing.  ``every=16`` keeps span overhead
    low enough for throughput sweeps (see the perf gate) while still
    collecting thousands of exactly-reconciled spans per run.
    """

    def __init__(self, every: int = 16,
                 max_requests: int = SpanCollector.DEFAULT_MAX_REQUESTS) -> None:
        super().__init__(max_requests=max_requests)
        if every < 1:
            raise ValueError("sampling interval must be at least 1")
        self.every = every
        #: references born since attach (the deterministic sample clock).
        self.births_seen = 0
        #: references skipped by sampling (disjoint from ``dropped``,
        #: which counts the max_requests cap among *traced* births).
        self.sampled_out = 0
        self._traced = set()

    # -- hot-path handlers: one membership test per untraced event ---------

    def _on_req_birth(self, packet, origin: str, time: float) -> None:
        k = self.births_seen
        self.births_seen = k + 1
        if k % self.every:
            self.sampled_out += 1
            # clear the packet's trace mark: every resource on the
            # route now skips the net.span record build for this
            # reference — a sampled-out hop costs two attribute loads.
            packet.trace = False
            return
        self._traced.add(packet.request_id)
        super()._on_req_birth(packet, origin, time)

    def _on_req_deliver(self, packet, time: float) -> None:
        if packet.request_id in self._traced:
            super()._on_req_deliver(packet, time)

    # net.span needs no override: sampled-out references get their
    # packet ``trace`` mark cleared at birth, so the emission sites
    # never build records for them and the inherited C-level ``extend``
    # subscriber only ever sees sampled traffic.  (Occupancies of
    # packets that never emit ``req.birth`` — cluster-local traffic —
    # still arrive exactly as in the full collector and are ignored at
    # drain for their unknown request ids.)

    def _on_gmem_service(self, module: int, packet, time: float,
                         cycles: float) -> None:
        if packet.request_id in self._traced:
            super()._on_gmem_service(module, packet, time, cycles)

    def _on_sync_op(self, module: int, address: int, time: float, packet,
                    success: bool) -> None:
        if packet.request_id in self._traced:
            super()._on_sync_op(module, address, time, packet, success)

    def _on_fault_transient(self, resource, packet, time: float,
                            backoff_cycles: float) -> None:
        if packet.request_id in self._traced:
            super()._on_fault_transient(resource, packet, time, backoff_cycles)

    def _on_fault_ecc(self, module: int, packet, time: float,
                      stall_cycles: float) -> None:
        if packet.request_id in self._traced:
            super()._on_fault_ecc(module, packet, time, stall_cycles)

    def _on_fault_reroute(self, network: str, packet, time: float) -> None:
        if packet.request_id in self._traced:
            super()._on_fault_reroute(network, packet, time)

    # fault.sync_timeout carries no packet; the base handler records it
    # and the drain charges it to the oldest traced in-flight sync, so
    # no override is needed.

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        doc = super().spans()
        doc["sampled_every"] = self.every
        doc["sampled_out"] = self.sampled_out
        return doc
