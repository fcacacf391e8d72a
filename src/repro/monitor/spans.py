"""Request-level causal tracing: per-reference spans on the signal bus.

Every global reference a CE or PFU issues already carries a stable
``request_id`` (shared by the request packet and its reply).  A
:class:`SpanCollector` subscribes *broadcast* to the architectural
signals a reference crosses on its way out and back —

* ``req.birth`` at the issue site (PFU word issue, CE demand load,
  store, block transfer, sync instruction),
* ``net.span`` at every network link and memory module — ONE
  consolidated record per queue occupancy, emitted at departure with
  all three edge times (queue entry, service completion, departure —
  splitting each hop into queue-wait / service / head-of-line-blocked
  segments with a single callback instead of three),
* ``gmem.service`` at the memory module,
* ``sync.op`` for synchronization outcomes,
* ``fault.*`` for retry/stall annotations,
* ``req.deliver`` back at the originating port —

and stitches them into one **span tree per request**: an end-to-end
span decomposed into forward-network, memory (wait / service / block)
and reverse-network phases, with one child span per hop.

The phases are a *segmentation of the request's timeline* — forward
ends where memory-queue entry begins, memory-block ends where the
reverse network begins — so their sum reconciles with the end-to-end
latency exactly, not approximately.

Zero-cost contract: all publishers guard their emissions on subscriber
count, so with no collector attached no payload is ever built and runs
are bit-identical (``tests/test_zero_cost.py`` pins this).  Packets
carry no tracing state beyond the id they always had.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.gmemory.sync import format_sync_op
from repro.monitor.histogram import Histogrammer

#: exported spans-JSON schema version (see :func:`validate_spans`).
SPANS_VERSION = 1

#: the streaming spans-JSON schema version (``"mode": "streaming"``
#: documents produced by :class:`~repro.monitor.streamstore.StreamingSpanStore`).
STREAM_SPANS_VERSION = 2

#: the five phases of a global reference, in timeline order.
PHASES = ("forward", "memory_wait", "memory_service", "memory_block", "reverse")


@lru_cache(maxsize=4096)
def _stage_of(resource_name: str) -> str:
    """``"fwd.s0[3]"`` -> ``"fwd.s0"``; ``"gm[4]"`` -> ``"gmem"``
    (memoized: a machine has a fixed, small set of resource names)."""
    if resource_name.startswith("gm["):
        return "gmem"
    return resource_name.split("[", 1)[0]


#: slots per flat hop record: the ``net.span`` record as emitted —
#: ``(resource, request_id, is_reply, is_write, svc, enqueue,
#: service_end, depart)``.
HOP_SLOTS = 8


def hop_segments(raw_hops: Sequence) -> Iterator[Tuple[str, float, float, float]]:
    """``(stage, queue_wait, service, blocked)`` per flat hop record in
    ``raw_hops`` (:attr:`RequestSpan.raw_hops`), with
    :meth:`HopSpan.segments`' arithmetic — the analyses read hops
    through this instead of building a :class:`HopSpan` each."""
    for j in range(0, len(raw_hops), HOP_SLOTS):
        svc = raw_hops[j + 4]
        service_end = raw_hops[j + 6]
        yield (
            _stage_of(raw_hops[j]),
            max(0.0, service_end - svc - raw_hops[j + 5]),
            svc,
            max(0.0, raw_hops[j + 7] - service_end),
        )


class HopSpan:
    """One network hop of a request: its queue entry, service end and
    departure on one link, plus the link's nominal service time (rate
    parameters captured at enqueue, so queue-wait = time at the head
    minus service — including any fault stall or recovery hold)."""

    __slots__ = ("resource", "stage", "is_reply", "enqueue", "svc",
                 "service_end", "depart")

    def __init__(self, resource: str, stage: str, is_reply: bool,
                 enqueue: float, svc: float,
                 service_end: Optional[float] = None,
                 depart: Optional[float] = None) -> None:
        self.resource = resource
        self.stage = stage
        self.is_reply = is_reply
        self.enqueue = enqueue
        self.svc = svc
        self.service_end = service_end
        self.depart = depart

    def segments(self) -> Optional[Tuple[float, float, float]]:
        """(queue_wait, service, blocked) cycles, or None while the hop
        is still in flight."""
        if self.service_end is None or self.depart is None:
            return None
        wait = max(0.0, self.service_end - self.svc - self.enqueue)
        blocked = max(0.0, self.depart - self.service_end)
        return wait, self.svc, blocked

    def to_dict(self) -> dict:
        out = {
            "resource": self.resource,
            "stage": self.stage,
            "direction": "reverse" if self.is_reply else "forward",
            "enqueue": self.enqueue,
            "service_end": self.service_end,
            "depart": self.depart,
        }
        segments = self.segments()
        if segments is not None:
            out["queue_wait"], out["service"], out["blocked"] = segments
        return out


class RequestSpan:
    """The stitched span tree of one global reference.

    Hops are kept as the flat ``net.span`` records they arrived as:
    :attr:`raw_hops` concatenates :data:`HOP_SLOTS` slots per hop, and
    :attr:`hops` builds :class:`HopSpan` objects from them on demand.
    """

    __slots__ = (
        "request_id", "origin", "port", "address", "kind", "words", "birth",
        "raw_hops", "mem_module", "mem_enqueue", "mem_cycles", "mem_service_end",
        "mem_depart", "sync_success", "sync_op", "faults", "end", "complete",
    )

    def __init__(self, request_id: int, origin: str, port: int, address: int,
                 kind: str, words: int, birth: float) -> None:
        self.request_id = request_id
        self.origin = origin
        self.port = port
        self.address = address
        self.kind = kind
        self.words = words
        self.birth = birth
        self.raw_hops: list = []
        self.mem_module: Optional[int] = None
        self.mem_enqueue: Optional[float] = None
        self.mem_cycles: Optional[float] = None
        self.mem_service_end: Optional[float] = None
        self.mem_depart: Optional[float] = None
        self.sync_success: Optional[bool] = None
        self.sync_op: Optional[str] = None
        self.faults: List[dict] = []
        self.end: Optional[float] = None
        self.complete = False

    @property
    def hops(self) -> List[HopSpan]:
        """The request's hops in departure order, built from
        :attr:`raw_hops` on each read (a fresh list: mutating it leaves
        the span unchanged)."""
        raw = self.raw_hops
        return [
            HopSpan(raw[j], _stage_of(raw[j]), raw[j + 2], raw[j + 5],
                    raw[j + 4], raw[j + 6], raw[j + 7])
            for j in range(0, len(raw), HOP_SLOTS)
        ]

    # -- derived latency ---------------------------------------------------

    @property
    def latency(self) -> Optional[float]:
        return None if self.end is None else self.end - self.birth

    def phases(self) -> Optional[Dict[str, float]]:
        """Per-phase latency decomposition, or None while incomplete.

        Defined as a segmentation of [birth, end] at the memory-module
        event times, so ``sum(phases.values()) == latency`` exactly.
        """
        if self.end is None or self.mem_enqueue is None:
            return None
        if self.mem_service_end is None or self.mem_cycles is None:
            return None
        depart = self.mem_depart if self.mem_depart is not None else self.end
        return {
            "forward": self.mem_enqueue - self.birth,
            "memory_wait": (self.mem_service_end - self.mem_cycles)
            - self.mem_enqueue,
            "memory_service": self.mem_cycles,
            "memory_block": depart - self.mem_service_end,
            "reverse": self.end - depart,
        }

    def to_dict(self) -> dict:
        out = {
            "id": self.request_id,
            "origin": self.origin,
            "port": self.port,
            "address": self.address,
            "kind": self.kind,
            "words": self.words,
            "birth": self.birth,
            "end": self.end,
            "latency": self.latency,
            "complete": self.complete,
            "hops": [hop.to_dict() for hop in self.hops],
        }
        phases = self.phases()
        if phases is not None:
            out["phases"] = phases
        if self.mem_module is not None:
            out["memory"] = {
                "module": self.mem_module,
                "enqueue": self.mem_enqueue,
                "service_cycles": self.mem_cycles,
                "service_end": self.mem_service_end,
                "depart": self.mem_depart,
            }
        if self.sync_success is not None:
            out["sync"] = {"success": self.sync_success, "op": self.sync_op}
        if self.faults:
            out["faults"] = list(self.faults)
        return out


#: event-record tags for the deferred stitching buffer.  ``net.span``
#: records carry no tag — their eight slots are flattened straight into
#: the buffer with the resource *name* in slot 0, so the drain loop
#: recognises one by ``ev.__class__ is str`` (every other buffer entry
#: is a tagged tuple).
_EV_GSVC = 1
_EV_BIRTH = 2
_EV_DELIVER = 3
_EV_SYNC = 4
_EV_FAULT = 5
_EV_SYNC_TIMEOUT = 6


class SpanCollector:
    """Broadcast bus subscriber stitching per-request span trees.

    Attach before the machine assembles (via a context observer) or to
    an already-built machine's bus; only references born *after* attach
    are traced — events for unknown request ids (cluster-local traffic,
    pre-attach births) are ignored.

    ``max_requests`` bounds memory: births past the cap count into
    :attr:`dropped` instead of being tracked.

    Two-layer design
    ----------------

    Stitching is *deferred*: the signal handlers that run inside the
    simulation loop only append flat tuples to an event buffer —
    extracting the packet fields they need **at event time**, because
    packets are pooled and mutate (a request becomes its reply in
    place, then is recycled into an unrelated reference).  The actual
    span assembly — dict lookups, appending each hop's flat record to
    its request's :attr:`RequestSpan.raw_hops` — replays the buffer in
    temporal order on first read
    (:attr:`requests`, :meth:`complete_spans`, :meth:`spans`, ...),
    outside the measured run loop.  Results are identical to eager
    stitching; only *when* the work happens changes.

    Hop data rides the consolidated ``net.span`` signal — one emission
    per queue occupancy, at departure, carrying all three edge times —
    instead of the ``net.enqueue``/``net.service``/``net.hop`` triple,
    so a traced hop costs one subscriber callback rather than three
    (the point signals stay for the utilization monitors, which need
    the edges *at their times*).  Occupancies still in flight when the
    run ends have not departed and therefore produce no hop record.
    """

    SIGNALS = (
        "req.birth",
        "req.deliver",
        "net.span",
        "gmem.service",
        "sync.op",
        "fault.transient",
        "fault.ecc",
        "fault.sync_timeout",
        "fault.reroute",
    )

    DEFAULT_MAX_REQUESTS = 200_000

    def __init__(self, max_requests: int = DEFAULT_MAX_REQUESTS) -> None:
        if max_requests < 1:
            raise ValueError("max_requests must be positive")
        self.max_requests = max_requests
        self._requests: Dict[int, RequestSpan] = {}
        self._dropped = 0
        self._completed = 0
        self._events: List[tuple] = []
        self._open_syncs: Dict[int, List[int]] = {}
        self._subscriptions: List[tuple] = []

    # -- attachment --------------------------------------------------------

    def attach(self, bus) -> "SpanCollector":
        for name in self.SIGNALS:
            if bus.declared(name):
                if name == "net.span":
                    handler = self._span_subscriber()
                else:
                    handler = getattr(self, "_on_" + name.replace(".", "_"))
                self._subscriptions.append((bus, bus.subscribe(name, handler)))
        return self

    def detach(self) -> None:
        for bus, subscription in self._subscriptions:
            bus.unsubscribe(subscription)
        self._subscriptions = []

    # -- hot-path signal handlers (record only; no stitching) --------------

    def _on_req_birth(self, packet, origin: str, time: float) -> None:
        self._events.append((
            _EV_BIRTH, packet.request_id, origin, packet.src,
            packet.address, packet.kind.name, packet.words, time,
        ))

    def _on_req_deliver(self, packet, time: float) -> None:
        self._events.append((_EV_DELIVER, packet.request_id, time))

    def _span_subscriber(self):
        """The ``net.span`` callback.  Records arrive pre-packed from
        the emission site (packet fields already extracted — see the
        catalog entry), so the full collector buffers them with the
        list's own C-level ``extend``: a traced hop costs no Python
        frame at all, and flattening the eight atomic slots into the
        buffer lets the record tuple die immediately — tracing adds no
        surviving GC-tracked objects, keeping collection pauses out of
        the measured loop.  Subclasses that filter per record
        (sampling) return a closure instead."""
        return self._events.extend

    def _on_gmem_service(self, module: int, packet, time: float,
                         cycles: float) -> None:
        self._events.append(
            (_EV_GSVC, packet.request_id, module, cycles, time)
        )

    def _on_sync_op(self, module: int, address: int, time: float, packet,
                    success: bool) -> None:
        self._events.append((
            _EV_SYNC, packet.request_id, success, packet.meta.get("sync"),
            time,
        ))

    def _on_fault_transient(self, resource, packet, time: float,
                            backoff_cycles: float) -> None:
        self._events.append((_EV_FAULT, packet.request_id, {
            "type": "transient", "resource": resource.name,
            "time": time, "cycles": backoff_cycles,
        }))

    def _on_fault_ecc(self, module: int, packet, time: float,
                      stall_cycles: float) -> None:
        self._events.append((_EV_FAULT, packet.request_id, {
            "type": "ecc", "module": module,
            "time": time, "cycles": stall_cycles,
        }))

    def _on_fault_reroute(self, network: str, packet, time: float) -> None:
        self._events.append((_EV_FAULT, packet.request_id, {
            "type": "reroute", "network": network, "time": time,
        }))

    def _on_fault_sync_timeout(self, module: int, address: int, time: float,
                               penalty_cycles: float) -> None:
        self._events.append(
            (_EV_SYNC_TIMEOUT, module, address, time, penalty_cycles)
        )

    # -- deferred stitching ------------------------------------------------

    def _drain(self) -> None:
        """Replay buffered events through the stitching logic.  Events
        are buffered in emission order, which is temporal order, so the
        replayed state transitions match eager stitching exactly."""
        buffer = self._events
        if not buffer:
            return
        # snapshot and clear IN PLACE: the bus holds the buffer's bound
        # ``extend`` as the net.span subscriber, so the list object must
        # stay the same for the collector's lifetime.
        events = buffer[:]
        del buffer[:]
        requests = self._requests
        i = 0
        n = len(events)
        while i < n:
            ev = events[i]
            if ev.__class__ is str:
                # a flat eight-slot net.span record (see the catalog
                # entry); slot 0 is the resource name — the only string
                # that ever lands in the buffer at top level, so the
                # type check is the dispatch.
                span = requests.get(events[i + 1])
                if span is None or span.complete:
                    i += HOP_SLOTS
                    continue
                if ev.startswith("gm["):
                    span.mem_enqueue = events[i + 5]
                    depart = events[i + 7]
                    span.mem_depart = depart
                    # stores are terminal at the module: no reply
                    # travels back
                    if events[i + 3]:
                        self._finish(span, depart)
                else:
                    span.raw_hops += events[i:i + HOP_SLOTS]
                i += HOP_SLOTS
                continue
            i += 1
            tag = ev[0]
            if tag == _EV_GSVC:
                _, rid, module, cycles, time = ev
                span = requests.get(rid)
                if span is not None:
                    span.mem_module = module
                    span.mem_cycles = cycles
                    span.mem_service_end = time
            elif tag == _EV_BIRTH:
                _, rid, origin, port, address, kind, words, time = ev
                if len(requests) >= self.max_requests and not self._make_room():
                    self._dropped += 1
                    continue
                requests[rid] = RequestSpan(
                    rid, origin, port, address, kind, words, time
                )
                if origin == "sync":
                    self._open_syncs.setdefault(address, []).append(rid)
            elif tag == _EV_DELIVER:
                _, rid, time = ev
                span = requests.get(rid)
                if span is not None and not span.complete:
                    self._finish(span, time)
            elif tag == _EV_SYNC:
                _, rid, success, operation, time = ev
                span = requests.get(rid)
                if span is not None:
                    span.sync_success = success
                    span.sync_op = format_sync_op(operation)
            elif tag == _EV_FAULT:
                _, rid, fault = ev
                span = requests.get(rid)
                if span is not None:
                    span.faults.append(fault)
            else:  # _EV_SYNC_TIMEOUT
                _, module, address, time, penalty = ev
                # no packet on this signal: charge the oldest in-flight
                # sync to the same address (the one being retried).
                for rid in self._open_syncs.get(address, ()):
                    span = requests.get(rid)
                    if span is not None and not span.complete:
                        span.faults.append({
                            "type": "sync_timeout", "module": module,
                            "time": time, "cycles": penalty,
                        })
                        break

    # -- stitching helpers -------------------------------------------------

    def _make_room(self) -> bool:
        """Called when a birth arrives at the ``max_requests`` cap.
        Return True after freeing a tracked slot to admit the new
        request; the buffered collector never frees (drop-at-cap keeps
        the *earliest* population, which exact analyses rely on) — the
        streaming store overrides this to evict its oldest in-flight
        span into the exemplar reservoir instead."""
        return False

    def _finish(self, span: RequestSpan, time: float) -> None:
        span.end = time
        span.complete = True
        self._completed += 1
        if span.origin == "sync":
            ids = self._open_syncs.get(span.address)
            if ids and span.request_id in ids:
                ids.remove(span.request_id)

    # -- results (every accessor drains first) -----------------------------

    @property
    def requests(self) -> Dict[int, RequestSpan]:
        """Stitched spans keyed by request id (drains the buffer)."""
        self._drain()
        return self._requests

    @property
    def completed(self) -> int:
        self._drain()
        return self._completed

    @property
    def dropped(self) -> int:
        self._drain()
        return self._dropped

    @property
    def pending_events(self) -> int:
        """Buffered slots not yet stitched (introspection/tests).
        ``net.span`` records occupy eight flat slots each; every other
        event is one tuple — so this counts buffer entries, not
        events."""
        return len(self._events)

    def complete_spans(self) -> List[RequestSpan]:
        self._drain()
        return [s for s in self._requests.values() if s.complete]

    def incomplete_spans(self) -> List[RequestSpan]:
        """Requests still in flight — a simulation that drains fully
        should leave none; orphans point at lost replies."""
        self._drain()
        return [s for s in self._requests.values() if not s.complete]

    def spans(self) -> dict:
        """The JSON-serializable spans document (schema versioned;
        checked by :func:`validate_spans`)."""
        self._drain()
        ordered = sorted(self._requests.values(), key=lambda s: s.birth)
        return {
            "version": SPANS_VERSION,
            "complete": self._completed,
            "incomplete": len(self._requests) - self._completed,
            "dropped": self._dropped,
            "requests": [span.to_dict() for span in ordered],
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans(), fh)


# ---------------------------------------------------------------------------
# latency analysis


class LatencyAnalysis:
    """Latency decomposition, percentiles and bottleneck attribution
    over a :class:`SpanCollector`'s completed spans.

    Percentiles run through :class:`Histogrammer` (the paper's 64K
    hardware counters) with within-bin interpolation; means, shares and
    the reconciliation check use exact arithmetic.
    """

    QUANTILES = (0.5, 0.9, 0.95, 0.99)

    def __init__(self, spans: Sequence[RequestSpan], bins: int = 2048,
                 dropped: int = 0) -> None:
        self.spans = [s for s in spans if s.complete and s.phases() is not None]
        self.bins = bins
        #: births the collector refused at its cap — the analyzed
        #: population is silently truncated when this is non-zero, so
        #: renderers surface it next to the quantile tables.
        self.dropped = dropped

    @classmethod
    def from_collector(cls, collector: SpanCollector,
                       bins: int = 2048) -> "LatencyAnalysis":
        return cls(collector.complete_spans(), bins=bins,
                   dropped=collector.dropped)

    @property
    def requests(self) -> int:
        """Phased complete requests in the analyzed population (the
        same protocol accessor the streaming analysis answers from its
        sketch counts)."""
        return len(self.spans)

    # -- percentile machinery ----------------------------------------------

    def _histogram(self, values: Sequence[float]) -> Histogrammer:
        # filled from a {value: count} table in first-seen order: the
        # same bank state as recording each value in turn.
        hi = max(max(values), 1e-9)
        return Histogrammer.from_counts(
            Counter(values), 0.0, hi * (1.0 + 1e-6), self.bins
        )

    def _stats_row(self, values: Sequence[float]) -> dict:
        hist = self._histogram(values)
        p50, p90, p95, p99 = hist.quantiles(self.QUANTILES)
        return {
            "count": len(values),
            "mean": sum(values) / len(values),
            "p50": p50, "p90": p90, "p95": p95, "p99": p99,
            "max": max(values),
        }

    # -- decompositions ----------------------------------------------------

    def end_to_end(self) -> Dict[str, dict]:
        """Latency statistics per origin class plus ``"all"``."""
        by_origin: Dict[str, List[float]] = {}
        for span in self.spans:
            by_origin.setdefault(span.origin, []).append(span.latency)
        out = {
            origin: self._stats_row(values)
            for origin, values in sorted(by_origin.items())
        }
        if self.spans:
            out["all"] = self._stats_row([s.latency for s in self.spans])
        return out

    def phase_decomposition(self) -> Dict[str, dict]:
        """Statistics for each of the five phases, with each phase's
        share of total (sum over requests) end-to-end latency."""
        series: Dict[str, List[float]] = {phase: [] for phase in PHASES}
        for span in self.spans:
            for phase, value in span.phases().items():
                series[phase].append(value)
        total = sum(s.latency for s in self.spans) or 1.0
        out = {}
        for phase in PHASES:
            values = series[phase]
            if not values:
                continue
            row = self._stats_row(values)
            row["share"] = sum(values) / total
            out[phase] = row
        return out

    def stage_decomposition(self) -> Dict[str, dict]:
        """Queue-wait / service / blocked cycles per network stage (and
        the memory modules), averaged per traversal, with each stage's
        share of total end-to-end latency."""
        acc: Dict[str, List[float]] = {}
        for span in self.spans:
            for stage, wait, service, blocked in hop_segments(span.raw_hops):
                entry = acc.get(stage)
                if entry is None:
                    entry = acc[stage] = [0.0, 0.0, 0.0, 0]
                entry[0] += wait
                entry[1] += service
                entry[2] += blocked
                entry[3] += 1
            phases = span.phases()
            entry = acc.setdefault("gmem", [0.0, 0.0, 0.0, 0])
            entry[0] += phases["memory_wait"]
            entry[1] += phases["memory_service"]
            entry[2] += phases["memory_block"]
            entry[3] += 1
        total = sum(s.latency for s in self.spans) or 1.0
        out = {}
        for stage in sorted(acc):
            wait, service, blocked, count = acc[stage]
            out[stage] = {
                "traversals": count,
                "queue_wait": wait / count,
                "service": service / count,
                "blocked": blocked / count,
                "share": (wait + service + blocked) / total,
            }
        return out

    # -- bottleneck attribution --------------------------------------------

    def tail_cohort(self, q: float = 0.95) -> List[RequestSpan]:
        """Requests at or above the ``q`` end-to-end percentile."""
        if not self.spans:
            return []
        threshold = self._histogram(
            [s.latency for s in self.spans]
        ).percentile(q)
        return [s for s in self.spans if s.latency >= threshold]

    def bottleneck_attribution(self, q: float = 0.95) -> List[dict]:
        """Which stage the tail waits on: per-stage share of the
        ``q``-cohort's summed latency, worst first.  The headline
        reading is "<stage> contributes N% of p95 latency"."""
        cohort = self.tail_cohort(q)
        if not cohort:
            return []
        acc: Dict[str, float] = {}
        total = 0.0
        for span in cohort:
            total += span.latency
            for stage, wait, service, blocked in hop_segments(span.raw_hops):
                acc[stage] = acc.get(stage, 0.0) + (wait + service + blocked)
            phases = span.phases()
            acc["gmem"] = acc.get("gmem", 0.0) + (
                phases["memory_wait"] + phases["memory_service"]
                + phases["memory_block"]
            )
        total = total or 1.0
        ranked = [
            {"stage": stage, "cycles": cycles, "share": cycles / total}
            for stage, cycles in acc.items()
        ]
        ranked.sort(key=lambda row: row["share"], reverse=True)
        return ranked

    def slowest(self, n: int = 5) -> List[RequestSpan]:
        """The ``n`` slowest completed requests (waterfall exemplars)."""
        return sorted(self.spans, key=lambda s: s.latency, reverse=True)[:n]

    def quantile_curve(self, qs: Sequence[float]) -> List[float]:
        """End-to-end latency at each quantile in ``qs`` — the shared
        protocol surface the distribution chart renders from (the
        streaming analysis answers it from its sketch)."""
        hist = self._histogram([s.latency for s in self.spans])
        return [hist.percentile(q) for q in qs]

    # -- integrity ---------------------------------------------------------

    def reconciliation_error(self) -> float:
        """Worst |sum(phases) - end-to-end| across requests; the phases
        are a timeline segmentation, so this is floating-point noise —
        the acceptance bound is one cycle per request."""
        worst = 0.0
        for span in self.spans:
            worst = max(
                worst, abs(sum(span.phases().values()) - span.latency)
            )
        return worst

    def summary(self) -> dict:
        """The compact dict embedded in run reports."""
        if not self.spans:
            return {"requests": 0}
        attribution = self.bottleneck_attribution()
        return {
            "requests": len(self.spans),
            "dropped": self.dropped,
            "end_to_end": self.end_to_end(),
            "phases": self.phase_decomposition(),
            "bottleneck": attribution[0] if attribution else None,
            "reconciliation_error": self.reconciliation_error(),
        }


# ---------------------------------------------------------------------------
# spans-JSON validation (the CI artifact check, sibling of
# validate_chrome_trace)

_REQUIRED_REQUEST_KEYS = ("id", "origin", "birth", "complete", "hops")
_REQUIRED_HOP_KEYS = ("resource", "stage", "direction", "enqueue")

#: acceptance bound: phase sums reconcile with end-to-end latency to
#: within one cycle per request.
RECONCILE_TOLERANCE = 1.0


def validate_spans(doc: dict) -> Tuple[int, int]:
    """Check a spans document against the schema essentials.

    Accepts both the buffered schema (version 1: every span inline) and
    the streaming schema (version 2, ``"mode": "streaming"``: sketches
    plus exemplars).  Returns ``(n_requests, n_complete)``; raises
    ``ValueError`` on malformation, including any complete request
    whose phase sums do not reconcile with its end-to-end latency.
    """
    if isinstance(doc, dict) and doc.get("mode") == "streaming":
        return _validate_streaming_spans(doc)
    if not isinstance(doc, dict) or "requests" not in doc:
        raise ValueError("spans must be an object with a requests array")
    if doc.get("version") != SPANS_VERSION:
        raise ValueError(f"unsupported spans version: {doc.get('version')!r}")
    requests = doc["requests"]
    if not isinstance(requests, list):
        raise ValueError("requests must be an array")
    for key in ("complete", "incomplete", "dropped"):
        if not isinstance(doc.get(key), int):
            raise ValueError(f"spans missing integer {key!r} count")
    n_complete = 0
    for request in requests:
        if _validate_request_dict(request):
            n_complete += 1
    if n_complete != doc["complete"]:
        raise ValueError(
            f"complete count {doc['complete']} != {n_complete} complete requests"
        )
    return len(requests), n_complete


def _validate_request_dict(request) -> bool:
    """Schema-check one request record; True when it is complete."""
    if not isinstance(request, dict):
        raise ValueError(f"request is not an object: {request!r}")
    for key in _REQUIRED_REQUEST_KEYS:
        if key not in request:
            raise ValueError(f"request missing {key!r}: {request!r}")
    for hop in request["hops"]:
        for key in _REQUIRED_HOP_KEYS:
            if key not in hop:
                raise ValueError(f"hop missing {key!r}: {hop!r}")
    if not request["complete"]:
        return False
    if request.get("latency") is None:
        raise ValueError(f"complete request lacks latency: {request!r}")
    phases = request.get("phases")
    if phases is not None:
        missing = [p for p in PHASES if p not in phases]
        if missing:
            raise ValueError(f"phases missing {missing}: {request!r}")
        drift = abs(sum(phases.values()) - request["latency"])
        if drift > RECONCILE_TOLERANCE:
            raise ValueError(
                f"request {request['id']}: phases sum to "
                f"{sum(phases.values()):.3f} but latency is "
                f"{request['latency']:.3f} (drift {drift:.3f})"
            )
    return True


def _validate_streaming_spans(doc: dict) -> Tuple[int, int]:
    """The version-2 streaming schema: bounded sketch state plus the
    exemplar reservoir instead of an inline span per request."""
    from repro.monitor.sketch import QuantileSketch

    if doc.get("version") != STREAM_SPANS_VERSION:
        raise ValueError(
            f"unsupported streaming spans version: {doc.get('version')!r}"
        )
    for key in ("complete", "incomplete", "dropped", "evicted",
                "completed_without_phases"):
        if not isinstance(doc.get(key), int):
            raise ValueError(f"streaming spans missing integer {key!r} count")
    sketches = doc.get("sketches")
    if not isinstance(sketches, dict) or "latency" not in sketches:
        raise ValueError("streaming spans missing latency sketches")
    # every serialized sketch must round-trip (this also pins the
    # sketch schema version)
    for group in sketches.values():
        for state in group.values():
            QuantileSketch.from_dict(state)
    phased = doc["complete"] - doc["completed_without_phases"]
    all_latency = sketches["latency"].get("all")
    if phased > 0:
        if all_latency is None:
            raise ValueError("streaming spans lack the 'all' latency sketch")
        if all_latency["count"] != phased:
            raise ValueError(
                f"latency sketch count {all_latency['count']} != "
                f"{phased} phased complete requests"
            )
    reconciliation = doc.get("reconciliation")
    if not isinstance(reconciliation, dict):
        raise ValueError("streaming spans missing reconciliation counters")
    for key in ("checked", "violations", "worst"):
        if key not in reconciliation:
            raise ValueError(f"reconciliation missing {key!r}")
    if reconciliation["violations"]:
        raise ValueError(
            f"{reconciliation['violations']} requests drifted past the "
            f"reconciliation tolerance (worst {reconciliation['worst']:.3f})"
        )
    exemplars = doc.get("exemplars")
    if not isinstance(exemplars, dict):
        raise ValueError("streaming spans missing exemplars")
    for request in exemplars.get("slowest", ()):
        if not _validate_request_dict(request):
            raise ValueError(f"incomplete span in slowest exemplars: {request!r}")
    for request in exemplars.get("incomplete", ()):
        if _validate_request_dict(request):
            raise ValueError(f"complete span in incomplete exemplars: {request!r}")
    return doc["complete"] + doc["incomplete"], doc["complete"]


def validate_spans_file(path) -> Tuple[int, int]:
    """Load ``path`` and validate it; see :func:`validate_spans`."""
    with open(path) as fh:
        return validate_spans(json.load(fh))
