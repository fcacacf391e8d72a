"""Reference span stitching: the tuple-buffer collectors the flat-record
fold in :mod:`repro.monitor.spans` replaced.

Every signal but ``net.span`` is buffered as one tagged tuple, the drain
replays the buffer into one :class:`~repro.monitor.spans.RequestSpan`
per request, the streaming variant folds each span into its sketches
the moment it completes, and the summary is computed over the stitched
spans.  The code is slow and obviously eager-equivalent, which is what
an oracle should be: ``tests/test_span_oracle.py`` feeds the same
signal programs to these classes and to the real collectors and
requires identical summaries and documents.  ``PerRequestFoldStore`` is
the real streaming store with the request-by-request fold its column
fold replaced, and ``PerRecordStitch`` is the record-by-record stitching
loop the column stitch replaced.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.gmemory.sync import format_sync_op
from repro.monitor.histogram import Histogrammer
from repro.monitor.sketch import (
    DEFAULT_RELATIVE_ERROR,
    ExemplarReservoir,
    QuantileSketch,
)
from repro.monitor import spans as flat
from repro.monitor.spans import (
    HOP_SLOTS,
    PHASES,
    RECONCILE_TOLERANCE,
    STREAM_SPANS_VERSION,
    SPANS_VERSION,
    RequestSpan,
    _stage_of,
)
from repro.monitor.streamstore import StreamingSpanStore


def hop_segments(raw_hops: Sequence) -> Iterator[Tuple[str, float, float, float]]:
    """``(stage, queue_wait, service, blocked)`` per flat hop record in
    ``raw_hops``, with :meth:`HopSpan.segments`' arithmetic, one hop at
    a time (:func:`repro.monitor.spans.stage_segments` does it in one
    numpy pass)."""
    for j in range(0, len(raw_hops), HOP_SLOTS):
        svc = raw_hops[j + 4]
        service_end = raw_hops[j + 6]
        yield (
            _stage_of(raw_hops[j]),
            max(0.0, service_end - svc - raw_hops[j + 5]),
            svc,
            max(0.0, raw_hops[j + 7] - service_end),
        )


def phase_columns(buf: list, bs, es, gs, ss) -> List[list]:
    """``[origins, latencies, *phase columns]`` of complete requests whose
    birth, completion, ``gm[`` and memory-service records sit at the
    indices in ``bs``, ``es``, ``gs`` and ``ss``, one request at a time."""
    births = [buf[b + 7] for b in bs]
    ends = [buf[e + 7] for e in es]
    enqueues = [buf[g + 5] for g in gs]
    departs = [buf[g + 7] for g in gs]
    cycles = [buf[s + 4] for s in ss]
    served = [buf[s + 6] for s in ss]
    return [
        [buf[b + 2] for b in bs],
        [end - birth for end, birth in zip(ends, births)],
        [enqueue - birth for enqueue, birth in zip(enqueues, births)],
        [(done - c) - enqueue
         for done, c, enqueue in zip(served, cycles, enqueues)],
        cycles,
        [depart - done for depart, done in zip(departs, served)],
        [end - depart for end, depart in zip(ends, departs)],
    ]


def drifts(latencies, phases) -> List[float]:
    """``abs(sum(phases) - latency)`` per request, the phases added left
    to right."""
    return [
        abs(forward + wait + service + block + reverse - latency)
        for latency, forward, wait, service, block, reverse
        in zip(latencies, *phases)
    ]


def loop_sum(values, start=0.0):
    """``start + values[0] + values[1] + ...`` as a ``+=`` loop adds it
    (builtin ``sum`` is compensated since Python 3.12)."""
    total = start
    for value in values:
        total += value
    return total


_EV_GSVC = 1
_EV_BIRTH = 2
_EV_DELIVER = 3
_EV_SYNC = 4
_EV_FAULT = 5
_EV_SYNC_TIMEOUT = 6


class OracleSpanCollector:
    """Buffered collector: drop births at the cap, stitch on read."""

    SIGNALS = (
        "req.birth", "req.deliver", "net.span", "gmem.service", "sync.op",
        "fault.transient", "fault.ecc", "fault.sync_timeout", "fault.reroute",
    )

    def __init__(self, max_requests: int = 200_000) -> None:
        self.max_requests = max_requests
        self._requests: Dict[int, RequestSpan] = {}
        #: request id -> how many births were admitted before it
        self._ordinals: Dict[int, int] = {}
        self._dropped = 0
        self._completed = 0
        self._events: List[object] = []
        self._open_syncs: Dict[int, List[int]] = {}
        self._subscriptions: List[tuple] = []

    def attach(self, bus) -> "OracleSpanCollector":
        for name in self.SIGNALS:
            if name == "net.span":
                handler = self._events.extend
            else:
                handler = getattr(self, "_on_" + name.replace(".", "_"))
            self._subscriptions.append((bus, bus.subscribe(name, handler)))
        return self

    def detach(self) -> None:
        for bus, subscription in self._subscriptions:
            bus.unsubscribe(subscription)
        self._subscriptions = []

    # -- handlers ----------------------------------------------------------

    def _on_req_birth(self, packet, origin, time) -> None:
        self._events.append((
            _EV_BIRTH, packet.request_id, origin, packet.src,
            packet.address, packet.kind.name, packet.words, time,
        ))

    def _on_req_deliver(self, packet, time) -> None:
        self._events.append((_EV_DELIVER, packet.request_id, time))

    def _on_gmem_service(self, module, packet, time, cycles) -> None:
        self._events.append((_EV_GSVC, packet.request_id, module, cycles, time))

    def _on_sync_op(self, module, address, time, packet, success) -> None:
        self._events.append((
            _EV_SYNC, packet.request_id, success, packet.meta.get("sync"), time,
        ))

    def _on_fault_transient(self, resource, packet, time, backoff_cycles) -> None:
        self._events.append((_EV_FAULT, packet.request_id, {
            "type": "transient", "resource": resource.name,
            "time": time, "cycles": backoff_cycles,
        }))

    def _on_fault_ecc(self, module, packet, time, stall_cycles) -> None:
        self._events.append((_EV_FAULT, packet.request_id, {
            "type": "ecc", "module": module, "time": time,
            "cycles": stall_cycles,
        }))

    def _on_fault_reroute(self, network, packet, time) -> None:
        self._events.append((_EV_FAULT, packet.request_id, {
            "type": "reroute", "network": network, "time": time,
        }))

    def _on_fault_sync_timeout(self, module, address, time, penalty_cycles) -> None:
        self._events.append(
            (_EV_SYNC_TIMEOUT, module, address, time, penalty_cycles)
        )

    # -- stitching ---------------------------------------------------------

    def _drain(self) -> None:
        events = self._events[:]
        del self._events[:]
        requests = self._requests
        i = 0
        while i < len(events):
            ev = events[i]
            if ev.__class__ is str:
                span = requests.get(events[i + 1])
                if span is not None and not span.complete:
                    if ev.startswith("gm["):
                        span.mem_enqueue = events[i + 5]
                        span.mem_depart = events[i + 7]
                        if events[i + 3]:
                            self._finish(span, events[i + 7])
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
                self._ordinals[rid] = len(self._ordinals)
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
            else:
                _, module, address, time, penalty = ev
                for rid in self._open_syncs.get(address, ()):
                    span = requests.get(rid)
                    if span is not None and not span.complete:
                        span.faults.append({
                            "type": "sync_timeout", "module": module,
                            "time": time, "cycles": penalty,
                        })
                        break

    def _make_room(self) -> bool:
        return False

    def _finish(self, span: RequestSpan, time: float) -> None:
        span.end = time
        span.complete = True
        self._completed += 1
        if span.origin == "sync":
            ids = self._open_syncs.get(span.address)
            if ids and span.request_id in ids:
                ids.remove(span.request_id)

    # -- results -----------------------------------------------------------

    @property
    def dropped(self) -> int:
        self._drain()
        return self._dropped

    def complete_spans(self) -> List[RequestSpan]:
        self._drain()
        return [s for s in self._requests.values() if s.complete]

    def spans(self) -> dict:
        self._drain()
        ordered = sorted(self._requests.values(), key=lambda s: s.birth)
        return {
            "version": SPANS_VERSION,
            "complete": self._completed,
            "incomplete": len(self._requests) - self._completed,
            "dropped": self._dropped,
            "requests": [span.to_dict() for span in ordered],
        }


class OracleStreamingSpanStore(OracleSpanCollector):
    """Fold each span into the sketches the moment it completes."""

    def __init__(self, relative_error=DEFAULT_RELATIVE_ERROR, exemplars=64,
                 seed=0, max_requests=200_000) -> None:
        super().__init__(max_requests=max_requests)
        self.relative_error = relative_error
        self.latency_sketches = {"all": QuantileSketch(relative_error)}
        self.phase_sketches = {p: QuantileSketch(relative_error) for p in PHASES}
        self.stage_totals: Dict[str, list] = {}
        self.stage_sketches: Dict[str, QuantileSketch] = {}
        self.exemplars = ExemplarReservoir(k=exemplars, seed=seed)
        self.evicted = 0
        self.completed_without_phases = 0
        self.reconciliation_checked = 0
        self.reconciliation_violations = 0
        self.reconciliation_worst = 0.0

    def _make_room(self) -> bool:
        oldest = next(iter(self._requests), None)
        if oldest is None:
            return False
        self.exemplars.offer_incomplete(self._requests.pop(oldest),
                                        self._ordinals[oldest])
        self.evicted += 1
        return True

    def _finish(self, span, time) -> None:
        super()._finish(span, time)
        self._fold(span)
        del self._requests[span.request_id]

    def _fold(self, span) -> None:
        phases = span.phases()
        if phases is None:
            self.completed_without_phases += 1
            return
        latency = span.latency
        self.latency_sketches["all"].record(latency)
        sketch = self.latency_sketches.get(span.origin)
        if sketch is None:
            sketch = self.latency_sketches[span.origin] = QuantileSketch(
                self.relative_error
            )
        sketch.record(latency)
        for phase, value in phases.items():
            self.phase_sketches[phase].record(value)
        for stage, wait, service, blocked in hop_segments(span.raw_hops):
            self._stage(stage, wait, service, blocked)
        self._stage("gmem", phases["memory_wait"], phases["memory_service"],
                    phases["memory_block"])
        drift = abs(loop_sum(phases.values()) - latency)
        self.reconciliation_checked += 1
        if drift > RECONCILE_TOLERANCE:
            self.reconciliation_violations += 1
        if drift > self.reconciliation_worst:
            self.reconciliation_worst = drift
        self.exemplars.offer_complete(span, self._ordinals[span.request_id])

    def _stage(self, stage, wait, service, blocked) -> None:
        entry = self.stage_totals.get(stage)
        if entry is None:
            entry = self.stage_totals[stage] = [0.0, 0.0, 0.0, 0]
            self.stage_sketches[stage] = QuantileSketch(self.relative_error)
        entry[0] += wait
        entry[1] += service
        entry[2] += blocked
        entry[3] += 1
        self.stage_sketches[stage].record(wait + service + blocked)

    def complete_spans(self):
        self._drain()
        return self.exemplars.slowest()

    def _incomplete_exemplars(self):
        self._drain()
        merged = {s.request_id: s for s in self.exemplars.incompletes()
                  if not s.complete}
        for span in self._requests.values():
            if not span.complete:
                merged[span.request_id] = span
        ordered = sorted(
            merged.values(), reverse=True,
            key=lambda s: (s.birth, self._ordinals[s.request_id]),
        )
        return ordered[:self.exemplars.k]

    def spans(self) -> dict:
        self._drain()
        incomplete = [s for s in self._requests.values() if not s.complete]
        return {
            "version": STREAM_SPANS_VERSION,
            "mode": "streaming",
            "complete": self._completed,
            "incomplete": len(incomplete) + self.evicted,
            "dropped": self._dropped,
            "evicted": self.evicted,
            "completed_without_phases": self.completed_without_phases,
            "relative_error": self.relative_error,
            "sketches": {
                "latency": {n: s.to_dict()
                            for n, s in sorted(self.latency_sketches.items())},
                "phases": {p: self.phase_sketches[p].to_dict() for p in PHASES},
                "stages": {s: self.stage_sketches[s].to_dict()
                           for s in sorted(self.stage_sketches)},
            },
            "stage_totals": {
                stage: {"queue_wait": e[0], "service": e[1], "blocked": e[2],
                        "traversals": e[3]}
                for stage, e in sorted(self.stage_totals.items())
            },
            "reconciliation": {
                "checked": self.reconciliation_checked,
                "violations": self.reconciliation_violations,
                "worst": self.reconciliation_worst,
            },
            "exemplars": {
                "slowest": [s.to_dict() for s in self.exemplars.slowest()],
                "incomplete": [s.to_dict() for s in self._incomplete_exemplars()],
            },
        }


class PerRequestFoldStore(StreamingSpanStore):
    """The streaming store with the fold it had before it folded in
    columns: at its accumulator, each drain's phased completions are
    taken from :class:`PerRecordStitch` in completion order and folded
    from list-based columns (:func:`phase_columns`, :func:`hop_pick`),
    one :meth:`QuantileSketch.record` per value and one
    :func:`hop_segments` walk per request, the stage sums added one
    ``+=`` at a time.  The columns the store hands its accumulator are
    not read; stitching, eviction, release and compaction are the real
    store's."""

    def _drain(self) -> None:
        self._reference = PerRecordStitch(self, release=True)
        super()._drain()

    def _accumulate(self, *_columns) -> None:
        closed = [c for c in self._reference.closed
                  if c[3] is not None and c[4] is not None]
        rids, bs, es, gs, ss, ys, fs = (list(column) for column in zip(*closed))
        buf = self._events
        hops = {
            rid: [slot for i in picked for slot in buf[i:i + HOP_SLOTS]]
            for rid, picked in zip(rids, hop_pick(buf, zip(rids, bs, es)))
        }
        origins, latencies, *phases = phase_columns(buf, bs, es, gs, ss)
        sketches = self.latency_sketches
        phase_sketches = [self.phase_sketches[phase] for phase in PHASES]
        for origin, latency, *values in zip(origins, latencies, *phases):
            sketches["all"].record(latency)
            sketch = sketches.get(origin)
            if sketch is None:
                sketch = sketches[origin] = QuantileSketch(self.relative_error)
            sketch.record(latency)
            for phase_sketch, value in zip(phase_sketches, values):
                phase_sketch.record(value)
        totals = self.stage_totals
        memory = zip(phases[1], phases[2], phases[3])
        for rid, mem in zip(rids, memory):
            for stage, wait, service, blocked in (
                *hop_segments(hops[rid]), ("gmem", *mem)
            ):
                entry = totals.get(stage)
                if entry is None:
                    entry = totals[stage] = [0.0, 0.0, 0.0, 0]
                    self.stage_sketches[stage] = QuantileSketch(self.relative_error)
                entry[0] += wait
                entry[1] += service
                entry[2] += blocked
                entry[3] += 1
                self.stage_sketches[stage].record(wait + service + blocked)
        for drift in drifts(latencies, phases):
            if drift > RECONCILE_TOLERANCE:
                self.reconciliation_violations += 1
            if drift > self.reconciliation_worst:
                self.reconciliation_worst = drift
        self.reconciliation_checked += len(latencies)
        ordinals = self._state[self._rows_of(np.array(rids, dtype=np.intp)), flat._ORD]
        for rid, b, e, g, s, y, f, latency, key in zip(
            rids, bs, es, gs, ss, ys, fs, latencies, ordinals.tolist()
        ):
            self.exemplars.offer_ranked(latency, key, lambda: self._span(
                b, e, g, s, -1 if y is None else y, f, hops[rid]
            ))


# ---------------------------------------------------------------------------
# the per-record stitch


class PerRecordStitch:
    """The stitching loop the column stitch replaced: one pass over a
    collector's unstitched records, one branch per record, starting from
    a copy of the collector's state.  ``release`` gives the streaming
    store's rules: a request is dropped from every table at completion
    (collected in :attr:`closed`, in completion order) and at the cap the
    oldest in-flight request is evicted (collected in :attr:`evicted`,
    and taken off the open sync lists) instead of the birth being
    dropped."""

    def __init__(self, collector, release: bool) -> None:
        self.buf = collector._events
        self.cursor = collector._cursor
        self.max_requests = collector.max_requests
        self.release = release
        state = collector._state.tolist()
        self.requests = {rid: b for rid, b, *_ in state}
        self.ends, self.mem, self.svc, self.sync = (
            {row[0]: row[k] for row in state if row[k] >= 0} for k in range(2, 6)
        )
        self.faults = {rid: list(idx) for rid, idx in collector._faults.items()}
        self.open_syncs = {a: list(ids) for a, ids in collector._open_syncs.items()}
        self.dropped = collector._dropped
        self.completed = collector._completed
        #: (rid, birth, end, gm[, service, sync, faults) per completion
        self.closed: List[tuple] = []
        #: (birth, evicted at, gm[, service, sync, faults) per eviction
        self.evicted: List[tuple] = []
        self._run()

    def _run(self) -> None:
        buf = self.buf
        requests, ends, faults = self.requests, self.ends, self.faults
        for i in range(self.cursor, len(buf), HOP_SLOTS):
            tag, rid = buf[i], buf[i + 1]
            if tag.__class__ is str:
                if tag.startswith("gm[") and rid in requests and rid not in ends:
                    self.mem[rid] = i
                    if buf[i + 3]:
                        self._finish(rid, i)
            elif tag in (flat._EV_BIRTH, flat._EV_SYNC_BIRTH):
                if len(requests) >= self.max_requests and not self._make_room(i):
                    self.dropped += 1
                else:
                    requests[rid] = i
                    if buf[i + 2] == "sync":
                        self.open_syncs.setdefault(buf[i + 4], []).append(rid)
            elif tag == flat._EV_DELIVER:
                if rid in requests and rid not in ends:
                    self._finish(rid, i)
            elif tag == flat._EV_GSVC:
                if rid in requests:
                    self.svc[rid] = i
            elif tag == flat._EV_SYNC:
                if rid in requests:
                    self.sync[rid] = i
            elif tag == flat._EV_SYNC_TIMEOUT:
                # the oldest open sync on the timeout's address
                for rid in self.open_syncs.get(buf[i + 4], ()):
                    if rid in requests and rid not in ends:
                        faults.setdefault(rid, []).append(i)
                        break
            elif rid in requests:
                faults.setdefault(rid, []).append(i)

    def _release(self, rid: int) -> tuple:
        return (self.requests.pop(rid), self.mem.pop(rid, None),
                self.svc.pop(rid, None), self.sync.pop(rid, None),
                self.faults.pop(rid, None))

    def _close_sync(self, rid: int, b: int) -> None:
        if self.buf[b + 2] == "sync":
            ids = self.open_syncs.get(self.buf[b + 4])
            if ids and rid in ids:
                ids.remove(rid)

    def _make_room(self, i: int) -> bool:
        if not self.release or not self.requests:
            return False
        rid = next(iter(self.requests))
        b, *held = self._release(rid)
        self._close_sync(rid, b)
        self.evicted.append((b, i, *held))
        return True

    def _finish(self, rid: int, i: int) -> None:
        self.completed += 1
        self.ends[rid] = i
        self._close_sync(rid, self.requests[rid])
        if self.release:
            del self.ends[rid]
            b, g, s, y, f = self._release(rid)
            self.closed.append((rid, b, i, g, s, y, f))


def hop_pick(buf: list, bounds) -> List[List[int]]:
    """Per ``(rid, birth, end)`` in ``bounds``: the indices of the hop
    records (``net.span`` records off the memory modules) naming ``rid``
    strictly between ``birth`` and ``end``, record by record."""
    return [
        [i for i in range(b + HOP_SLOTS, e, HOP_SLOTS)
         if buf[i].__class__ is str and not buf[i].startswith("gm[")
         and buf[i + 1] == rid]
        for rid, b, e in bounds
    ]


# ---------------------------------------------------------------------------
# the RequestSpan-based latency summary


def _histogram(values, bins):
    hi = max(max(values), 1e-9)
    return Histogrammer.from_counts(Counter(values), 0.0, hi * (1.0 + 1e-6), bins)


def _stats_row(values, bins):
    p50, p90, p95, p99 = _histogram(values, bins).quantiles((0.5, 0.9, 0.95, 0.99))
    return {
        "count": len(values),
        "mean": loop_sum(values) / len(values),
        "p50": p50, "p90": p90, "p95": p95, "p99": p99,
        "max": max(values),
    }


def _attribution(cohort) -> List[dict]:
    """Bottleneck attribution of a tail ``cohort``, hop by hop: each
    stage's summed traversal cycles (hops, then the memory term, per
    request) over the cohort's summed latency, worst first, ties in
    first-seen order."""
    acc: Dict[str, float] = {}
    cohort_total = 0.0
    for span in cohort:
        cohort_total += span.latency
        for stage, wait, service, blocked in hop_segments(span.raw_hops):
            acc[stage] = acc.get(stage, 0.0) + (wait + service + blocked)
        p = span.phases()
        acc["gmem"] = acc.get("gmem", 0.0) + (
            p["memory_wait"] + p["memory_service"] + p["memory_block"]
        )
    cohort_total = cohort_total or 1.0
    ranked = [{"stage": s, "cycles": c, "share": c / cohort_total}
              for s, c in acc.items()]
    ranked.sort(key=lambda row: row["share"], reverse=True)
    return ranked


def oracle_summary(spans, dropped: int = 0, bins: int = 2048) -> dict:
    """``LatencyAnalysis.summary()`` computed span by span."""
    spans = [s for s in spans if s.complete and s.phases() is not None]
    if not spans:
        return {"requests": 0}
    by_origin: Dict[str, list] = {}
    for span in spans:
        by_origin.setdefault(span.origin, []).append(span.latency)
    latencies = [s.latency for s in spans]
    end_to_end = {o: _stats_row(v, bins) for o, v in sorted(by_origin.items())}
    end_to_end["all"] = _stats_row(latencies, bins)
    total = loop_sum(latencies) or 1.0
    phases = {}
    for phase in PHASES:
        values = [s.phases()[phase] for s in spans]
        row = _stats_row(values, bins)
        row["share"] = loop_sum(values) / total
        phases[phase] = row
    threshold = _histogram(latencies, bins).percentile(0.95)
    ranked = _attribution([s for s in spans if s.latency >= threshold])
    worst = 0.0
    for span in spans:
        worst = max(worst, abs(loop_sum(span.phases().values()) - span.latency))
    return {
        "requests": len(spans),
        "dropped": dropped,
        "end_to_end": end_to_end,
        "phases": phases,
        "bottleneck": ranked[0] if ranked else None,
        "reconciliation_error": worst,
    }


def oracle_streaming_summary(store) -> dict:
    """``StreamingSpanStore.analyze([store]).summary()`` for an
    :class:`OracleStreamingSpanStore`, with the phase shares taken from
    its exact running sums and the p95 bottleneck attributed hop by hop
    over its exemplar spans.  Quantile rows and the tail threshold are
    the sketches' own (``tests/test_sketch.py`` covers them)."""
    everything = store.latency_sketches["all"]
    if not everything.count:
        return {"requests": 0}

    def row(sketch):
        p50, p90, p95, p99 = sketch.quantiles((0.5, 0.9, 0.95, 0.99))
        return {"count": sketch.count, "mean": sketch.mean(),
                "p50": p50, "p90": p90, "p95": p95, "p99": p99,
                "max": sketch.max}

    end_to_end = {origin: row(sketch)
                  for origin, sketch in sorted(store.latency_sketches.items())
                  if origin != "all" and sketch.count}
    end_to_end["all"] = row(everything)
    total = everything.sum or 1.0
    phases = {}
    for phase in PHASES:
        sketch = store.phase_sketches[phase]
        if sketch.count:
            phases[phase] = dict(row(sketch), share=sketch.sum / total)
    threshold = everything.quantile(0.95)
    ranked = _attribution([
        s for s in store.exemplars.slowest()
        if s.complete and s.phases() is not None and s.latency >= threshold
    ])
    return {
        "requests": everything.count,
        "dropped": store.dropped,
        "end_to_end": end_to_end,
        "phases": phases,
        "bottleneck": ranked[0] if ranked else None,
        "reconciliation_error": store.reconciliation_worst,
    }
