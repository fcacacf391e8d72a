"""Streaming span store: bounded-memory observability for unbounded runs.

The buffered :class:`~repro.monitor.spans.SpanCollector` keeps every
stitched record until its machine goes idle — exact, but O(requests)
memory while it runs, so a week-long soak run either hits the
``max_requests`` cap (silent truncation) or grows without bound.
:class:`StreamingSpanStore` subscribes to the *same* signals and flat
records and runs the *same* fold — stitch, fold the final rows, release
them, compact the buffer — with another accumulator, at another time.
The buffered collector folds at idle points: every row, in admission
order, kept exactly as report columns and hop fields, and then every
row released.  The store folds at every drain (each
``DRAIN_THRESHOLD`` slots, and at any read): its completions, in
completion order, into constant-size state, and then it releases them
and its cap evictions:

* end-to-end latency into per-origin :class:`QuantileSketch` banks,
* the five-phase decomposition into per-phase sketches,
* per-stage queue-wait / service / blocked cycles into exact running
  accumulators plus per-stage sketches,
* the request offered to an :class:`ExemplarReservoir` (K slowest
  completes, K most recent incompletes) — a span is built only when
  the reservoir keeps it — before the fold releases it,

and the record buffer is compacted to the requests still in flight —

so resident state is O(sketch buckets + K + in-flight), independent of
how many requests the run drives.

A drain folds its completions in columns, not request by request: each
sketch takes one :meth:`QuantileSketch.record_many` call, the hop
records of every completion are picked out of the buffer in one pass
and reduced by :func:`~repro.monitor.spans.stage_segments`, and the
stage totals add each stage's traversals with
:func:`~repro.monitor.sketch.chained_sum` in the order a per-request
``+=`` loop would (completion rank, then emission position, each
request's memory term last).  The result is bit-identical to folding
one request at a time.

The exact per-span reconciliation check (phase sums vs end-to-end
latency) is preserved as a running invariant counter: every fold checks
it, violations are counted and the worst drift retained, and
:func:`~repro.monitor.spans.validate_spans` rejects a streaming document
with any violation — the same guarantee as the buffered schema, without
keeping the spans.

The hot path is untouched: the ``net.span`` subscriber is still the
event buffer's C-level ``extend``, and stitching is still deferred — the
only addition is a buffer-length check on the (comparatively rare)
birth/deliver handlers that triggers an incremental drain, so the event
buffer is bounded too.

Trade-offs versus the buffered collector (by design):

* quantiles carry the sketch's relative-error bound instead of being
  histogram-exact over a bounded range (means, maxima, counts, and
  per-stage averages stay exact — sketches track exact sum/min/max);
* tail-cohort attribution runs over the exemplar reservoir, i.e. the
  K slowest spans at or above the sketch's tail threshold, not the full
  cohort;
* the spans document stores sketch state + exemplars, not every span.
"""

from __future__ import annotations

import json
from itertools import accumulate, chain, repeat
from typing import Dict, List, Sequence

import numpy as np

from repro.monitor.sketch import (
    DEFAULT_RELATIVE_ERROR,
    ExemplarReservoir,
    QuantileSketch,
    chained_sum,
)
from repro.monitor.spans import (
    MEMORY_PHASES,
    PHASES,
    RECONCILE_TOLERANCE,
    RequestSpan,
    STREAM_SPANS_VERSION,
    SpanCollector,
    _BIRTH,
    _END,
    _RID,
    _drifts,
    _gather,
    _groups,
    concat_hops,
    rank_stages,
    stage_segments,
    traversal_cycles,
)


class StreamingSpanStore(SpanCollector):
    """Full tracing with streaming folds: every request is traced, none
    is retained past completion.  ``max_requests`` bounds the *in-flight*
    set only (completed spans are released at once); at the cap the
    oldest in-flight span is evicted into the exemplar reservoir rather
    than dropping the new birth.  Each drain is one fold
    (:meth:`SpanCollector._fold`); a completed request reads no later
    record and no longer counts against the in-flight cap.
    """

    #: drain (and fold) whenever the buffer holds this many unstitched
    #: slots, 2048 records, checked on birth/deliver — the cheap,
    #: per-request signals — so the per-hop fast path is untouched.  The
    #: batch size sets both the peak of a fold's columns and how many
    #: calls a run's folds make.
    DRAIN_THRESHOLD = 16_384

    #: default exemplar reservoir size (slowest K + most recent K).
    DEFAULT_EXEMPLARS = 64

    RELEASE_AT_COMPLETION = True

    def __init__(self, relative_error: float = DEFAULT_RELATIVE_ERROR,
                 exemplars: int = DEFAULT_EXEMPLARS,
                 seed: int = 0,
                 max_requests: int = SpanCollector.DEFAULT_MAX_REQUESTS) -> None:
        super().__init__(max_requests=max_requests)
        self.relative_error = relative_error
        #: end-to-end latency sketches: ``"all"`` plus one per origin.
        self.latency_sketches: Dict[str, QuantileSketch] = {
            "all": QuantileSketch(relative_error)
        }
        #: one sketch per phase of the five-phase decomposition.
        self.phase_sketches: Dict[str, QuantileSketch] = {
            phase: QuantileSketch(relative_error) for phase in PHASES
        }
        #: per-stage [queue_wait, service, blocked, traversals] — exact.
        self.stage_totals: Dict[str, List[float]] = {}
        #: per-stage sketch of total cycles per traversal.
        self.stage_sketches: Dict[str, QuantileSketch] = {}
        self.exemplars = ExemplarReservoir(k=exemplars, seed=seed)
        #: in-flight spans evicted at the cap (their completion is lost).
        self.evicted = 0
        #: the running reconciliation invariant.
        self.reconciliation_checked = 0
        self.reconciliation_violations = 0
        self.reconciliation_worst = 0.0
        #: ``{row: index}`` of the requests the last stitch evicted, in
        #: eviction order.
        self._evicting: Dict[int, int] = {}

    @property
    def completed_without_phases(self) -> int:
        """Completed spans with no memory timeline: every completion is
        folded at its drain, and only the phased ones are checked."""
        return self._completed - self.reconciliation_checked

    # -- bounded event buffer ---------------------------------------------

    def _on_req_birth(self, packet, origin: str, time: float) -> None:
        super()._on_req_birth(packet, origin, time)
        if len(self._events) - self._cursor >= self.DRAIN_THRESHOLD:
            self._drain()

    def _on_req_deliver(self, packet, time: float) -> None:
        super()._on_req_deliver(packet, time)
        if len(self._events) - self._cursor >= self.DRAIN_THRESHOLD:
            self._drain()

    def _drain(self) -> None:
        """Stitch, offer the cap evictions to the reservoir's incomplete
        side with what they held when evicted, then fold the completions
        in completion order and release both."""
        if len(self._events) == self._cursor:
            return
        super()._drain()
        state = self._state
        cut = self._evicting
        evicted = np.fromiter(cut, np.intp, len(cut))
        hops = self._hop_records(state[evicted, _BIRTH],
                                 np.fromiter(cut.values(), np.intp, len(cut)))
        for row, raw in zip(state[evicted].tolist(), hops):
            self.exemplars.offer_incomplete(
                self._span(*row[_BIRTH:], self._faults.get(row[_RID]), raw)
            )
        self.evicted += len(cut)
        done = np.flatnonzero(state[:, _END] >= 0)
        self._fold(np.concatenate((done[np.argsort(state[done, _END])], evicted)))

    def fold(self) -> None:
        """The store folds at every drain: an idle point is one more."""
        self._drain()

    # -- bounded tracked set ----------------------------------------------

    def _admit(self, births: int) -> int:
        """Admit every birth: at the cap the oldest in-flight request is
        evicted instead (:meth:`_cut`)."""
        return births

    def _cut(self, born: int, closed: np.ndarray,
             close_at: np.ndarray) -> Dict[int, int]:
        """At the in-flight cap a birth evicts the oldest in-flight
        request (tree-buffer semantics: recent history wins).  Only when
        this drain's births can reach the cap are they walked, with the
        completions, in record order."""
        state = self._state
        cap = self.max_requests
        cut = self._evicting = {}
        if len(state) <= cap:
            return cut
        live = dict.fromkeys(range(len(state) - born))
        births = zip(state[len(state) - born:, _BIRTH].tolist(),
                     range(len(state) - born, len(state)), repeat(True))
        for i, row, birth in sorted(chain(births, zip(
            close_at.tolist(), closed.tolist(), repeat(False)
        ))):
            if not birth:  # a completion; void if evicted already
                live.pop(row, None)
                continue
            if len(live) >= cap:
                oldest = next(iter(live))
                del live[oldest]
                cut[oldest] = i
            live[row] = None
        return cut

    # -- the streaming accumulator -----------------------------------------

    def _accumulate(self, rows: np.ndarray, origins: list,
                    latencies: np.ndarray, phases: List[np.ndarray],
                    at: np.ndarray, counts: List[int], fields: tuple) -> None:
        """Fold this drain's completions, in completion order, into the
        sketches, the exact stage sums, the reconciliation counters and
        the exemplar reservoir — column by column: one
        :meth:`QuantileSketch.record_many` per sketch, one numpy pass
        over the drain's hops (:func:`stage_segments`)."""
        values = latencies.tolist()
        sketches = self.latency_sketches
        sketches["all"].record_many(values)
        for origin, picked in _groups(origins).items():
            sketch = sketches.get(origin)
            if sketch is None:
                sketch = sketches[origin] = QuantileSketch(self.relative_error)
            sketch.record_many(latencies[picked].tolist())
        for phase, column in zip(PHASES, phases):
            self.phase_sketches[phase].record_many(column.tolist())
        # exact stage sums: each stage's traversals in completion order
        # (each request's hops in emission order, then its memory term),
        # added left to right onto the running totals
        totals = self.stage_totals
        for stage, segments in stage_segments(fields, counts, phases[1:4]).items():
            entry = totals.get(stage)
            if entry is None:
                entry = totals[stage] = [0.0, 0.0, 0.0, 0]
                self.stage_sketches[stage] = QuantileSketch(self.relative_error)
            entry[:3] = chained_sum(segments, entry[:3])
            entry[3] += len(segments)
            self.stage_sketches[stage].record_many(traversal_cycles(segments))
        # the exact reconciliation invariant, checked at fold time
        # instead of held for a post-hoc pass
        drifts = _drifts(latencies, phases)
        self.reconciliation_violations += int(
            np.count_nonzero(drifts > RECONCILE_TOLERANCE)
        )
        self.reconciliation_worst = max(self.reconciliation_worst,
                                        drifts.max().item())
        self.reconciliation_checked += len(values)
        # a span (and its hop list) is built only when the reservoir
        # keeps it, before the fold releases the rows
        state = self._state[rows]
        rids = state[:, _RID].tolist()
        offsets = list(accumulate(counts, initial=0))
        self.exemplars.offer_ranked_many(values, rids, lambda k: self._span(
            *state[k, _BIRTH:].tolist(), self._faults.get(rids[k]),
            self._records(at[offsets[k]:offsets[k + 1]]),
        ))

    # -- results -----------------------------------------------------------

    def complete_spans(self) -> List[RequestSpan]:
        """The *retained* complete spans — the exemplar reservoir's
        slowest K, not the full population (which was released)."""
        self._drain()
        return self.exemplars.slowest()

    def tracing_footprint(self) -> int:
        """Resident traced-state size in *items* (sketch buckets,
        reservoir entries, in-flight spans, buffered event slots) — the
        quantity the memory gate asserts is flat in request count."""
        buckets = sum(
            s.bucket_count()
            for group in (self.latency_sketches, self.phase_sketches,
                          self.stage_sketches)
            for s in group.values()
        )
        return (buckets + len(self.exemplars) + len(self._state)
                + len(self._events))

    def _incomplete_exemplars(self) -> List[RequestSpan]:
        """The K most recent incomplete spans: cap-evicted ones held in
        the reservoir merged with the current in-flight tail.  A
        non-mutating snapshot — an in-flight span that completes after
        this call folds normally.  The caller drains first.  (An evicted
        request left the state for good: the two sets are disjoint.)"""
        state = self._state
        # in-flight rows by (birth time, request id), latest first
        recent = np.lexsort(
            (state[:, _RID], _gather(self._events, state[:, _BIRTH], 7))
        )[::-1][:self.exemplars.k]
        ordered = sorted(
            self.exemplars.incompletes() + self._spans_at(recent),
            key=lambda s: (s.birth, s.request_id), reverse=True,
        )
        return ordered[:self.exemplars.k]

    def spans(self) -> dict:
        """The streaming spans document (version 2; see
        :func:`~repro.monitor.spans.validate_spans`)."""
        self._drain()
        return {
            "version": STREAM_SPANS_VERSION,
            "mode": "streaming",
            "complete": self._completed,
            "incomplete": self.incomplete,
            "dropped": self._dropped,
            "evicted": self.evicted,
            "completed_without_phases": self.completed_without_phases,
            "relative_error": self.relative_error,
            "sketches": {
                "latency": {
                    name: sketch.to_dict()
                    for name, sketch in sorted(self.latency_sketches.items())
                },
                "phases": {
                    phase: self.phase_sketches[phase].to_dict()
                    for phase in PHASES
                },
                "stages": {
                    stage: self.stage_sketches[stage].to_dict()
                    for stage in sorted(self.stage_sketches)
                },
            },
            "stage_totals": {
                stage: {
                    "queue_wait": entry[0], "service": entry[1],
                    "blocked": entry[2], "traversals": entry[3],
                }
                for stage, entry in sorted(self.stage_totals.items())
            },
            "reconciliation": {
                "checked": self.reconciliation_checked,
                "violations": self.reconciliation_violations,
                "worst": self.reconciliation_worst,
            },
            "exemplars": {
                "slowest": [s.to_dict() for s in self.exemplars.slowest()],
                "incomplete": [
                    s.to_dict() for s in self._incomplete_exemplars()
                ],
            },
        }


def merge_streaming_docs(docs: Sequence[dict]) -> dict:
    """Merge several streaming spans documents (one per machine) into a
    single valid version-2 document: counters add, sketches merge
    bucket-wise, exemplar lists re-rank and truncate to the largest
    constituent reservoir."""
    docs = list(docs)
    if not docs:
        raise ValueError("no documents to merge")
    if len(docs) == 1:
        return docs[0]
    out = json.loads(json.dumps(docs[0]))  # deep copy, JSON types only
    sketches = {
        group: {
            name: QuantileSketch.from_dict(payload)
            for name, payload in out["sketches"][group].items()
        }
        for group in ("latency", "phases", "stages")
    }
    k = max(len(d["exemplars"]["slowest"]) for d in docs) or 1
    for doc in docs[1:]:
        for field in ("complete", "incomplete", "dropped", "evicted",
                      "completed_without_phases"):
            out[field] += doc[field]
        for group, mine in sketches.items():
            for name, payload in doc["sketches"][group].items():
                sketch = QuantileSketch.from_dict(payload)
                if name in mine:
                    mine[name].merge(sketch)
                else:
                    mine[name] = sketch
        for stage, entry in doc["stage_totals"].items():
            mine = out["stage_totals"].setdefault(
                stage,
                {"queue_wait": 0.0, "service": 0.0, "blocked": 0.0,
                 "traversals": 0},
            )
            for field in ("queue_wait", "service", "blocked", "traversals"):
                mine[field] += entry[field]
        rec = doc["reconciliation"]
        out["reconciliation"]["checked"] += rec["checked"]
        out["reconciliation"]["violations"] += rec["violations"]
        out["reconciliation"]["worst"] = max(
            out["reconciliation"]["worst"], rec["worst"]
        )
        out["exemplars"]["slowest"].extend(doc["exemplars"]["slowest"])
        out["exemplars"]["incomplete"].extend(doc["exemplars"]["incomplete"])
    out["sketches"] = {
        group: {name: s.to_dict() for name, s in sorted(mine.items())}
        for group, mine in sketches.items()
    }
    out["exemplars"]["slowest"].sort(key=lambda s: s["latency"], reverse=True)
    del out["exemplars"]["slowest"][k:]
    out["exemplars"]["incomplete"].sort(key=lambda s: s["birth"], reverse=True)
    del out["exemplars"]["incomplete"][k:]
    return out


# ---------------------------------------------------------------------------
# sketch-backed latency analysis


class StreamingLatencyAnalysis:
    """The :class:`~repro.monitor.spans.LatencyAnalysis` protocol,
    answered from a streaming store's sketch state.

    Drop-in for every renderer in :mod:`repro.monitor.analysis`:
    ``spans`` holds the exemplar completes (waterfalls, slowest-N),
    quantile columns come from the sketches (relative-error-bounded),
    means/shares/stage averages are exact (running sums), and the
    tail cohort is the reservoir filtered at the sketch's tail
    threshold.  Multiple stores (one per machine in a sweep) merge
    losslessly through the sketches' merge operator.
    """

    QUANTILES = (0.5, 0.9, 0.95, 0.99)

    def __init__(self, latency_sketches: Dict[str, QuantileSketch],
                 phase_sketches: Dict[str, QuantileSketch],
                 stage_totals: Dict[str, Sequence[float]],
                 stage_sketches: Dict[str, QuantileSketch],
                 exemplar_spans: Sequence[RequestSpan],
                 dropped: int = 0, evicted: int = 0,
                 reconciliation_worst: float = 0.0,
                 reconciliation_violations: int = 0) -> None:
        self.latency_sketches = latency_sketches
        self.phase_sketches = phase_sketches
        self.stage_totals = {k: list(v) for k, v in stage_totals.items()}
        self.stage_sketches = stage_sketches
        #: the retained exemplar spans — what ``slowest``/waterfalls see.
        self.spans = [
            s for s in exemplar_spans if s.complete and s.phases() is not None
        ]
        self.dropped = dropped
        self.evicted = evicted
        self._reconciliation_worst = reconciliation_worst
        self._reconciliation_violations = reconciliation_violations

    @classmethod
    def from_store(cls, store) -> "StreamingLatencyAnalysis":
        return cls.from_stores([store])

    @classmethod
    def from_stores(cls, stores) -> "StreamingLatencyAnalysis":
        """Merge several stores (e.g. one per machine) into one
        analysis: sketches merge bucket-wise, exact accumulators add,
        and the union of reservoirs re-ranks into one."""
        stores = list(stores)
        if not stores:
            raise ValueError("no stores to merge")
        groups: tuple = ({}, {}, {})
        totals: Dict[str, List[float]] = {}
        for store in stores:
            store._drain()
            for group, theirs in zip(groups, (store.latency_sketches,
                                              store.phase_sketches,
                                              store.stage_sketches)):
                for name, sketch in theirs.items():
                    if name in group:
                        group[name].merge(sketch)
                    else:
                        group[name] = sketch.copy()
            for stage, entry in store.stage_totals.items():
                mine = totals.setdefault(stage, [0.0, 0.0, 0.0, 0])
                for i in range(4):
                    mine[i] += entry[i]
        latency, phases, stages = groups
        exemplar_spans = [span for store in stores
                          for span in store.exemplars.slowest()]
        exemplar_spans.sort(key=lambda s: s.latency, reverse=True)
        return cls(
            latency, phases, totals, stages, exemplar_spans,
            dropped=sum(store.dropped for store in stores),
            evicted=sum(store.evicted for store in stores),
            reconciliation_worst=max(store.reconciliation_worst
                                     for store in stores),
            reconciliation_violations=sum(store.reconciliation_violations
                                          for store in stores),
        )

    # -- protocol: decomposition tables ------------------------------------

    @property
    def requests(self) -> int:
        """Phased complete requests folded into the sketches."""
        return self.latency_sketches["all"].count

    def _sketch_row(self, sketch: QuantileSketch) -> dict:
        p50, p90, p95, p99 = sketch.quantiles(self.QUANTILES)
        return {
            "count": sketch.count,
            "mean": sketch.mean(),
            "p50": p50, "p90": p90, "p95": p95, "p99": p99,
            "max": sketch.max,
        }

    def end_to_end(self) -> Dict[str, dict]:
        out = {
            origin: self._sketch_row(sketch)
            for origin, sketch in sorted(self.latency_sketches.items())
            if origin != "all" and sketch.count
        }
        if self.latency_sketches["all"].count:
            out["all"] = self._sketch_row(self.latency_sketches["all"])
        return out

    def phase_decomposition(self) -> Dict[str, dict]:
        total = self.latency_sketches["all"].sum or 1.0
        out = {}
        for phase in PHASES:
            sketch = self.phase_sketches[phase]
            if not sketch.count:
                continue
            row = self._sketch_row(sketch)
            row["share"] = sketch.sum / total
            out[phase] = row
        return out

    def stage_decomposition(self) -> Dict[str, dict]:
        total = self.latency_sketches["all"].sum or 1.0
        out = {}
        for stage in sorted(self.stage_totals):
            wait, service, blocked, count = self.stage_totals[stage]
            if not count:
                continue
            out[stage] = {
                "traversals": count,
                "queue_wait": wait / count,
                "service": service / count,
                "blocked": blocked / count,
                "share": (wait + service + blocked) / total,
            }
        return out

    # -- protocol: tail attribution ----------------------------------------

    def tail_cohort(self, q: float = 0.95) -> List[RequestSpan]:
        """Exemplars at or above the sketched ``q`` threshold — the
        retained slice of the true cohort (at most K spans)."""
        if not self.spans:
            return []
        threshold = self.latency_sketches["all"].quantile(q)
        return [s for s in self.spans if s.latency >= threshold]

    def bottleneck_attribution(self, q: float = 0.95) -> List[dict]:
        cohort = self.tail_cohort(q)
        if not cohort:
            return []
        phases = [span.phases() for span in cohort]
        return rank_stages(
            [span.latency for span in cohort],
            *concat_hops([span.raw_hops for span in cohort]),
            [[p[phase] for p in phases] for phase in MEMORY_PHASES],
        )

    def slowest(self, n: int = 5) -> List[RequestSpan]:
        return self.spans[:n] if n is not None else list(self.spans)

    def quantile_curve(self, qs: Sequence[float]) -> List[float]:
        return self.latency_sketches["all"].quantiles(qs)

    # -- protocol: integrity and summary -----------------------------------

    def reconciliation_error(self) -> float:
        return self._reconciliation_worst

    def summary(self) -> dict:
        if not self.latency_sketches["all"].count:
            return {"requests": 0, "mode": "streaming"}
        attribution = self.bottleneck_attribution()
        return {
            "mode": "streaming",
            "requests": self.requests,
            "dropped": self.dropped,
            "evicted": self.evicted,
            "end_to_end": self.end_to_end(),
            "phases": self.phase_decomposition(),
            "bottleneck": attribution[0] if attribution else None,
            "reconciliation_error": self.reconciliation_error(),
            "sketches": {
                "latency": {
                    name: sketch.to_dict()
                    for name, sketch in sorted(self.latency_sketches.items())
                },
            },
        }
