"""Streaming span store: bounded-memory observability for unbounded runs.

The buffered :class:`~repro.monitor.spans.SpanCollector` keeps every
stitched record until its machine goes idle — exact, but O(requests)
memory while it runs.  :class:`StreamingSpanStore` subscribes to the
*same* signals and runs the *same* fold — stitch, fold the final rows,
release them, compact the buffer — with another accumulator, at
another time: at every drain (each ``DRAIN_THRESHOLD`` slots, and at
any read) its completions fold, in completion order, into

* per-origin and per-phase :class:`QuantileSketch` banks (one
  :meth:`QuantileSketch.record_many` call per sketch),
* exact per-stage ``[wait, service, blocked, traversals]`` totals plus
  per-stage sketches (:func:`~repro.monitor.spans.stage_segments`, added
  with :func:`~repro.monitor.sketch.chained_sum` in the order a
  per-request ``+=`` loop would),
* the reconciliation counters (the exact phase-sum check, kept as a
  running invariant that :func:`~repro.monitor.spans.validate_spans`
  enforces on the document),
* an :class:`ExemplarReservoir` (K slowest completes; cap evictions go
  to its K most recent incompletes) — a span is built only when the
  reservoir keeps it —

and the buffer is compacted to the requests still in flight, so
resident state is O(sketch buckets + K + in-flight).  The hot path is
the buffered collector's; birth and deliver also check the buffer
length and drain past the threshold.

Several stores (one per machine) merge one way, :func:`_merged`: sketch
by sketch, totals added.  :meth:`StreamingSpanStore.analyze` builds the
one :class:`~repro.monitor.spans.LatencyAnalysis` over that merge, with
the union of the reservoirs as its rows, and
:meth:`StreamingSpanStore.merged_spans` the version-2 spans document
(one store's is :meth:`StreamingSpanStore.spans`).  Against the
buffered analysis, quantiles carry the sketch's relative-error bound
(counts, means, maxima and stage averages stay exact) and the tail
cohort is the exemplars at or above the sketched threshold.

The store serves ``python -m repro analyze --stream``, ``compare
--stream`` and the soak; run reports use the buffered collector.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from operator import attrgetter
from typing import Dict, List, Sequence

import numpy as np

from repro.monitor.sketch import (
    DEFAULT_RELATIVE_ERROR,
    ExemplarReservoir,
    QuantileSketch,
    chained_sum,
)
from repro.monitor.spans import (
    PHASES,
    RECONCILE_TOLERANCE,
    LatencyAnalysis,
    RequestSpan,
    STREAM_SPANS_VERSION,
    SpanCollector,
    _BIRTH,
    _END,
    _ORD,
    _RID,
    _SpanList,
    _drifts,
    _groups,
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
    record and no longer counts against the in-flight cap.  Run reports
    do not use it (:class:`~repro.monitor.report.ReportCollector`).
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
        self._evicted = 0
        #: the running reconciliation invariant.
        self.reconciliation_checked = 0
        self.reconciliation_violations = 0
        self.reconciliation_worst = 0.0
        #: ``{row: index}`` of the requests the last stitch evicted, in
        #: eviction order.
        self._evicting: Dict[int, int] = {}

    @property
    def evicted(self) -> int:
        """In-flight spans evicted at the cap (their completion is lost)."""
        self._drain()
        return self._evicted

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
            self.exemplars.offer_incomplete(self._span(
                *row[_BIRTH:_ORD], self._faults.get(row[_RID]), raw
            ), row[_ORD])
        self._evicted += len(cut)
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
        self.exemplars.offer_ranked_many(
            values, state[:, _ORD].tolist(), lambda k: self._span(
                *state[k, _BIRTH:_ORD].tolist(), self._faults.get(rids[k]),
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
        """The K most recent incomplete spans by (birth, birth ordinal):
        the in-flight tail, then the cap-evicted ones the reservoir
        holds.  That is their order: births ascend in admission order,
        and every request in flight was admitted after every evicted one
        (an eviction takes the oldest in flight).  A non-mutating
        snapshot — an in-flight span that completes after this call
        folds normally.  The caller drains first."""
        k = self.exemplars.k
        recent = self._spans_at(np.arange(len(self._state))[:-k - 1:-1])
        return (recent + self.exemplars.incompletes())[:k]

    def spans(self) -> dict:
        """The streaming spans document (version 2; see
        :func:`~repro.monitor.spans.validate_spans`)."""
        return self.merged_spans([self])

    @classmethod
    def merged_spans(cls, stores: Sequence["StreamingSpanStore"]) -> dict:
        """The streaming spans document of ``stores`` (one per machine,
        say): counters add, the worst drift is the largest, sketches and
        totals merge by :func:`_merged`, and each exemplar list keeps the
        first k of the stores' union (slowest, latest birth first), k the
        longest list a store holds."""
        stores = list(stores)
        latency, phases, stages, totals, slowest = _merged(stores)
        incomplete = [store._incomplete_exemplars() for store in stores]
        k = max(map(len, slowest + incomplete))

        def total(counter: str) -> int:
            return sum(getattr(store, counter) for store in stores)

        return {
            "version": STREAM_SPANS_VERSION,
            "mode": "streaming",
            "complete": total("completed"),
            "incomplete": total("incomplete"),
            "dropped": total("dropped"),
            "evicted": total("evicted"),
            "completed_without_phases": total("completed_without_phases"),
            "relative_error": stores[0].relative_error,
            "sketches": {
                group: {name: sketch.to_dict() for name, sketch in sketches}
                for group, sketches in (("latency", sorted(latency.items())),
                                        ("phases", phases.items()),
                                        ("stages", sorted(stages.items())))
            },
            "stage_totals": {stage: dict(zip(
                ("queue_wait", "service", "blocked", "traversals"), entry
            )) for stage, entry in sorted(totals.items())},
            "reconciliation": {
                "checked": total("reconciliation_checked"),
                "violations": total("reconciliation_violations"),
                "worst": max(store.reconciliation_worst for store in stores),
            },
            "exemplars": {
                "slowest": [s.to_dict() for s in _union(slowest, "latency")[:k]],
                "incomplete": [s.to_dict()
                               for s in _union(incomplete, "birth")[:k]],
            },
        }

    @classmethod
    def analyze(cls, stores: Sequence["StreamingSpanStore"]
                ) -> LatencyAnalysis:
        """One :class:`~repro.monitor.spans.LatencyAnalysis` of several
        stores (one per machine, say).  Its distributions are the
        stores' merged sketches (quantiles within the sketch's relative
        error; counts, sums and maxima exact), its stage totals their
        exact running sums, and its rows the union of their exemplar
        reservoirs, slowest first: the slowest spans are exemplars, and
        the tail cohort is the exemplars at or above the sketched
        threshold."""
        stores = list(stores)
        latency, phases, _stages, totals, slowest = _merged(stores)
        analysis = LatencyAnalysis.__new__(LatencyAnalysis)
        analysis._set_rows([_SpanList(_union(slowest, "latency")).rows()])
        analysis._set_inputs(
            latency, phases, lambda: totals,
            max(store.reconciliation_worst for store in stores),
            sum(store.dropped for store in stores),
            sum(store.evicted for store in stores),
        )
        return analysis


def _merged(stores: List[StreamingSpanStore]) -> tuple:
    """``(latency, phases, stages, totals, slowest)``: the drained stores'
    sketch groups merged store by store into empty sketches, their stage
    totals added, and each one's slowest exemplars."""
    if not stores:
        raise ValueError("no stores to merge")
    groups: tuple = ({}, {}, {})
    totals: Dict[str, list] = {}
    for store in stores:
        store._drain()
        for group, theirs in zip(groups, (store.latency_sketches,
                                          store.phase_sketches,
                                          store.stage_sketches)):
            for name, sketch in theirs.items():
                group.setdefault(name, QuantileSketch(sketch.relative_error)
                                 ).merge(sketch)
        for stage, entry in store.stage_totals.items():
            totals[stage] = [mine + theirs for mine, theirs in
                             zip(totals.get(stage, (0.0, 0.0, 0.0, 0)), entry)]
    return (*groups, totals, [store.exemplars.slowest() for store in stores])


def _union(spans: List[list], key: str) -> list:
    """The stores' span lists as one, by ``key`` descending (equal keys
    keep store order)."""
    return sorted(chain.from_iterable(spans), key=attrgetter(key), reverse=True)
