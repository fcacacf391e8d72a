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
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gmemory.sync import format_sync_op
from repro.monitor.histogram import Histogrammer
from repro.monitor.sketch import chained_sum

#: exported spans-JSON schema version (see :func:`validate_spans`).
SPANS_VERSION = 1

#: the streaming spans-JSON schema version (``"mode": "streaming"``
#: documents produced by :class:`~repro.monitor.streamstore.StreamingSpanStore`).
STREAM_SPANS_VERSION = 2

#: the five phases of a global reference, in timeline order.
PHASES = ("forward", "memory_wait", "memory_service", "memory_block", "reverse")

#: the memory module's phases: a request's ``gmem`` stage traversal.
MEMORY_PHASES = PHASES[1:4]


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


def concat_hops(hops: Sequence[list]) -> Tuple[tuple, List[int]]:
    """Per-request flat hop lists (:attr:`RequestSpan.raw_hops`) as
    :func:`stage_segments` takes them: the hop fields of all of them,
    concatenated, and each request's hop count."""
    flat = list(chain.from_iterable(hops))
    fields = (
        list(map(_stage_of, flat[0::HOP_SLOTS])),
        *(np.asarray(flat[k::HOP_SLOTS], dtype=float) for k in (4, 5, 6, 7)),
    )
    return fields, [len(raw) // HOP_SLOTS for raw in hops]


def stage_segments(fields: tuple, counts: Sequence[int],
                   memory: Sequence[Sequence[float]]) -> Dict[str, np.ndarray]:
    """Per-stage ``(queue_wait, service, blocked)`` rows of a batch of
    requests' traversals.  ``fields`` are the hops' stage name list and
    their ``svc``, ``enqueue``, ``service_end`` and ``depart`` float
    arrays (requests in order, each one's hops in emission order);
    request ``r`` contributes its next ``counts[r]`` hops and then its
    memory-module term, row ``r`` of the ``memory`` columns (wait,
    service, block), under stage ``"gmem"``.

    Stages key the result in first-seen traversal order and each one's
    rows keep traversal order, so :func:`~repro.monitor.sketch.chained_sum`
    over a stage's rows adds what a ``+=`` loop over the traversals adds,
    in the same order.  The hop arithmetic is :meth:`HopSpan.segments`',
    done in one numpy pass."""
    if not len(counts):
        return {}
    stages, svc, enqueue, service_end, depart = fields
    wait = service_end - svc - enqueue
    blocked = depart - service_end
    n_hops = len(stages)
    n_requests = len(counts)
    code_of = {stage: k for k, stage in enumerate(dict.fromkeys(stages))}
    gmem = code_of.setdefault("gmem", len(code_of))
    # traversal order: each request's hops, then its memory term
    counts = np.asarray(counts, dtype=np.intp)
    hop_at = np.arange(n_hops) + np.repeat(np.arange(n_requests), counts)
    memory_at = np.cumsum(counts) + np.arange(n_requests)
    codes = np.empty(n_hops + n_requests, dtype=np.intp)
    codes[hop_at] = np.fromiter(map(code_of.__getitem__, stages), np.intp,
                                n_hops)
    codes[memory_at] = gmem
    rows = np.empty((len(codes), 3))
    # max(0.0, x) keeps 0.0 unless x > 0.0
    rows[hop_at, 0] = np.where(wait > 0.0, wait, 0.0)
    rows[hop_at, 1] = svc
    rows[hop_at, 2] = np.where(blocked > 0.0, blocked, 0.0)
    rows[memory_at] = np.column_stack(memory)
    names = list(code_of)
    found, first = np.unique(codes, return_index=True)
    return {
        names[code]: rows[codes == code]
        for code in found[np.argsort(first)].tolist()
    }


def traversal_cycles(rows: np.ndarray) -> List[float]:
    """``queue_wait + service + blocked`` per row of :func:`stage_segments`,
    added in that order."""
    return (rows[:, 0] + rows[:, 1] + rows[:, 2]).tolist()


def rank_stages(latencies: Sequence[float], fields: tuple,
                counts: Sequence[int],
                memory: Sequence[Sequence[float]]) -> List[dict]:
    """Bottleneck attribution of a tail cohort: each stage's summed
    traversal cycles (hops and memory terms, laid out as
    :func:`stage_segments` takes them) as a share of the cohort's summed
    latency, worst first; equal shares keep first-seen stage order."""
    total = chained_sum(latencies) or 1.0
    ranked = []
    for stage, rows in stage_segments(fields, counts, memory).items():
        cycles = chained_sum(traversal_cycles(rows))
        ranked.append({"stage": stage, "cycles": cycles,
                       "share": cycles / total})
    ranked.sort(key=lambda row: row["share"], reverse=True)
    return ranked


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


#: record tags.  Every signal the collector hears lands in its buffer as
#: one record of :data:`HOP_SLOTS` atomic slots, so the buffer is a flat
#: list read in strides of eight.  A ``net.span`` record carries the
#: resource *name* in slot 0 (the only string ever found there); every
#: other record starts with one of these integer tags, carries the
#: request id in slot 1 and its time in slot 7:
#:
#: * birth ``(BIRTH, rid, origin, port, address, kind, words, time)``
#:   — tagged ``SYNC_BIRTH`` for a sync instruction, so the stitch finds
#:   sync requests by tag
#: * deliver ``(DELIVER, rid, 0, 0, 0, 0, 0, time)``
#: * memory service ``(GSVC, rid, module, 0, cycles, 0, service_end, 0)``
#:   — cycles and service end in the slots ``net.span`` uses for them
#: * sync outcome ``(SYNC, rid, success, operation, 0, 0, 0, time)``
#: * transient / ECC / reroute fault ``(tag, rid, where, cycles, 0, 0, 0,
#:   time)`` — ``where`` is the resource name, module or network
#: * sync timeout ``(SYNC_TIMEOUT, -1, module, penalty, address, 0, 0,
#:   time)`` — the signal names no request (request ids are never
#:   negative), so the id column is all integers.
_EV_BIRTH = 1
_EV_DELIVER = 2
_EV_GSVC = 3
_EV_SYNC = 4
_EV_SYNC_TIMEOUT = 5
_EV_TRANSIENT = 6
_EV_ECC = 7
_EV_REROUTE = 8
_EV_SYNC_BIRTH = 9

#: the record kinds the stitch sorts slot 0 into: the integer tags stand
#: for themselves, a ``net.span`` record is a memory module's (``gm[``)
#: or a network hop.
_KIND_GM = 0
_KIND_HOP = 10

#: fault record tag -> (annotation type, key of its slot-2 value).
_FAULTS = {
    _EV_TRANSIENT: ("transient", "resource"),
    _EV_ECC: ("ecc", "module"),
    _EV_REROUTE: ("reroute", "network"),
    _EV_SYNC_TIMEOUT: ("sync_timeout", "module"),
}

#: an index past every buffer: "never" for a request not yet completed
#: or cut.
_NEVER = np.iinfo(np.intp).max


class _Kinds(dict):
    """Slot-0 value -> record kind.  The integer tags map to themselves;
    a resource name is classified the first time it is looked up, so a
    C-level ``map`` over the tag column needs no pass to find new names."""

    def __init__(self) -> None:
        super().__init__((tag, tag) for tag in range(_EV_BIRTH, _EV_SYNC_BIRTH + 1))

    def __missing__(self, tag: str) -> int:
        kind = self[tag] = _KIND_GM if tag.startswith("gm[") else _KIND_HOP
        return kind


def _fault_dict(buf: list, i: int) -> dict:
    """The span annotation of the fault record at ``buf[i]``."""
    kind, where = _FAULTS[buf[i]]
    fault = {"type": kind, where: buf[i + 2], "time": buf[i + 7]}
    if kind != "reroute":
        fault["cycles"] = buf[i + 3]
    return fault


def _gather(buf: list, at: np.ndarray, slot: int) -> np.ndarray:
    """Slot ``slot`` of the records at buffer indices ``at``, as floats."""
    return np.fromiter(map(buf.__getitem__, (at + slot).tolist()), float, len(at))


def _lookup(keys: np.ndarray, values: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """``values[j]`` for each probe equal to ``keys[j]`` (``keys``
    ascending and distinct), -1 for a probe no key equals."""
    if not len(keys):
        return np.full(len(probe), -1, dtype=np.intp)
    at = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
    return np.where(keys[at] == probe, values[at], -1)


def _drifts(latencies: np.ndarray, phases: Sequence[np.ndarray]) -> np.ndarray:
    """``abs(sum(phases) - latency)`` per request, given the five phase
    arrays, added left to right as a ``+=`` loop adds them."""
    forward, wait, service, block, reverse = phases
    return np.abs(forward + wait + service + block + reverse - latencies)


def _encode(labels: Sequence) -> Tuple[list, np.ndarray]:
    """``(names, codes)``: the distinct labels in first-seen order, and
    each label's index among them (fewer than 32,768 distinct labels:
    origins, stages and resource names)."""
    code = {label: k for k, label in enumerate(dict.fromkeys(labels))}
    return list(code), np.fromiter(map(code.__getitem__, labels), np.int16,
                                   len(labels))


def _groups(labels: Sequence[str]) -> Dict[str, np.ndarray]:
    """The row indices of each distinct label, labels in first-seen
    order, each one's rows ascending."""
    names, codes = _encode(labels)
    return {label: np.flatnonzero(codes == k) for k, label in enumerate(names)}


def _first_seen_counts(values: np.ndarray) -> Dict[float, int]:
    """``Counter(values)``: each distinct value's count, in first-seen
    order (``np.unique`` sorts stably when asked for first indices, so
    each distinct value is its first occurrence)."""
    distinct, first, counts = np.unique(values, return_index=True,
                                        return_counts=True)
    order = np.argsort(first)
    return dict(zip(distinct[order].tolist(), counts[order].tolist()))


#: the columns of :attr:`SpanCollector._state`, one row per tracked
#: request: its id, then the buffer indices of its birth, completion,
#: latest ``gm[`` record, memory service and sync outcome (-1 while
#: absent), then its birth ordinal: how many births the collector
#: admitted before it.
_RID, _BIRTH, _END, _MEM, _SVC, _SYNC, _ORD = range(7)


#: the record kinds the stitch reads per request, births aside: every
#: non-hop record that names a request (a sync timeout names none).
_NAMED = np.zeros(_KIND_HOP + 1, dtype=bool)
_NAMED[[_KIND_GM, _EV_DELIVER, _EV_GSVC, _EV_SYNC, _EV_TRANSIENT, _EV_ECC,
        _EV_REROUTE]] = True


#: what the per-request reads of a folded collector raise.
_FOLDED = ("this collector's records were folded (SpanCollector.fold): "
           "its spans are gone; LatencyAnalysis.from_collectors still reads it")


class _FoldedRows:
    """The complete requests with a memory timeline that one buffered
    fold (:meth:`SpanCollector.fold`) kept, in admission order: the
    report columns (origin, latency, the five phases) and each request's
    hops as :func:`stage_segments` takes them (a stage code and four
    floats per hop): about 260 bytes per request of six hops.  It
    answers the hop read of :class:`LatencyAnalysis`; its spans are
    gone."""

    def __init__(self, origins: list, latencies: np.ndarray,
                 phases: Sequence[np.ndarray], counts: List[int],
                 fields: tuple) -> None:
        self._origin_names, self._origins = _encode(origins)
        self._latencies = latencies
        self._phases = np.array(phases)
        self._offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.intp)))
        stages, *hops = fields
        self._stage_names, self._stages = _encode(stages)
        #: svc, enqueue, service_end and depart of each hop
        self._hops = hops

    def rows(self) -> tuple:
        """``(self, keys, origins, latencies, phases)``: every row, as
        :meth:`LatencyAnalysis._set_rows` takes a source."""
        names = self._origin_names
        return (self, np.arange(len(self._latencies)),
                list(map(names.__getitem__, self._origins.tolist())),
                self._latencies, self._phases)

    def _spans_at(self, keys: np.ndarray) -> List[RequestSpan]:
        raise RuntimeError(_FOLDED)

    def _hop_columns(self, keys: np.ndarray) -> Tuple[tuple, List[int]]:
        """The :func:`stage_segments` fields of the rows ``keys``' hops
        and each one's hop count."""
        lo = self._offsets[keys]
        counts = self._offsets[keys + 1] - lo
        # row j's hops sit at lo[j]...; in the output they start where
        # the earlier rows' hops end
        at = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts,
                                                 counts)
        names = self._stage_names
        return ((list(map(names.__getitem__, self._stages[at].tolist())),
                 *(column[at] for column in self._hops)), counts.tolist())


class SpanCollector:
    """Broadcast bus subscriber stitching per-request span trees.

    Attach before the machine assembles (via a context observer) or to
    an already-built machine's bus; only references born *after* attach
    are traced — events for unknown request ids (cluster-local traffic,
    pre-attach births) are ignored.  Request ids are unique per birth
    (one process-wide counter), which the stitching relies on.

    ``max_requests`` bounds memory: births past the cap count into
    :attr:`dropped` instead of being tracked.

    One record stream
    -----------------

    The signal handlers that run inside the simulation loop only extend
    one flat buffer with an eight-slot record (layouts at ``_EV_BIRTH``),
    extracting the packet fields they need **at event time** because
    packets are pooled and mutate (a request becomes its reply in place,
    then is recycled into an unrelated reference).  The record tuple
    dies in the handler, so tracing leaves no GC-tracked object behind
    per event.  ``net.span`` records arrive pre-packed, and the
    subscriber is the buffer's own C-level ``extend``.

    Stitching is deferred to the first read (:attr:`requests`,
    :meth:`complete_spans`, :meth:`spans`, ...) and runs in columns
    (:meth:`_drain`).  Per-request state is one integer array, a row per
    tracked request in admission order holding buffer indices: the
    birth, the completion (the deliver, or a store's ``gm[`` record),
    the latest ``gm[`` record, memory service and sync outcome; fault
    records are listed per request id.  Two columns kept beside the
    buffer, each record's kind and the request id it names, let a
    request's hops — the other ``net.span`` records with its id strictly
    between its birth and its completion — be picked by position when a
    span is built or a tail cohort is attributed.  :class:`RequestSpan`
    objects are built on demand; the report summary
    (:meth:`LatencyAnalysis.from_collectors`) folds the buffer directly.
    Results are identical to stitching each record as it arrives; only
    *when* and *how* the work happens changes.

    Occupancies still in flight when the run ends have not departed and
    therefore produce no hop record.

    One fold, two accumulators
    --------------------------

    A fold (:meth:`_fold`) builds the report columns of the final rows
    once, hands them to the collector's accumulator
    (:meth:`_accumulate`), releases the rows and compacts the buffer to
    the records still in flight.  This collector folds at idle points
    (:meth:`fold`), where every row is final: its accumulator keeps the
    columns exactly, in admission order, and the buffer empties.  The
    streaming store folds its completions into sketches at each drain.
    The admitted count (the ``max_requests`` cap), :attr:`dropped`,
    :attr:`completed` and :attr:`incomplete` carry across folds, and
    :meth:`analyze` reads the folded parts and then the buffer, in
    admission order.  The per-request reads
    (:attr:`requests`, :meth:`spans`, :meth:`complete_spans`,
    :meth:`incomplete_spans`) raise once a fold has released requests.
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

    #: whether a request stops reading its records once it completes.
    #: The buffered collector keeps every request, so a memory service,
    #: sync outcome or fault that arrives after its completion still
    #: lands on it; the streaming store releases it at completion.
    RELEASE_AT_COMPLETION = False

    def __init__(self, max_requests: int = DEFAULT_MAX_REQUESTS) -> None:
        if max_requests < 1:
            raise ValueError("max_requests must be positive")
        self.max_requests = max_requests
        #: the flat record buffer.  The bus holds its bound ``extend`` as
        #: the net.span subscriber, so the list object never changes.
        self._events: list = []
        #: buffer slots stitched so far.
        self._cursor = 0
        #: one row per tracked request, in admission order (columns
        #: ``_RID`` ... ``_ORD``).
        self._state = np.empty((0, 7), dtype=np.intp)
        #: request id -> its fault record indices.
        self._faults: Dict[int, List[int]] = {}
        #: sync address -> its open sync requests, in admission order.
        self._open_syncs: Dict[int, List[int]] = {}
        self._kinds = _Kinds()
        #: per stitched record: its kind and the request id it names
        #: (-1 for none).
        self._kind = np.empty(0, dtype=np.int8)
        self._ids = np.empty(0, dtype=np.intp)
        self._dropped = 0
        self._completed = 0
        #: the parts the buffered accumulator kept, and how many admitted
        #: requests folds released from the state.
        self._folds: List[_FoldedRows] = []
        self._folded = 0
        self._subscriptions: List[tuple] = []

    # -- attachment --------------------------------------------------------

    def attach(self, bus) -> "SpanCollector":
        for name in self.SIGNALS:
            if bus.declared(name):
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

    # -- hot-path signal handlers (one record each; no stitching) ----------

    def _on_req_birth(self, packet, origin: str, time: float) -> None:
        # the PacketKind member, not its name: ``.name`` costs a frame
        self._events.extend((
            _EV_SYNC_BIRTH if origin == "sync" else _EV_BIRTH,
            packet.request_id, origin, packet.src, packet.address, packet.kind,
            packet.words, time,
        ))

    def _on_req_deliver(self, packet, time: float) -> None:
        self._events.extend((_EV_DELIVER, packet.request_id, 0, 0, 0, 0, 0, time))

    def _on_gmem_service(self, module: int, packet, time: float,
                         cycles: float) -> None:
        self._events.extend(
            (_EV_GSVC, packet.request_id, module, 0, cycles, 0, time, 0)
        )

    def _on_sync_op(self, module: int, address: int, time: float, packet,
                    success: bool) -> None:
        self._events.extend((
            _EV_SYNC, packet.request_id, success, packet.meta.get("sync"),
            0, 0, 0, time,
        ))

    def _on_fault_transient(self, resource, packet, time: float,
                            backoff_cycles: float) -> None:
        self._events.extend((
            _EV_TRANSIENT, packet.request_id, resource.name, backoff_cycles,
            0, 0, 0, time,
        ))

    def _on_fault_ecc(self, module: int, packet, time: float,
                      stall_cycles: float) -> None:
        self._events.extend((
            _EV_ECC, packet.request_id, module, stall_cycles, 0, 0, 0, time,
        ))

    def _on_fault_reroute(self, network: str, packet, time: float) -> None:
        self._events.extend(
            (_EV_REROUTE, packet.request_id, network, 0, 0, 0, 0, time)
        )

    def _on_fault_sync_timeout(self, module: int, address: int, time: float,
                               penalty_cycles: float) -> None:
        self._events.extend((
            _EV_SYNC_TIMEOUT, -1, module, penalty_cycles, address, 0, 0, time,
        ))

    # -- deferred stitching ------------------------------------------------

    def _drain(self) -> None:
        """Stitch the records appended since the last drain, in columns.

        Records are buffered in emission order, which is temporal order,
        so each request's state follows from positions: its completion
        is its first deliver (or store ``gm[`` record) after its birth;
        its ``gm[``, memory-service and sync entries are the last such
        records while it is held.  One C-level pass each reads the kind
        and the request id of every record; admissions, completions and
        the state columns are then numpy selections and scatters, and
        Python loops run only over fault records, sync timeouts, sync
        births and completions, and cap evictions."""
        buf = self._events
        n = len(buf)
        start = self._cursor
        if start >= n:
            return
        self._cursor = n
        kind = np.frombuffer(
            bytes(map(self._kinds.__getitem__, buf[start:n:HOP_SLOTS])), np.int8
        )
        ids = np.fromiter(buf[start + 1:n:HOP_SLOTS], np.intp, len(kind))
        # record k sits at buffer index 8 * k; this drain starts at head
        head = start // HOP_SLOTS
        born = np.flatnonzero((kind == _EV_BIRTH) | (kind == _EV_SYNC_BIRTH))
        born = born[:self._admit(len(born))]
        fresh = np.full((len(born), 7), -1, dtype=np.intp)
        fresh[:, _RID] = ids[born]
        fresh[:, _BIRTH] = start + HOP_SLOTS * born
        fresh[:, _ORD] = self._folded + len(self._state) + np.arange(len(born))
        for b in fresh[kind[born] == _EV_SYNC_BIRTH, _BIRTH].tolist():
            self._open_syncs.setdefault(buf[b + 4], []).append(buf[b + 1])
        state = self._state = np.concatenate((self._state, fresh))
        if len(self._ids):
            kind = np.concatenate((self._kind, kind))
            ids = np.concatenate((self._ids, ids))
        self._kind, self._ids = kind, ids

        # the records naming a tracked request after its birth, hops and
        # births aside, and that request's row
        k = head + np.flatnonzero(_NAMED[kind[head:]])
        row = self._rows_of(ids[k])
        named = row >= 0
        named[named] = HOP_SLOTS * k[named] > state[row[named], _BIRTH]
        k, row = k[named], row[named]
        at, what = HOP_SLOTS * k, kind[k]
        gm = what == _KIND_GM
        closing = what == _EV_DELIVER
        # stores are terminal at the module: no reply travels back
        closing[gm] = np.fromiter(map(buf.__getitem__, (at[gm] + 3).tolist()),
                                  bool, np.count_nonzero(gm))
        # a request completed in an earlier drain completes once
        live = state[row, _END] < 0
        closing &= live
        # per row (positions ascend, so minima are first records and
        # maxima last ones): where it first closes, where this drain
        # cuts it, and where it completes — a request cut before its
        # completion never completes
        first = np.full(len(state), _NEVER, dtype=np.intp)
        np.minimum.at(first, row[closing], at[closing])
        closed = np.flatnonzero(first < _NEVER)
        until = np.full(len(state), _NEVER, dtype=np.intp)
        cut = self._cut(len(born), closed, first[closed])
        until[list(cut)] = list(cut.values())
        closes = np.where(first < until, first, _NEVER)
        stops = np.minimum(until, closes)
        mem = gm & live & (at <= closes[row]) & (at < until[row])
        held = at < (stops if self.RELEASE_AT_COMPLETION else until)[row]
        for column, rows in ((_MEM, mem), (_SVC, held & (what == _EV_GSVC)),
                             (_SYNC, held & (what == _EV_SYNC))):
            np.maximum.at(state[:, column], row[rows], at[rows])
        faulty = held & (what >= _EV_TRANSIENT) & (what <= _EV_REROUTE)
        timeouts = HOP_SLOTS * (head + np.flatnonzero(ids[head:] < 0))
        if len(timeouts) or faulty.any():
            self._charge(np.concatenate((at[faulty], timeouts)), stops)
        finish = np.flatnonzero(closes < _NEVER)
        self._completed += len(finish)
        self._close_syncs(finish)
        state[finish, _END] = closes[finish]

    # -- stitching steps ---------------------------------------------------

    def _rows_of(self, rids: np.ndarray) -> np.ndarray:
        """The state row of each tracked request in ``rids``, -1 for an
        id not tracked."""
        tracked = self._state[:, _RID]
        order = np.argsort(tracked)
        return _lookup(tracked[order], order, rids)

    def _admit(self, births: int) -> int:
        """How many of this drain's ``births`` to track, in order.  The
        buffered collector admits births until ``max_requests`` are
        tracked and counts the rest into :attr:`dropped`: it never frees
        a row, so the earliest population is kept, which exact analyses
        rely on."""
        room = max(self.max_requests - self._folded - len(self._state), 0)
        self._dropped += max(births - room, 0)
        return min(room, births)

    def _cut(self, born: int, closed: np.ndarray,
             close_at: np.ndarray) -> Dict[int, int]:
        """``{row: index}`` of the requests this drain stops tracking
        before they complete, given how many rows it admitted (the last
        ``born``) and the first completing record of each request
        (``closed`` rows, ``close_at`` indices).  The buffered collector
        cuts none; the streaming store evicts at its cap."""
        return {}

    def _charge(self, at: np.ndarray, stops: np.ndarray) -> None:
        """Append the fault records at ``at`` to their requests' fault
        lists, in record order.  A sync timeout names no request: it is
        charged to the oldest sync on its address that is tracked, born
        before it and not completed or cut by it (``stops``: per row,
        where this drain completes or cuts it)."""
        buf = self._events
        faults = self._faults
        state = self._state
        row_of = dict(zip(state[:, _RID].tolist(), range(len(state))))
        for i in np.sort(at).tolist():
            rid = buf[i + 1]
            if rid < 0:
                for rid in self._open_syncs.get(buf[i + 4], ()):
                    r = row_of.get(rid)
                    if r is not None and state[r, _BIRTH] < i < stops[r]:
                        break
                else:
                    continue
            faults.setdefault(rid, []).append(i)

    def _close_syncs(self, rows: np.ndarray) -> None:
        """Take the sync requests among ``rows`` (completed or released)
        off their address's open list."""
        buf = self._events
        bs = self._state[rows, _BIRTH]
        for b in bs[self._kind[bs // HOP_SLOTS] == _EV_SYNC_BIRTH].tolist():
            ids = self._open_syncs.get(buf[b + 4])
            if ids and buf[b + 1] in ids:
                ids.remove(buf[b + 1])

    # -- reading the buffer ------------------------------------------------

    def _hop_runs(self, bs: np.ndarray, es: np.ndarray
                  ) -> Tuple[np.ndarray, List[int]]:
        """For requests born at buffer indices ``bs`` and ending at
        ``es`` (a completion, or where their hops stop being read): the
        buffer indices of their hop records, request by request, each
        in emission order, and each request's hop count.  A request's
        hops are the hop records naming it strictly between the two
        indices, read off the kind and id columns in numpy."""
        if not len(bs):
            return np.empty(0, dtype=np.intp), []
        lo = int(bs.min()) // HOP_SLOTS
        hi = int(es.max()) // HOP_SLOTS
        rids = self._ids[bs // HOP_SLOTS]
        slots = lo + np.flatnonzero(self._kind[lo:hi] == _KIND_HOP)
        order = np.argsort(rids)
        request = _lookup(rids[order], order, self._ids[slots])
        at = slots[request >= 0] * HOP_SLOTS
        request = request[request >= 0]
        mine = (bs[request] < at) & (at < es[request])
        at = at[mine]
        request = request[mine]
        return (at[np.argsort(request, kind="stable")],
                np.bincount(request, minlength=len(bs)).tolist())

    def _hop_fields(self, at: np.ndarray) -> tuple:
        """The :func:`stage_segments` fields of the hop records at buffer
        indices ``at``: one slice of the buffer per slot, picked in numpy
        (a gather per slot peaked higher on a machine-sized fold)."""
        buf = self._events
        records = at // HOP_SLOTS

        def column(slot: int) -> np.ndarray:
            return np.array(buf[slot::HOP_SLOTS], dtype=object)[records]

        return (list(map(_stage_of, column(0).tolist())),
                *(column(k).astype(float) for k in (4, 5, 6, 7)))

    def _records(self, at: np.ndarray) -> list:
        """The flat records at buffer indices ``at``, concatenated."""
        return list(chain.from_iterable(map(
            self._events.__getitem__,
            map(slice, at.tolist(), (at + HOP_SLOTS).tolist()),
        )))

    def _hop_records(self, bs: np.ndarray, es: np.ndarray) -> List[list]:
        """Flat hop records per request for births ``bs`` and ends
        ``es`` (see :meth:`_hop_runs`)."""
        at, counts = self._hop_runs(bs, es)
        flat = self._records(at)
        bounds = list(accumulate(counts, initial=0))
        return [flat[HOP_SLOTS * lo:HOP_SLOTS * hi]
                for lo, hi in zip(bounds, bounds[1:])]

    def _bounds(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Birth and end indices of the requests in ``rows``; an
        in-flight request's hops run up to the cursor."""
        state = self._state[rows]
        ends = state[:, _END]
        return state[:, _BIRTH], np.where(ends >= 0, ends, self._cursor)

    def _span(self, b: int, e: int, g: int, s: int, y: int,
              faults: Optional[List[int]], hops: list) -> RequestSpan:
        """Build the :class:`RequestSpan` of a request from its record
        indices (birth, completion, ``gm[``, memory service, sync
        outcome: -1 when absent; faults) and its flat hop records."""
        buf = self._events
        _tag, rid, origin, port, address, kind, words, birth = buf[b:b + HOP_SLOTS]
        span = RequestSpan(rid, origin, port, address, kind.name, words, birth)
        span.raw_hops = hops
        if g >= 0:
            span.mem_enqueue = buf[g + 5]
            span.mem_depart = buf[g + 7]
        if s >= 0:
            span.mem_module = buf[s + 2]
            span.mem_cycles = buf[s + 4]
            span.mem_service_end = buf[s + 6]
        if y >= 0:
            span.sync_success = buf[y + 2]
            span.sync_op = format_sync_op(buf[y + 3])
        if faults:
            span.faults = [_fault_dict(buf, j) for j in faults]
        if e >= 0:
            span.end = buf[e + 7]
            span.complete = True
        return span

    def _hop_columns(self, rows: np.ndarray) -> Tuple[tuple, List[int]]:
        """The :func:`stage_segments` fields of the requests in ``rows``'
        hops and each one's hop count, read from the buffer without
        building records."""
        at, counts = self._hop_runs(*self._bounds(rows))
        return self._hop_fields(at), counts

    def _spans_at(self, rows: np.ndarray) -> List[RequestSpan]:
        """:class:`RequestSpan` objects for the requests in ``rows``."""
        faults = self._faults
        hops = self._hop_records(*self._bounds(rows))
        return [
            self._span(*row[_BIRTH:_ORD], faults.get(row[_RID]), raw)
            for row, raw in zip(self._state[rows].tolist(), hops)
        ]

    def _report_columns(self, rows: np.ndarray) -> tuple:
        """``(rows, origins, latencies, phases)`` of the complete requests
        with a memory timeline among ``rows``, in the order given, with
        :meth:`RequestSpan.phases`' arithmetic done elementwise."""
        picked = self._state[rows]
        phased = ((picked[:, _END] >= 0) & (picked[:, _MEM] >= 0)
                  & (picked[:, _SVC] >= 0))
        buf = self._events
        bs, es, gs, ss = picked[phased][:, [_BIRTH, _END, _MEM, _SVC]].T
        births = _gather(buf, bs, 7)
        ends = _gather(buf, es, 7)
        enqueues = _gather(buf, gs, 5)
        departs = _gather(buf, gs, 7)
        cycles = _gather(buf, ss, 4)
        served = _gather(buf, ss, 6)
        origins = list(map(buf.__getitem__, (bs + 2).tolist()))
        return rows[phased], origins, ends - births, [
            enqueues - births,
            (served - cycles) - enqueues,
            cycles,
            departs - served,
            ends - departs,
        ]

    def _row_sources(self) -> List[tuple]:
        """``(source, keys, origins, latencies, phases)`` per source of
        the complete requests with a memory timeline: each folded part,
        then the buffer, in admission order (see
        :meth:`LatencyAnalysis._set_rows`)."""
        self._drain()
        return [part.rows() for part in self._folds] + [
            (self, *self._report_columns(np.arange(len(self._state))))
        ]

    # -- folding -----------------------------------------------------------

    def fold(self) -> None:
        """Fold every request at an idle point, where nothing is in
        flight.  A request still incomplete then never completes, so it
        stays counted in :attr:`incomplete` and its records go."""
        self._drain()
        self._fold(np.arange(len(self._state)))

    def _fold(self, rows: np.ndarray) -> None:
        """The one fold, over the final ``rows`` in the order given: the
        report columns, hop pick and hop fields of the complete ones with
        a memory timeline go to :meth:`_accumulate`, then ``rows`` are
        released and the buffer compacted."""
        phased, *columns = self._report_columns(rows)
        if len(phased):
            at, counts = self._hop_runs(*self._bounds(phased))
            self._accumulate(phased, *columns, at, counts, self._hop_fields(at))
        self._release(rows)
        self._compact()

    def _accumulate(self, rows: np.ndarray, origins: list,
                    latencies: np.ndarray, phases: List[np.ndarray],
                    at: np.ndarray, counts: List[int], fields: tuple) -> None:
        """Take a fold's columns (hop records at buffer indices ``at``,
        ``counts`` per row).  The buffered collector keeps them exactly,
        as one part that :meth:`LatencyAnalysis.from_collectors` reads."""
        self._folds.append(_FoldedRows(origins, latencies, phases, counts,
                                       fields))

    def _release(self, rows: np.ndarray) -> None:
        """Drop the requests in ``rows`` from the state, with their fault
        lists and their places on the open sync lists."""
        state = self._state
        self._close_syncs(rows)
        if self._faults:
            for rid in state[rows, _RID].tolist():
                self._faults.pop(rid, None)
        self._state = np.delete(state, rows, axis=0)
        self._folded += len(rows)

    def _compact(self) -> None:
        """Shrink the buffer to the records of the requests still tracked
        (their birth and every later record naming them, plus the sync
        timeouts charged to them) and re-point their indices; the kind
        and id columns become fresh arrays (a view keeps the old alive)."""
        buf = self._events
        state = self._state
        ids = self._ids
        keep = np.zeros(len(ids), dtype=bool)
        if len(state):  # no buffer-sized lookup when the fold took all
            row = self._rows_of(ids)
            named = np.flatnonzero(row >= 0)
            keep[named] = named * HOP_SLOTS >= state[row[named], _BIRTH]
            keep[[j // HOP_SLOTS for idx in self._faults.values() for j in idx
                  if buf[j + 1] < 0]] = True
        keep = np.flatnonzero(keep)
        carried = self._records(keep * HOP_SLOTS)
        del buf[:]  # in place: the bus holds its extend
        buf += carried
        self._cursor = len(carried)
        self._kind = self._kind[keep]
        self._ids = ids[keep]
        # every index the state and fault lists hold is a kept record's
        at = state[:, _BIRTH:_ORD]
        state[:, _BIRTH:_ORD] = np.where(
            at >= 0, HOP_SLOTS * np.searchsorted(keep, at // HOP_SLOTS), -1)
        for rid, idx in self._faults.items():
            self._faults[rid] = (HOP_SLOTS * np.searchsorted(
                keep, np.array(idx) // HOP_SLOTS)).tolist()

    def _unfolded(self) -> None:
        """Drain, or raise when a fold has released requests."""
        if self._folded:
            raise RuntimeError(_FOLDED)
        self._drain()

    # -- results (every accessor drains first) -----------------------------

    @property
    def requests(self) -> Dict[int, RequestSpan]:
        """Stitched spans keyed by request id: a fresh snapshot built on
        each read, O(requests) per read.  Edits to the returned spans do
        not persist; read it once outside a loop."""
        self._unfolded()
        spans = self._spans_at(np.arange(len(self._state)))
        return {span.request_id: span for span in spans}

    @property
    def completed(self) -> int:
        self._drain()
        return self._completed

    @property
    def incomplete(self) -> int:
        """Traced requests not completed: still in flight at the read,
        or at the fold that released them (an idle point, or the
        streaming store's eviction at its cap)."""
        self._drain()
        return self._folded + len(self._state) - self._completed

    @property
    def dropped(self) -> int:
        self._drain()
        return self._dropped

    @property
    def pending_events(self) -> int:
        """Buffered records not yet stitched (introspection/tests)."""
        return (len(self._events) - self._cursor) // HOP_SLOTS

    def complete_spans(self) -> List[RequestSpan]:
        self._unfolded()
        return self._spans_at(np.flatnonzero(self._state[:, _END] >= 0))

    def incomplete_spans(self) -> List[RequestSpan]:
        """Requests still in flight — a simulation that drains fully
        should leave none; orphans point at lost replies."""
        self._unfolded()
        return self._spans_at(np.flatnonzero(self._state[:, _END] < 0))

    def spans(self) -> dict:
        """The JSON-serializable spans document (schema versioned;
        checked by :func:`validate_spans`)."""
        self._unfolded()
        ordered = sorted(
            self._spans_at(np.arange(len(self._state))), key=lambda s: s.birth
        )
        return {
            "version": SPANS_VERSION,
            "complete": self._completed,
            "incomplete": self.incomplete,
            "dropped": self._dropped,
            "requests": [span.to_dict() for span in ordered],
        }

    def write(self, path) -> None:
        from repro.monitor.tracer import _write_json

        _write_json(self.spans(), path, "requests")

    @classmethod
    def analyze(cls, collectors: Sequence["SpanCollector"]) -> "LatencyAnalysis":
        """The latency analysis of this class's ``collectors``."""
        return LatencyAnalysis.from_collectors(collectors)


# ---------------------------------------------------------------------------
# latency analysis


class _SpanList:
    """Complete spans with a memory timeline, answering the two collector
    reads :class:`LatencyAnalysis` makes, keyed by position instead of
    request id."""

    def __init__(self, spans: Sequence[RequestSpan]) -> None:
        self._spans = [s for s in spans if s.complete and s.phases() is not None]

    def rows(self) -> tuple:
        """``(self, keys, origins, latencies, phases)``: every span, as
        :meth:`LatencyAnalysis._set_rows` takes a source."""
        spans = self._spans
        phases = [s.phases() for s in spans]
        return (self, np.arange(len(spans)), [s.origin for s in spans],
                np.array([s.latency for s in spans], dtype=float),
                [np.array([p[phase] for p in phases], dtype=float)
                 for phase in PHASES])

    def _spans_at(self, keys: np.ndarray) -> List[RequestSpan]:
        return [self._spans[k] for k in keys.tolist()]

    def _hop_columns(self, keys: np.ndarray) -> Tuple[tuple, List[int]]:
        return concat_hops([self._spans[k].raw_hops for k in keys.tolist()])


class _Column:
    """An exact distribution answering the :class:`QuantileSketch` reads
    of :class:`LatencyAnalysis`: ``count``, ``sum`` added left to right,
    the first maximum, and quantiles from a :class:`Histogrammer` over
    ``[0, max]`` filled as recording each value in turn fills it."""

    def __init__(self, values: np.ndarray, bins: int) -> None:
        self._values = values
        self._bins = bins
        self.count = len(values)

    @cached_property
    def sum(self) -> float:
        return chained_sum(self._values)

    @property
    def max(self) -> float:
        # argmax keeps the first of equal maxima, as max() does
        return self._values[self._values.argmax()].item()

    @cached_property
    def _histogram(self) -> Histogrammer:
        hi = max(self.max, 1e-9)
        return Histogrammer.from_counts(_first_seen_counts(self._values), 0.0,
                                        hi * (1.0 + 1e-6), self._bins)

    def quantile(self, q: float) -> float:
        return self._histogram.percentile(q)


class LatencyAnalysis:
    """Latency decomposition, percentiles and bottleneck attribution
    over completed requests.

    Every table reads three inputs:

    * the end-to-end distribution of each origin and of ``"all"``, and
      each phase's, through the calls a
      :class:`~repro.monitor.sketch.QuantileSketch` answers (``count``,
      ``sum``, ``max``, ``quantile``);
    * per-stage ``[queue_wait, service, blocked, traversals]`` totals;
    * one row source for the tail cohort and the slowest spans: rows
      ``(origin, latency, *phases)`` held as arrays, whose spans and
      hops are read from their source only for the rows a method
      returns or attributes.

    The exact analysis (:meth:`from_collectors`, one collector's folded
    parts and buffer after another; ``LatencyAnalysis(spans)``) reads
    every row: its distributions are the row columns (percentiles
    through :class:`Histogrammer`, the paper's 64K hardware counters)
    and its stage totals the rows' hops'.  The streaming analysis
    (:meth:`~repro.monitor.streamstore.StreamingSpanStore.analyze`) reads
    merged sketches and running totals, and its rows are the exemplars.
    """

    QUANTILES = (0.5, 0.9, 0.95, 0.99)

    def __init__(self, spans: Sequence[RequestSpan], bins: int = 2048,
                 dropped: int = 0) -> None:
        self._exact([_SpanList(spans).rows()], bins, dropped)

    @classmethod
    def from_collectors(cls, collectors: Sequence[SpanCollector],
                        bins: int = 2048) -> "LatencyAnalysis":
        """The analysis of several collectors' complete requests (one per
        machine, say), read from their folded parts and buffers."""
        analysis = cls.__new__(cls)
        analysis._exact([part for c in collectors for part in c._row_sources()],
                        bins, sum(c.dropped for c in collectors))
        return analysis

    def _exact(self, parts: Sequence[tuple], bins: int, dropped: int) -> None:
        """Read every row: the distributions are its columns, the stage
        totals its hops' (read when first asked)."""
        self._set_rows(parts)
        latencies, phases = self._latencies, self._phases

        def stage_totals() -> Dict[str, list]:
            segments = stage_segments(*self._segments(np.arange(len(latencies))))
            return {stage: [*chained_sum(rows, (0.0, 0.0, 0.0)), len(rows)]
                    for stage, rows in segments.items()}

        self._set_inputs(
            {"all": _Column(latencies, bins),
             **{origin: _Column(latencies[rows], bins)
                for origin, rows in _groups(self._origins).items()}},
            {phase: _Column(values, bins) for phase, values in phases.items()},
            stage_totals,
            _drifts(latencies, phases.values()).max(initial=0.0).item(),
            dropped, 0,
        )

    def _set_rows(self, parts: Sequence[tuple]) -> None:
        """``parts``: per source, ``(source, keys, origins, latencies,
        phases)`` — a source answers ``_spans_at(keys)`` and
        ``_hop_columns(keys)`` for a key array of its rows."""
        #: per source, (source, its row keys); rows run source by source
        self._sources = [(part[0], part[1]) for part in parts]
        self._offsets = np.cumsum([0] + [len(part[1]) for part in parts])
        self._origins = [origin for part in parts for origin in part[2]]
        self._latencies = np.concatenate(
            [part[3] for part in parts] or [np.empty(0)]
        )
        self._phases = {
            phase: np.concatenate([part[4][k] for part in parts] or [np.empty(0)])
            for k, phase in enumerate(PHASES)
        }

    def _set_inputs(self, latency: dict, phases: dict, stage_totals,
                    worst: float, dropped: int, evicted: int) -> None:
        """The distributions (``"all"`` and per origin; per phase), a
        callable returning the stage totals, the worst drift, counters."""
        self._latency = latency
        self._phase = phases
        self._stage_totals = stage_totals
        self._worst = worst
        #: births the collector refused at its cap — the analyzed
        #: population is silently truncated when this is non-zero, so
        #: renderers surface it next to the quantile tables.
        self.dropped = dropped
        #: in-flight requests a streaming store evicted at its cap.
        self.evicted = evicted

    def _split(self, rows: np.ndarray):
        """``(source, keys, positions)`` per source holding some of
        ``rows``: its keys for them, and where they sit in ``rows``."""
        which = np.searchsorted(self._offsets, rows, side="right") - 1
        for k, (source, keys) in enumerate(self._sources):
            picked = np.flatnonzero(which == k)
            if len(picked):
                yield source, keys[rows[picked] - self._offsets[k]], picked.tolist()

    def _spans_of(self, rows) -> List[RequestSpan]:
        """The spans of ``rows``, in the order given."""
        rows = np.asarray(rows, dtype=np.intp)
        spans: List[Optional[RequestSpan]] = [None] * len(rows)
        for source, keys, picked in self._split(rows):
            for j, span in zip(picked, source._spans_at(keys)):
                spans[j] = span
        return spans

    def _hops_of(self, rows: np.ndarray) -> Tuple[tuple, List[int]]:
        """The :func:`stage_segments` fields and hop counts of ascending
        ``rows``."""
        parts = [source._hop_columns(keys)
                 for source, keys, _ in self._split(rows)]
        if not parts:
            return ([], *[np.empty(0)] * 4), []
        if len(parts) == 1:
            return parts[0]
        fields = tuple(zip(*(fields for fields, _ in parts)))
        return (
            [stage for stages in fields[0] for stage in stages],
            *(np.concatenate(column) for column in fields[1:]),
        ), [count for _, counts in parts for count in counts]

    @property
    def requests(self) -> int:
        """Phased complete requests in the analyzed population."""
        return self._latency["all"].count

    @property
    def spans(self) -> List[RequestSpan]:
        """The row source's spans, in row order (built on each read)."""
        return self._spans_of(np.arange(len(self._latencies)))

    def _stats_row(self, dist) -> dict:
        p50, p90, p95, p99 = map(dist.quantile, self.QUANTILES)
        return {
            "count": dist.count,
            "mean": dist.sum / dist.count,
            "p50": p50, "p90": p90, "p95": p95, "p99": p99,
            "max": dist.max,
        }

    # -- decompositions ----------------------------------------------------

    def end_to_end(self) -> Dict[str, dict]:
        """Latency statistics per origin class plus ``"all"``."""
        out = {
            origin: self._stats_row(dist)
            for origin, dist in sorted(self._latency.items())
            if origin != "all" and dist.count
        }
        if self.requests:
            out["all"] = self._stats_row(self._latency["all"])
        return out

    def phase_decomposition(self) -> Dict[str, dict]:
        """Statistics for each of the five phases, with each phase's
        share of total (sum over requests) end-to-end latency."""
        total = self._latency["all"].sum or 1.0
        return {
            phase: {**self._stats_row(dist), "share": dist.sum / total}
            for phase, dist in self._phase.items() if dist.count
        }

    def _segments(self, rows: np.ndarray) -> tuple:
        """``(fields, counts, memory)`` of ascending ``rows``, as
        :func:`stage_segments` takes them."""
        phases = self._phases
        memory = [phases[phase][rows] for phase in MEMORY_PHASES]
        return (*self._hops_of(rows), memory)

    def stage_decomposition(self) -> Dict[str, dict]:
        """Queue-wait / service / blocked cycles per network stage (and
        the memory modules), averaged per traversal, with each stage's
        share of total end-to-end latency."""
        totals = self._stage_totals()
        total = self._latency["all"].sum or 1.0
        out = {}
        for stage in sorted(totals):
            wait, service, blocked, count = totals[stage]
            if count:
                out[stage] = {
                    "traversals": count,
                    "queue_wait": wait / count,
                    "service": service / count,
                    "blocked": blocked / count,
                    "share": (wait + service + blocked) / total,
                }
        return out

    # -- bottleneck attribution --------------------------------------------

    def _cohort(self, q: float) -> np.ndarray:
        """Rows at or above the ``q`` end-to-end percentile."""
        latencies = self._latencies
        if not len(latencies):
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(latencies >= self._latency["all"].quantile(q))

    def tail_cohort(self, q: float = 0.95) -> List[RequestSpan]:
        """Requests at or above the ``q`` end-to-end percentile."""
        return self._spans_of(self._cohort(q))

    def bottleneck_attribution(self, q: float = 0.95) -> List[dict]:
        """Which stage the tail waits on: per-stage share of the
        ``q``-cohort's summed latency, worst first.  The headline
        reading is "<stage> contributes N% of p95 latency"."""
        cohort = self._cohort(q)
        if not len(cohort):
            return []
        return rank_stages(self._latencies[cohort], *self._segments(cohort))

    def slowest(self, n: int = 5) -> List[RequestSpan]:
        """The ``n`` slowest rows (waterfall exemplars); equal latencies
        keep row order."""
        order = np.argsort(-self._latencies, kind="stable")
        return self._spans_of(order[:n])

    def quantile_curve(self, qs: Sequence[float]) -> List[float]:
        """End-to-end latency at each quantile in ``qs`` (what the
        distribution chart renders)."""
        return list(map(self._latency["all"].quantile, qs))

    # -- integrity ---------------------------------------------------------

    def reconciliation_error(self) -> float:
        """Worst |sum(phases) - end-to-end| across requests; the phases
        are a timeline segmentation, so this is floating-point noise —
        the acceptance bound is one cycle per request."""
        return self._worst

    def summary(self) -> dict:
        """The compact dict embedded in run reports."""
        if not self.requests:
            return {"requests": 0}
        attribution = self.bottleneck_attribution()
        return {
            "requests": self.requests,
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
