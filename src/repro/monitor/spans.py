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
from itertools import chain, repeat
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
#: * deliver ``(DELIVER, rid, 0, 0, 0, 0, 0, time)``
#: * memory service ``(GSVC, rid, module, 0, cycles, 0, service_end, 0)``
#:   — cycles and service end in the slots ``net.span`` uses for them
#: * sync outcome ``(SYNC, rid, success, operation, 0, 0, 0, time)``
#: * transient / ECC / reroute fault ``(tag, rid, where, cycles, 0, 0, 0,
#:   time)`` — ``where`` is the resource name, module or network
#: * sync timeout ``(SYNC_TIMEOUT, None, module, penalty, address, 0, 0,
#:   time)`` — the signal names no request.
_EV_BIRTH = 1
_EV_DELIVER = 2
_EV_GSVC = 3
_EV_SYNC = 4
_EV_SYNC_TIMEOUT = 5
_EV_TRANSIENT = 6
_EV_ECC = 7
_EV_REROUTE = 8

#: fault record tag -> (annotation type, key of its slot-2 value).
_FAULTS = {
    _EV_TRANSIENT: ("transient", "resource"),
    _EV_ECC: ("ecc", "module"),
    _EV_REROUTE: ("reroute", "network"),
    _EV_SYNC_TIMEOUT: ("sync_timeout", "module"),
}


def _fault_dict(buf: list, i: int) -> dict:
    """The span annotation of the fault record at ``buf[i]``."""
    kind, where = _FAULTS[buf[i]]
    fault = {"type": kind, where: buf[i + 2], "time": buf[i + 7]}
    if kind != "reroute":
        fault["cycles"] = buf[i + 3]
    return fault


def _phase_columns(buf: list, bs: Sequence[int], es: Sequence[int],
                   gs: Sequence[int], ss: Sequence[int]) -> List[list]:
    """``[origins, latencies, *phase columns]`` of complete requests whose
    birth, completion, ``gm[`` and memory-service records sit at the
    indices in ``bs``, ``es``, ``gs`` and ``ss`` — one entry per request,
    with :meth:`RequestSpan.phases`' arithmetic."""
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


def _drifts(latencies: Sequence[float],
            phases: Sequence[Sequence[float]]) -> List[float]:
    """``abs(sum(phases) - latency)`` per request, given the five phase
    columns.  The phases are added left to right, as a ``+=`` loop adds
    them, whatever the interpreter's ``sum`` does (compensated since
    Python 3.12)."""
    return [
        abs(forward + wait + service + block + reverse - latency)
        for latency, forward, wait, service, block, reverse
        in zip(latencies, *phases)
    ]


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
    :meth:`complete_spans`, :meth:`spans`, ...) and keeps per-request
    state as buffer indices: the birth, the completion (the deliver, or a
    store's ``gm[`` record), the latest ``gm[`` record, memory service
    and sync outcome, and the fault records.  A request's hops are the
    other ``net.span`` records with its id strictly between its birth
    and its completion; they are read by position only when a span is
    built or a tail cohort is attributed.  :class:`RequestSpan` objects
    are built on demand; the report summary
    (:meth:`LatencyAnalysis.from_collector`) folds the buffer directly.
    Results are identical to eager stitching; only *when* the work
    happens changes.

    Occupancies still in flight when the run ends have not departed and
    therefore produce no hop record.
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
        #: the flat record buffer.  The bus holds its bound ``extend`` as
        #: the net.span subscriber, so the list object never changes.
        self._events: list = []
        #: buffer slots stitched so far.
        self._cursor = 0
        #: request id -> birth record index, in admission order.
        self._requests: Dict[int, int] = {}
        #: request id -> completion record index, in completion order.
        self._ends: Dict[int, int] = {}
        #: request id -> its latest ``gm[`` / memory-service / sync record.
        self._mem: Dict[int, int] = {}
        self._svc: Dict[int, int] = {}
        self._sync: Dict[int, int] = {}
        #: request id -> its fault record indices.
        self._faults: Dict[int, List[int]] = {}
        self._open_syncs: Dict[int, List[int]] = {}
        #: stage per resource name already seen on non-memory
        #: ``net.span`` records: the stitching loop skips a hop on one
        #: dict lookup, and the hop columns read stages from it.
        self._hop_stages: Dict[str, str] = {}
        self._dropped = 0
        self._completed = 0
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
            _EV_BIRTH, packet.request_id, origin, packet.src,
            packet.address, packet.kind, packet.words, time,
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
            _EV_SYNC_TIMEOUT, None, module, penalty_cycles, address, 0, 0, time,
        ))

    # -- deferred stitching ------------------------------------------------

    def _drain(self) -> None:
        """Stitch the records appended since the last drain.  Records are
        buffered in emission order, which is temporal order, so the state
        transitions match eager stitching exactly."""
        buf = self._events
        n = len(buf)
        i = self._cursor
        if i >= n:
            return
        self._cursor = n
        requests = self._requests
        ends = self._ends
        faults = self._faults
        open_syncs = self._open_syncs
        mem, svc, sync = self._mem, self._svc, self._sync
        hop_stages = self._hop_stages
        cap = self.max_requests
        for i in range(i, n, HOP_SLOTS):
            tag = buf[i]
            if tag in hop_stages:
                continue  # a hop: read by position when needed
            if tag.__class__ is str:
                # a net.span record: only the memory module's is stitched
                if not tag.startswith("gm["):
                    hop_stages[tag] = _stage_of(tag)
                    continue
                rid = buf[i + 1]
                if rid in requests and rid not in ends:
                    mem[rid] = i
                    # stores are terminal at the module: no reply
                    # travels back
                    if buf[i + 3]:
                        self._finish(rid, i)
            elif tag == _EV_BIRTH:
                if len(requests) >= cap and not self._make_room(i):
                    self._dropped += 1
                else:
                    rid = buf[i + 1]
                    requests[rid] = i
                    if buf[i + 2] == "sync":
                        open_syncs.setdefault(buf[i + 4], []).append(rid)
            elif tag == _EV_DELIVER:
                rid = buf[i + 1]
                if rid in requests and rid not in ends:
                    self._finish(rid, i)
            elif tag == _EV_GSVC:
                if buf[i + 1] in requests:
                    svc[buf[i + 1]] = i
            elif tag == _EV_SYNC:
                if buf[i + 1] in requests:
                    sync[buf[i + 1]] = i
            elif tag == _EV_SYNC_TIMEOUT:
                # no packet on this signal: charge the oldest in-flight
                # sync to the same address (the one being retried).
                for rid in open_syncs.get(buf[i + 4], ()):
                    if rid in requests and rid not in ends:
                        faults.setdefault(rid, []).append(i)
                        break
            elif buf[i + 1] in requests:
                faults.setdefault(buf[i + 1], []).append(i)

    # -- stitching helpers -------------------------------------------------

    def _make_room(self, i: int) -> bool:
        """Called when the birth record at ``i`` arrives at the
        ``max_requests`` cap.  Return True after freeing a tracked slot
        to admit the new request; the buffered collector never frees
        (drop-at-cap keeps the *earliest* population, which exact
        analyses rely on) — the streaming store overrides this to evict
        its oldest in-flight span into the exemplar reservoir instead."""
        return False

    def _finish(self, rid: int, i: int) -> None:
        """Complete request ``rid`` at the record at ``i``."""
        self._completed += 1
        self._ends[rid] = i
        buf = self._events
        b = self._requests[rid]
        if buf[b + 2] == "sync":
            ids = self._open_syncs.get(buf[b + 4])
            if ids and rid in ids:
                ids.remove(rid)

    def _hop_runs(self, bounds: Dict[int, Tuple[int, int]]
                  ) -> Tuple[np.ndarray, List[int]]:
        """For ``bounds`` = ``{request id: (birth index, end index)}``:
        the buffer indices of those requests' hop records, request by
        request in ``bounds`` order, each in emission order, and each
        request's hop count.  A request's hops are the non-``gm[``
        ``net.span`` records carrying its id strictly between the two
        indices.  C-level maps read the tag and id columns of the
        covered range and one numpy pass picks the hops: no Python frame
        per record."""
        if not bounds:
            return np.empty(0, dtype=np.intp), []
        buf = self._events
        bs, es = np.array(list(bounds.values())).T
        lo = int(bs.min())
        hi = int(es.max())
        n = len(range(lo, hi, HOP_SLOTS))
        rank = dict(zip(bounds, range(len(bounds))))
        owner = np.fromiter(
            map(rank.get, buf[lo + 1:hi:HOP_SLOTS], repeat(-1)), np.intp, n
        )
        named = np.flatnonzero(owner >= 0)
        at = named * HOP_SLOTS + lo
        owner = owner[named]
        # every hop resource up to the cursor is in _hop_stages; the
        # tags of other records are integers or gm[ names
        hop = np.fromiter(
            map(self._hop_stages.__contains__, map(buf.__getitem__, at.tolist())),
            bool, len(at),
        )
        hop &= (bs[owner] < at) & (at < es[owner])
        at = at[hop]
        owner = owner[hop]
        return (at[np.argsort(owner, kind="stable")],
                np.bincount(owner, minlength=len(bounds)).tolist())

    def _hop_fields(self, at: np.ndarray) -> tuple:
        """The :func:`stage_segments` fields of the hop records at buffer
        indices ``at``."""
        buf = self._events
        get = buf.__getitem__
        return (
            list(map(self._hop_stages.__getitem__, map(get, at.tolist()))),
            *(np.fromiter(map(get, (at + k).tolist()), float, len(at))
              for k in (4, 5, 6, 7)),
        )

    def _records(self, at: np.ndarray) -> list:
        """The flat records at buffer indices ``at``, concatenated."""
        return list(chain.from_iterable(map(
            self._events.__getitem__,
            map(slice, at.tolist(), (at + HOP_SLOTS).tolist()),
        )))

    def _hop_records(self, bounds: Dict[int, Tuple[int, int]]) -> Dict[int, list]:
        """Flat hop records per request for ``bounds`` = ``{request id:
        (birth index, end index)}`` (see :meth:`_hop_runs`)."""
        at, counts = self._hop_runs(bounds)
        flat = self._records(at)
        hops = {}
        start = 0
        for rid, count in zip(bounds, counts):
            stop = start + count * HOP_SLOTS
            hops[rid] = flat[start:stop]
            start = stop
        return hops

    def _bounds(self, rids: Sequence[int]) -> Dict[int, Tuple[int, int]]:
        """``{request id: (birth index, end index)}`` of tracked requests
        ``rids``; an in-flight request's hops run up to the cursor."""
        requests = self._requests
        ends = self._ends
        upto = self._cursor
        return {rid: (requests[rid], ends.get(rid, upto)) for rid in rids}

    def _span(self, b: int, e: Optional[int], g: Optional[int],
              s: Optional[int], y: Optional[int], faults: Optional[List[int]],
              hops: list) -> RequestSpan:
        """Build the :class:`RequestSpan` of a request from its record
        indices (birth, completion, ``gm[``, memory service, sync
        outcome, faults) and its flat hop records."""
        buf = self._events
        _tag, rid, origin, port, address, kind, words, birth = buf[b:b + HOP_SLOTS]
        span = RequestSpan(rid, origin, port, address, kind.name, words, birth)
        span.raw_hops = hops
        if g is not None:
            span.mem_enqueue = buf[g + 5]
            span.mem_depart = buf[g + 7]
        if s is not None:
            span.mem_module = buf[s + 2]
            span.mem_cycles = buf[s + 4]
            span.mem_service_end = buf[s + 6]
        if y is not None:
            span.sync_success = buf[y + 2]
            span.sync_op = format_sync_op(buf[y + 3])
        if faults:
            span.faults = [_fault_dict(buf, j) for j in faults]
        if e is not None:
            span.end = buf[e + 7]
            span.complete = True
        return span

    def _hop_columns(self, rids: Sequence[int]) -> Tuple[tuple, List[int]]:
        """The :func:`stage_segments` fields of tracked requests
        ``rids``' hops and each one's hop count, read from the buffer
        without building records."""
        at, counts = self._hop_runs(self._bounds(rids))
        return self._hop_fields(at), counts

    def _spans_for(self, rids: Sequence[int]) -> List[RequestSpan]:
        """:class:`RequestSpan` objects for tracked requests ``rids``."""
        requests = self._requests
        ends = self._ends
        mem, svc, sync, faults = self._mem, self._svc, self._sync, self._faults
        hops = self._hop_records(self._bounds(rids))
        return [
            self._span(requests[rid], ends.get(rid), mem.get(rid),
                       svc.get(rid), sync.get(rid), faults.get(rid), hops[rid])
            for rid in rids
        ]

    def _rows(self) -> Tuple[List[int], List[list]]:
        """``(request ids, columns)`` of the complete requests with a
        memory timeline, in admission order (see ``_phase_columns``)."""
        self._drain()
        requests, ends, mem, svc = self._requests, self._ends, self._mem, self._svc
        rids = [rid for rid in requests
                if rid in ends and rid in mem and rid in svc]
        return rids, _phase_columns(
            self._events,
            [requests[rid] for rid in rids],
            [ends[rid] for rid in rids],
            [mem[rid] for rid in rids],
            [svc[rid] for rid in rids],
        )

    # -- results (every accessor drains first) -----------------------------

    @property
    def requests(self) -> Dict[int, RequestSpan]:
        """Stitched spans keyed by request id: a fresh snapshot built on
        each read, O(requests) per read.  Edits to the returned spans do
        not persist; read it once outside a loop."""
        self._drain()
        rids = list(self._requests)
        return dict(zip(rids, self._spans_for(rids)))

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
        """Buffered records not yet stitched (introspection/tests)."""
        return (len(self._events) - self._cursor) // HOP_SLOTS

    def complete_spans(self) -> List[RequestSpan]:
        self._drain()
        ends = self._ends
        return self._spans_for([rid for rid in self._requests if rid in ends])

    def incomplete_spans(self) -> List[RequestSpan]:
        """Requests still in flight — a simulation that drains fully
        should leave none; orphans point at lost replies."""
        self._drain()
        ends = self._ends
        return self._spans_for(
            [rid for rid in self._requests if rid not in ends]
        )

    def spans(self) -> dict:
        """The JSON-serializable spans document (schema versioned;
        checked by :func:`validate_spans`)."""
        self._drain()
        ordered = sorted(
            self._spans_for(list(self._requests)), key=lambda s: s.birth
        )
        return {
            "version": SPANS_VERSION,
            "complete": self._completed,
            "incomplete": len(self._requests) - self._completed,
            "dropped": self._dropped,
            "requests": [span.to_dict() for span in ordered],
        }

    def write(self, path) -> None:
        from repro.monitor.tracer import _write_json

        _write_json(self.spans(), path, "requests")


# ---------------------------------------------------------------------------
# latency analysis


class LatencyAnalysis:
    """Latency decomposition, percentiles and bottleneck attribution
    over completed requests.

    One implementation over per-request rows ``(origin, latency,
    *phases)`` held column-wise: :meth:`from_collector` folds them
    straight from a :class:`SpanCollector`'s buffer, building no
    :class:`RequestSpan`; ``LatencyAnalysis(spans)`` converts spans into
    the same rows.  Spans are built only where a method returns them
    (:attr:`spans`, :meth:`tail_cohort`, :meth:`slowest`).

    Percentiles run through :class:`Histogrammer` (the paper's 64K
    hardware counters) with within-bin interpolation; means, shares and
    the reconciliation check use exact arithmetic.
    """

    QUANTILES = (0.5, 0.9, 0.95, 0.99)

    def __init__(self, spans: Sequence[RequestSpan], bins: int = 2048,
                 dropped: int = 0) -> None:
        spans = [s for s in spans if s.complete and s.phases() is not None]
        phases = [s.phases() for s in spans]
        columns = [[s.origin for s in spans], [s.latency for s in spans]]
        columns += [[p[phase] for p in phases] for phase in PHASES]
        self._set_rows(
            columns, bins, dropped,
            lambda rows: [spans[i] for i in rows],
            lambda rows: concat_hops([spans[i].raw_hops for i in rows]),
        )

    @classmethod
    def from_collector(cls, collector: SpanCollector,
                       bins: int = 2048) -> "LatencyAnalysis":
        rids, columns = collector._rows()
        analysis = cls.__new__(cls)
        analysis._set_rows(
            columns, bins, collector.dropped,
            lambda rows: collector._spans_for([rids[i] for i in rows]),
            lambda rows: collector._hop_columns([rids[i] for i in rows]),
        )
        return analysis

    def _set_rows(self, columns: List[list], bins: int, dropped: int,
                  spans_of, hops_of) -> None:
        # rows held column-wise: origins, latencies, then each phase
        self._origins = columns[0]
        self._latencies = columns[1]
        self._phases = dict(zip(PHASES, columns[2:]))
        #: row indices -> their spans / (stage_segments fields, hop counts)
        self._spans_of = spans_of
        self._hops_of = hops_of
        self.bins = bins
        #: births the collector refused at its cap — the analyzed
        #: population is silently truncated when this is non-zero, so
        #: renderers surface it next to the quantile tables.
        self.dropped = dropped

    @property
    def requests(self) -> int:
        """Phased complete requests in the analyzed population (the
        same protocol accessor the streaming analysis answers from its
        sketch counts)."""
        return len(self._latencies)

    @property
    def spans(self) -> List[RequestSpan]:
        """The analyzed spans in admission order (built on each read)."""
        return self._spans_of(range(self.requests))

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
            "mean": chained_sum(values) / len(values),
            "p50": p50, "p90": p90, "p95": p95, "p99": p99,
            "max": max(values),
        }

    # -- decompositions ----------------------------------------------------

    def end_to_end(self) -> Dict[str, dict]:
        """Latency statistics per origin class plus ``"all"``."""
        by_origin: Dict[str, List[float]] = {}
        for origin, latency in zip(self._origins, self._latencies):
            by_origin.setdefault(origin, []).append(latency)
        out = {
            origin: self._stats_row(values)
            for origin, values in sorted(by_origin.items())
        }
        if self._latencies:
            out["all"] = self._stats_row(self._latencies)
        return out

    def phase_decomposition(self) -> Dict[str, dict]:
        """Statistics for each of the five phases, with each phase's
        share of total (sum over requests) end-to-end latency."""
        total = chained_sum(self._latencies) or 1.0
        out = {}
        for phase, values in self._phases.items():
            if not values:
                continue
            row = self._stats_row(values)
            row["share"] = chained_sum(values) / total
            out[phase] = row
        return out

    def _segments(self, rows: Sequence[int]) -> tuple:
        """``(fields, counts, memory)`` of ``rows``, as
        :func:`stage_segments` takes them."""
        phases = self._phases
        memory = [[phases[phase][i] for i in rows] for phase in MEMORY_PHASES]
        return (*self._hops_of(rows), memory)

    def stage_decomposition(self) -> Dict[str, dict]:
        """Queue-wait / service / blocked cycles per network stage (and
        the memory modules), averaged per traversal, with each stage's
        share of total end-to-end latency."""
        segments = stage_segments(*self._segments(range(self.requests)))
        total = chained_sum(self._latencies) or 1.0
        out = {}
        for stage in sorted(segments):
            count = len(segments[stage])
            wait, service, blocked = chained_sum(segments[stage], (0.0, 0.0, 0.0))
            out[stage] = {
                "traversals": count,
                "queue_wait": wait / count,
                "service": service / count,
                "blocked": blocked / count,
                "share": (wait + service + blocked) / total,
            }
        return out

    # -- bottleneck attribution --------------------------------------------

    def _cohort(self, q: float) -> List[int]:
        """Rows at or above the ``q`` end-to-end percentile."""
        latencies = self._latencies
        if not latencies:
            return []
        threshold = self._histogram(latencies).percentile(q)
        return [i for i, latency in enumerate(latencies) if latency >= threshold]

    def tail_cohort(self, q: float = 0.95) -> List[RequestSpan]:
        """Requests at or above the ``q`` end-to-end percentile."""
        return self._spans_of(self._cohort(q))

    def bottleneck_attribution(self, q: float = 0.95) -> List[dict]:
        """Which stage the tail waits on: per-stage share of the
        ``q``-cohort's summed latency, worst first.  The headline
        reading is "<stage> contributes N% of p95 latency"."""
        cohort = self._cohort(q)
        if not cohort:
            return []
        latencies = self._latencies
        return rank_stages([latencies[i] for i in cohort],
                           *self._segments(cohort))

    def slowest(self, n: int = 5) -> List[RequestSpan]:
        """The ``n`` slowest completed requests (waterfall exemplars)."""
        latencies = self._latencies
        order = sorted(range(len(latencies)), key=latencies.__getitem__,
                       reverse=True)
        return self._spans_of(order[:n])

    def quantile_curve(self, qs: Sequence[float]) -> List[float]:
        """End-to-end latency at each quantile in ``qs`` — the shared
        protocol surface the distribution chart renders from (the
        streaming analysis answers it from its sketch)."""
        hist = self._histogram(self._latencies)
        return [hist.percentile(q) for q in qs]

    # -- integrity ---------------------------------------------------------

    def reconciliation_error(self) -> float:
        """Worst |sum(phases) - end-to-end| across requests; the phases
        are a timeline segmentation, so this is floating-point noise —
        the acceptance bound is one cycle per request."""
        return max([0.0] + _drifts(self._latencies, self._phases.values()))

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
