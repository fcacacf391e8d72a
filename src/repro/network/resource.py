"""Blocking FIFO resources: the queueing building block of the simulator.

Every contended hardware element — a switch output port with its
two-word queue, a global-memory module, a cluster cache bank group — is
modelled as a :class:`Resource`: a FIFO server with a finite queue
measured in 64-bit words.  When the head-of-line packet finishes service
but the next hop's queue is full, the packet *blocks in place*, stalling
the resource (head-of-line blocking), which is the behaviour created by
the paper's "flow control between stages prevents queue overflow".

Latency growth under load therefore *emerges* from finite queues and
service rates; nothing in the experiment layer curve-fits delay values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MethodType as _MethodType
from typing import Callable, Deque, List, Optional, Sequence, Union

from repro.core.engine import (
    _FREE_LIST_MAX,
    _heappush,
    Engine,
    SimulationError,
    register_batch_handler,
)
from repro.monitor.signals import NULL_SIGNAL
from repro.network.packet import Packet, PacketKind

_WRITE_REQ = PacketKind.WRITE_REQ

#: A hop is either another Resource or a terminal sink callback.
Hop = Union["Resource", Callable[[Packet], None]]


class Transit:
    """A packet's journey across an ordered route of hops.

    ``route[idx]`` is the hop currently holding the packet.  The final
    element may be a sink callable, which always accepts.
    """

    __slots__ = ("packet", "route", "idx", "enq_t", "svc_t")

    def __init__(self, packet: Packet, route: Sequence[Hop], idx: int = 0) -> None:
        self.packet = packet
        self.route = route
        self.idx = idx
        # occupancy edge times for the consolidated ``net.span`` record;
        # written only while that signal is monitored (never read by the
        # model itself, so they cannot perturb timing).
        self.enq_t = 0.0
        self.svc_t = 0.0

    def next_hop(self) -> Optional[Hop]:
        nxt = self.idx + 1
        if nxt < len(self.route):
            return self.route[nxt]
        return None


@dataclass
class ResourceStats:
    packets: int = 0
    words: int = 0
    busy_cycles: float = 0.0
    blocked_cycles: float = 0.0
    rejected_offers: int = 0


class Resource:
    """FIFO server with a finite word-granularity queue and backpressure.

    A packet is accepted whenever at least one word of queue space is
    free (cut-through: long packets may overhang a short queue, as words
    stream through the two-word hardware queues).  Service time is
    ``fixed_cycles + words / words_per_cycle``.
    """

    __slots__ = (
        "engine",
        "name",
        "capacity_words",
        "words_per_cycle",
        "fixed_cycles",
        "recovery_cycles",
        "_recovered_at",
        "stats",
        "_queue",
        "_words_queued",
        "_serving",
        "_blocked_head",
        "_blocked_since",
        "_waiters",
        "span_signal",
        "fault_hook",
        "occupancy",
        "_has_service_hook",
        "_has_complete_hook",
        "__weakref__",
    )

    def __init__(
        self,
        engine: Engine,
        name: str,
        capacity_words: int,
        words_per_cycle: float = 1.0,
        fixed_cycles: float = 0.0,
        recovery_cycles: float = 0.0,
    ) -> None:
        if capacity_words < 1:
            raise ValueError("queue capacity must be at least one word")
        if words_per_cycle <= 0:
            raise ValueError("service rate must be positive")
        self.engine = engine
        self.name = name
        self.capacity_words = capacity_words
        self.words_per_cycle = words_per_cycle
        self.fixed_cycles = fixed_cycles
        #: dead time after a departure before the next service may start
        #: (e.g. DRAM bank recovery in a memory module).  Adds no latency
        #: to an isolated access but lowers sustained throughput.
        self.recovery_cycles = recovery_cycles
        self._recovered_at = 0.0
        self.stats = ResourceStats()
        self._queue: Deque[Transit] = deque()
        self._words_queued = 0
        self._serving = False
        self._blocked_head: Optional[Transit] = None
        self._blocked_since: float = 0.0
        self._waiters: Deque["Resource"] = deque()
        #: the ``net.span`` channel, re-pointed at the real bus channel
        #: by the owning component at attach time; :data:`NULL_SIGNAL`
        #: (whose ``callbacks`` is permanently ``()``) until then, so
        #: every would-be emission is a single truthiness branch on a
        #: cached tuple — the zero-cost fast path.  It carries ONE
        #: record per queue occupancy, emitted at departure with its
        #: enqueue, service-end and departure times; the request tracer
        #: and the Chrome tracer both read it.
        self.span_signal = NULL_SIGNAL
        #: optional fault-injection site (see ``repro.faults``), set at
        #: injector attach time.  Same ``is not None`` fast path as the
        #: signals: an unarmed resource pays one branch per service.
        self.fault_hook = None
        #: optional in-place accounting (a
        #: :class:`~repro.monitor.metrics.Occupancy`), armed by the
        #: standard monitors and read back when a report is built.  Same
        #: ``is not None`` fast path: an unarmed resource pays one branch
        #: per queue edge.  Armed links stay on ``_finish_batch``'s
        #: grouped pass, which makes the same calls inline.
        self.occupancy = None
        # devirtualize the per-packet hooks: plain FIFO links (the vast
        # majority) take branch-only fast paths in _start_service/_finish.
        cls = type(self)
        self._has_service_hook = cls.service_cycles is not Resource.service_cycles
        self._has_complete_hook = (
            cls.on_service_complete is not Resource.on_service_complete
        )

    # -- admission ---------------------------------------------------------

    def has_space(self) -> bool:
        return self._words_queued < self.capacity_words

    def offer(self, transit: Transit) -> bool:
        """Try to accept ``transit``; returns False when the queue is
        full — the caller must block and retry on waiter notification."""
        if self._words_queued >= self.capacity_words:
            self.stats.rejected_offers += 1
            return False
        self._queue.append(transit)
        self._words_queued += transit.packet.words
        if self.span_signal.callbacks:
            # direct slot read: the property descriptor costs a frame,
            # and this stamp runs once per occupancy on traced runs.
            transit.enq_t = self.engine._now
        acc = self.occupancy
        if acc is not None:
            acc.edge(self._words_queued, self.engine._now)
        if not self._serving and self._blocked_head is None:
            self._maybe_start()
        return True

    def add_waiter(self, upstream: "Resource") -> None:
        if upstream not in self._waiters:
            self._waiters.append(upstream)

    # -- service -----------------------------------------------------------

    def service_cycles(self, packet: Packet) -> float:
        return self.fixed_cycles + packet.words / self.words_per_cycle

    def on_service_complete(self, transit: Transit) -> bool:
        """Hook called when a packet's service finishes, before handoff.

        Subclasses (memory modules) may transform ``transit.packet`` —
        adjusting :attr:`_words_queued` for any size change — or consume
        the packet entirely by returning False.
        """
        return True

    def _maybe_start(self) -> None:
        if self._serving or self._blocked_head is not None or not self._queue:
            return
        if self.recovery_cycles and self.engine._now < self._recovered_at:
            self._serving = True  # hold the slot through recovery
            transit = self._queue[0]
            delay = self._recovered_at - self.engine._now
            self.engine.schedule_after(delay, self._start_service, transit)
            return
        self._start_service(self._queue[0])

    def _start_service(self, transit: Transit) -> None:
        self._serving = True
        hook = self.fault_hook
        if hook is not None:
            delay = hook.before_service(self, transit)
            if delay > 0.0:
                # fault stall: hold the head slot (still serving) and
                # re-arbitrate once the stall elapses.
                self.engine.schedule_after(delay, self._start_service, transit)
                return
        if self._has_service_hook:
            cycles = self.service_cycles(transit.packet)
        else:
            cycles = self.fixed_cycles + transit.packet.words / self.words_per_cycle
        self.stats.busy_cycles += cycles
        self.engine.schedule_after(cycles, self._finish, transit)

    def _finish(self, transit: Transit) -> None:
        if not self._queue or self._queue[0] is not transit:
            raise SimulationError(f"{self.name}: finished packet is not at head")
        self._serving = False
        if self.span_signal.callbacks:
            transit.svc_t = self.engine._now
        if self._has_complete_hook and not self.on_service_complete(transit):
            self._pop_head(transit)
            self._advance()
            return
        self._try_handoff(transit)

    def _try_handoff(self, transit: Transit) -> None:
        route = transit.route
        nxt_idx = transit.idx + 1
        nxt = route[nxt_idx] if nxt_idx < len(route) else None
        if nxt is None:
            self._pop_head(transit)
            self._advance()
            return
        if not isinstance(nxt, Resource):
            self._pop_head(transit)
            nxt(transit.packet)
            self._advance()
            return
        if nxt._words_queued < nxt.capacity_words:
            self._pop_head(transit)
            transit.idx = nxt_idx
            if not nxt.offer(transit):
                raise SimulationError(f"{nxt.name} refused after reporting space")
            self._advance()
        else:
            if self._blocked_head is None:
                self._blocked_head = transit
                self._blocked_since = self.engine._now
            nxt.add_waiter(self)

    def _pop_head(self, transit: Transit) -> None:
        head = self._queue.popleft()
        if head is not transit:
            raise SimulationError(f"{self.name}: departing packet is not at head")
        words = transit.packet.words
        self._words_queued -= words
        st = self.stats
        st.packets += 1
        st.words += words
        now = self.engine._now
        if self.recovery_cycles:
            self._recovered_at = now + self.recovery_cycles
        if self._blocked_head is transit:
            st.blocked_cycles += now - self._blocked_since
            self._blocked_head = None
        acc = self.occupancy
        if acc is not None:
            acc.depart(
                self._words_queued,
                words,
                self.fixed_cycles + words / self.words_per_cycle,
                now,
            )
        cbs = self.span_signal.callbacks
        if cbs:
            # pre-packed record (see the net.span catalog entry): packet
            # fields extracted here because pooled packets mutate.  All
            # eight slots are atomic values, and a buffering subscriber
            # is ``list.extend`` itself, so the record tuple dies the
            # moment the inlined callback loop returns — no Python
            # frame per emission, and no surviving GC-tracked object to
            # swell collection pauses on long traced runs.
            pkt = transit.packet
            rec = (self.name, pkt.request_id, pkt.is_reply,
                   pkt.kind is _WRITE_REQ,
                   self.fixed_cycles + pkt.words / self.words_per_cycle,
                   transit.enq_t, transit.svc_t, now)
            for cb in cbs:
                cb(rec)

    def _advance(self) -> None:
        """After a departure: wake upstream waiters, start next service."""
        if self._waiters:
            self._notify_waiters()
        if not self._serving and self._blocked_head is None and self._queue:
            self._maybe_start()

    def _notify_waiters(self) -> None:
        while self._waiters and self.has_space():
            upstream = self._waiters.popleft()
            upstream._retry_blocked()

    def _retry_blocked(self) -> None:
        transit = self._blocked_head
        if transit is None:
            return
        # _try_handoff clears _blocked_head via _pop_head on success.
        self._try_handoff(transit)

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Return to post-construction state: empty queue, zero stats,
        no blocking, a cleared accumulator (still armed).  Part of the
        component-lifecycle contract."""
        self.stats = ResourceStats()
        self._queue.clear()
        self._words_queued = 0
        self._serving = False
        self._blocked_head = None
        self._blocked_since = 0.0
        self._waiters.clear()
        self._recovered_at = 0.0
        if self.occupancy is not None:
            self.occupancy.clear()

    # -- introspection -----------------------------------------------------

    @property
    def queued_words(self) -> int:
        return self._words_queued

    @property
    def queued_packets(self) -> int:
        return len(self._queue)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` cycles this resource spent serving."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.stats.busy_cycles / elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Resource {self.name} q={self._words_queued}/{self.capacity_words}>"


# ---------------------------------------------------------------------------
# batched group dispatch: the vectorized link/memory service pass
#
# ``Resource._finish`` is ~80% of all events in a kernel run, and its
# scalar dispatch fans out across six to ten Python frames per event
# (_finish -> _try_handoff -> _pop_head -> offer -> _maybe_start ->
# _start_service -> schedule_after -> _advance -> ...).  The engine's
# drain hands every same-cycle run of finishes to `_finish_batch`,
# which services them in ONE Python call with the whole chain inlined
# for the dominant case: a FIFO link without service / completion hooks
# or a recovery window handing off to another link.
#
# Observation stays on the grouped pass.  A link armed with an
# ``occupancy`` accumulator or a ``net.span`` subscriber (the request
# tracer, the streaming store, the Chrome tracer) gets its accounting
# inline, in the scalar order: on departure the ``svc_t`` stamp,
# ``Occupancy.depart`` and the eight-slot span record; on admission the
# ``enq_t`` stamp and ``Occupancy.edge``.  No observer forces a record
# off the pass.
#
# Three cases fall back to the scalar methods *per record*: a
# completion hook (memory modules), a recovery window, and a blocked
# head.  A fault site or service hook on the next service start goes
# through ``_maybe_start``.  The two paths are one semantics with two
# dispatch costs: every inlined mutation below mirrors the scalar
# method it replaces line for line (the scalar code is the reference;
# change both together), which is what the engine-oracle identity
# tests, the network fuzz oracle and the adversarial ordering tests
# enforce.

def _finish_batch(eng: Engine, batch: List[list], i: int, n: int):
    """Group handler for a same-timestamp run of ``Resource._finish``
    events (see :func:`repro.core.engine.register_batch_handler` for
    the contract).  Consumes records from ``batch[i]`` forward while
    they are cancelled or bound to ``Resource._finish``; returns
    ``(next_index, executed_count)``."""
    free = eng._free
    buckets = eng._buckets
    ts_heap = eng._ts_heap
    bucket_get = buckets.get
    now = eng._now
    heappush = _heappush
    method = _MethodType
    finish = _RES_FINISH
    done = 0
    try:
        while i < n:
            record = batch[i]
            cb = record[2]
            if cb is None:
                # cancelled (possibly by an earlier event in this batch):
                # reclaim the slot exactly as the scalar drain would.
                eng._cancelled -= 1
                if len(free) < _FREE_LIST_MAX:
                    free.append(record)
                i += 1
                continue
            if cb.__class__ is not method or cb.__func__ is not finish:
                # end of this group's run — hand control back to the drain.
                return i, done
            i += 1
            res = cb.__self__
            transit = record[3][0]
            record[2] = None
            record[3] = ()
            # the consumed record is the preferred slot for whatever this
            # event schedules next (the next-service finish) — reuse is the
            # free-list round trip with both ends snipped off.
            spare = record
            done += 1
            if (
                res._has_complete_hook
                or res.recovery_cycles
                or res._blocked_head is not None
            ):
                # scalar fallback: hooks, recovery, blocked heads.
                if len(free) < _FREE_LIST_MAX:
                    free.append(spare)
                res._finish(transit)
                if eng._stop_requested:
                    return i, done
                continue
            queue = res._queue
            if not queue or queue[0] is not transit:
                raise SimulationError(f"{res.name}: finished packet is not at head")
            res._serving = False
            span_cbs = res.span_signal.callbacks
            if span_cbs:
                transit.svc_t = now
            # -- res._try_handoff
            route = transit.route
            nxt_idx = transit.idx + 1
            nxt = route[nxt_idx] if nxt_idx < len(route) else None
            to_link = isinstance(nxt, Resource)
            if to_link and nxt._words_queued >= nxt.capacity_words:
                # head-of-line block: downstream queue is full.
                res._blocked_head = transit
                res._blocked_since = now
                nxt.add_waiter(res)
                if len(free) < _FREE_LIST_MAX:
                    free.append(spare)
                if eng._stop_requested:
                    return i, done
                continue
            # -- res._pop_head (no recovery)
            queue.popleft()
            packet = transit.packet
            words = packet.words
            res._words_queued -= words
            st = res.stats
            st.packets += 1
            st.words += words
            acc = res.occupancy
            if acc is not None:
                acc.depart(
                    res._words_queued,
                    words,
                    res.fixed_cycles + words / res.words_per_cycle,
                    now,
                )
            if span_cbs:
                span = (res.name, packet.request_id, packet.is_reply,
                        packet.kind is _WRITE_REQ,
                        res.fixed_cycles + words / res.words_per_cycle,
                        transit.enq_t, transit.svc_t, now)
                for span_cb in span_cbs:
                    span_cb(span)
            if to_link:
                transit.idx = nxt_idx
                # -- nxt.offer
                nxt._queue.append(transit)
                nxt._words_queued += words
                if nxt.span_signal.callbacks:
                    transit.enq_t = now
                acc = nxt.occupancy
                if acc is not None:
                    acc.edge(nxt._words_queued, now)
                if not nxt._serving and nxt._blocked_head is None:
                    # -- nxt._maybe_start / _start_service /
                    #    engine.schedule_after
                    if (
                        nxt.fault_hook is not None
                        or nxt._has_service_hook
                        or nxt.recovery_cycles
                    ):
                        nxt._maybe_start()
                    else:
                        head = nxt._queue[0]
                        cycles = (
                            nxt.fixed_cycles
                            + head.packet.words / nxt.words_per_cycle
                        )
                        nxt.stats.busy_cycles += cycles
                        nxt._serving = True
                        when = now + cycles
                        if spare is not None:
                            rec = spare
                            spare = None
                            rec[0] = when
                            rec[2] = nxt._finish
                            rec[3] = (head,)
                        elif free:
                            rec = free.pop()
                            rec[0] = when
                            rec[2] = nxt._finish
                            rec[3] = (head,)
                        else:
                            rec = [when, 0, nxt._finish, (head,)]
                        b = bucket_get(when)
                        if b is None:
                            buckets[when] = [rec]
                            heappush(ts_heap, when)
                        else:
                            b.append(rec)
            elif nxt is not None:
                # terminal sink callable
                nxt(packet)
            # -- res._advance
            if res._waiters:
                res._notify_waiters()
            if not res._serving and res._blocked_head is None and queue:
                if res.fault_hook is not None or res._has_service_hook:
                    res._maybe_start()
                else:
                    head = queue[0]
                    cycles = (
                        res.fixed_cycles + head.packet.words / res.words_per_cycle
                    )
                    res.stats.busy_cycles += cycles
                    res._serving = True
                    when = now + cycles
                    if spare is not None:
                        rec = spare
                        spare = None
                        rec[0] = when
                        rec[2] = res._finish
                        rec[3] = (head,)
                    elif free:
                        rec = free.pop()
                        rec[0] = when
                        rec[2] = res._finish
                        rec[3] = (head,)
                    else:
                        rec = [when, 0, res._finish, (head,)]
                    b = bucket_get(when)
                    if b is None:
                        buckets[when] = [rec]
                        heappush(ts_heap, when)
                    else:
                        b.append(rec)
            if spare is not None and len(free) < _FREE_LIST_MAX:
                free.append(spare)
            if eng._stop_requested:
                return i, done
        return i, done
    except BaseException:
        # a raising callback counts as consumed (``i`` advances
        # before dispatch): report progress so the drain requeues
        # exactly ``batch[i:]`` — never records this handler already
        # executed or recycled into other buckets.
        eng._group_progress = (i, done)
        raise


#: the unbound function the handler is registered for — each record's
#: callback is tested against this identity to delimit the group run.
_RES_FINISH = Resource._finish

register_batch_handler(_RES_FINISH, _finish_batch)


def start_transit(packet: Packet, route: Sequence[Hop]) -> Transit:
    """Create a transit for ``packet`` over ``route`` and offer it to the
    first hop.  Raises if the first hop refuses — injection points must
    check :meth:`Resource.has_space` first or provide their own pacing."""
    if not route:
        raise SimulationError("route must not be empty")
    first = route[0]
    if not isinstance(first, Resource):
        raise SimulationError("route must start at a Resource")
    transit = Transit(packet=packet, route=route, idx=0)
    if not first.offer(transit):
        raise SimulationError(f"injection refused by {first.name}")
    return transit
