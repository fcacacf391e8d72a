"""Discrete-event simulation engine.

The simulator's native time unit is the CE instruction cycle.  Components
schedule callbacks at absolute cycle times; ties are broken in FIFO
scheduling order so simulations are fully deterministic.

Hot-path design
---------------

Events are *slot-based records*: plain lists ``[when, seq, callback,
args]``.  The record doubles as the **cancellation handle** —
:meth:`Engine.cancel` blanks the callback slot in place, so
cancellation is O(1) and cancelled slots are skipped (and reclaimed)
when their turn comes.

Executed records are recycled through a bounded **free list** instead
of being re-allocated per event: the drain pushes each dispatched
record (blanked of its callback and args) onto the free list and
``schedule`` / ``schedule_after`` refill from it, so steady-state
scheduling allocates nothing.  The cancellation contract is therefore
*until the event runs*: a handle whose event has executed is dead and
``cancel`` on it returns ``False`` (the record may since have been
recycled into a different pending event — holding handles past
execution to cancel them later was never meaningful and is now
undefined).

Callbacks take positional ``*args`` captured in the record, so hot
loops schedule *bound methods with arguments* instead of allocating a
fresh closure per event.

Cycle-synchronous dispatch
--------------------------

The Cedar machine advances on one clock, so events *cluster on
timestamps* (a cycle finishes tens of link and module services).  The
engine is built around that:

* the pending set is a **bucket queue** — a dict mapping each pending
  timestamp to the list of its event records, plus a heap of the
  *unique* timestamps.  Scheduling is one dict probe and an append (the
  heap sees one push per new timestamp, roughly the number of distinct
  cycles instead of the number of events), and a bucket's append order
  *is* scheduling order, so a popped bucket IS the dispatch order with
  no sort and no sequence stamp;
* the drain (:meth:`Engine.run`) pops one whole timestamp bucket per
  transaction, stores the clock once per batch, and hands consecutive
  events bound to the same underlying function to a registered **group
  handler** (:func:`register_batch_handler`) in one Python call instead
  of one frame per event.  Group handlers inline hot callback chains (see
  ``repro.network.resource``) while performing the identical state
  mutations in the identical order as calling each record in turn;
* an armed :class:`Watchdog` rides the drain: it is checked at the
  first batch boundary after every ``check_every`` events, so a check
  can come up to one timestamp bucket late.  Its budgets are how a run
  is bounded; the drain itself takes no bound.

The reference semantics — a plain next-event heap with FIFO ties — live
outside the package, in the test oracle ``tests/engine_oracle.py``;
the tests run the engine and the oracle side by side and require
identical dispatch order and final state.
"""

from __future__ import annotations

import heapq
import itertools
from time import perf_counter as _perf_counter
from types import MethodType as _MethodType
from typing import Callable, Dict, List, Optional, Tuple

_heappush = heapq.heappush
_heappop = heapq.heappop

#: A scheduled event slot: ``[when, seq, callback, args]``.  ``callback``
#: is ``None`` once cancelled.  The list itself is the cancellation handle.
EventHandle = list

#: free-list depth cap: enough to absorb the steady-state churn of a
#: large machine without pinning unbounded memory after a burst.
_FREE_LIST_MAX = 8192

#: default pulse cadence (processed events between pulse-hook visits
#: when no caller watchdog supplies its own ``check_every``).
PULSE_CHECK_EVERY = 4096


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


# ---------------------------------------------------------------------------
# batched group dispatch
#
# A group handler receives one same-timestamp batch and a start index
# whose record's callback is a bound method of its registered function
# (e.g. a ``Resource._finish`` due this cycle) and dispatches the
# maximal run of such records in one Python call.  The registry is
# keyed on the unbound function object; the engine's drain consults it.

#: unbound function -> ``handler(engine, batch, i, n) -> (next_i, executed)``.
#: The handler must consume records from ``batch[i]`` forward, in
#: order, for as long as each record is cancelled (``callback is
#: None`` — decrement ``engine._cancelled`` and recycle the slot) or
#: bound to the registered function (dispatch it: blank and recycle
#: the record).  It returns ``(next_i, executed)`` at the first record
#: bound elsewhere, at ``n``, or — with the index of the first
#: *unconsumed* record — immediately after a dispatched callback calls
#: :meth:`Engine.request_stop`.  ``executed`` counts non-cancelled
#: dispatches only.  The handler must always make progress (consume at
#: least one record) when ``batch[i]`` matches its function.  When an
#: exception escapes a dispatched callback, the handler must post
#: ``engine._group_progress = (next_i, executed)`` — counting the
#: raising record as consumed — before propagating, so the drain
#: requeues exactly the unconsumed remainder and never re-queues
#: records the handler already executed or recycled.
_BATCH_HANDLERS: Dict[object, Callable] = {}


def register_batch_handler(func: Callable, handler: Callable) -> Callable:
    """Register ``handler`` as the group dispatcher for events whose
    callback is a bound method of ``func``.  Returns ``handler``.

    The handler must be *semantically transparent*: dispatching the run
    through it performs exactly the state mutations, in exactly the
    order, that calling each record's callback in sequence would — the
    identity between :class:`Engine` and the per-record reference
    semantics (the heap oracle in ``tests/``) rests on this.
    """
    _BATCH_HANDLERS[func] = handler
    return handler


class WatchdogError(SimulationError):
    """Raised when a :class:`Watchdog` aborts a run.

    ``dump`` carries the engine's diagnostic state snapshot
    (:meth:`Engine.dump_state`) taken at the moment of the abort.
    """

    def __init__(self, message: str, dump: Optional[Dict[str, object]] = None) -> None:
        super().__init__(message)
        self.dump = dump or {}


class Watchdog:
    """Run supervisor: budgets and no-progress (livelock) detection.

    Attach to an engine with :meth:`Engine.attach_watchdog`; every
    ``check_every`` processed events the watchdog verifies (the drain
    checks at the next timestamp-bucket boundary, so a check can come
    up to one bucket late):

    * **cycle budget** — simulated cycles consumed since arming stay
      within ``max_cycles``;
    * **event budget** — events processed since arming stay within
      ``max_events``;
    * **progress** — the ``progress`` fingerprint (any equality-
      comparable value; the caller supplies a callable describing real
      forward progress, e.g. packets delivered + programs finished)
      changes at least once every ``stall_checks`` consecutive checks.
      With no ``progress`` callable, the engine clock is the
      fingerprint: a frozen clock across a full stall window is the
      classic zero-delay event livelock.

    A violation raises :class:`WatchdogError` carrying a diagnostic
    state dump.  The watchdog is a pure observer — a run that stays
    within budget and keeps progressing is bit-identical with and
    without it (it only *reads* engine state).
    """

    __slots__ = (
        "max_cycles",
        "max_events",
        "progress",
        "check_every",
        "stall_checks",
        "on_check",
        "_cycles_at_arm",
        "_events_at_arm",
        "_since_check",
        "_last_fp",
        "_stall_count",
    )

    #: sentinel distinguishing "no fingerprint yet" from any real value.
    _UNSET = object()

    def __init__(
        self,
        max_cycles: Optional[float] = None,
        max_events: Optional[int] = None,
        progress: Optional[Callable[[], object]] = None,
        check_every: int = 8192,
        stall_checks: int = 8,
        on_check: Optional[Callable[["Engine"], None]] = None,
    ) -> None:
        if check_every < 1:
            raise ValueError("check_every must be at least one event")
        if stall_checks < 1:
            raise ValueError("stall_checks must be at least one check")
        self.max_cycles = max_cycles
        self.max_events = max_events
        self.progress = progress
        self.check_every = check_every
        self.stall_checks = stall_checks
        #: optional cadence hook, called with the engine at every check
        #: before the budget tests — how heartbeat pulses piggyback on
        #: the watchdog's periodic visits without a second counter on
        #: the event loop.  Must only *read* engine state.
        self.on_check = on_check
        self._cycles_at_arm = 0.0
        self._events_at_arm = 0
        self._since_check = 0
        self._last_fp: object = Watchdog._UNSET
        self._stall_count = 0

    def _arm(self, engine: "Engine") -> None:
        self._cycles_at_arm = engine.now
        self._events_at_arm = engine.events_processed
        self._since_check = 0
        self._last_fp = Watchdog._UNSET
        self._stall_count = 0

    def _check(self, engine: "Engine") -> None:
        if self.on_check is not None:
            self.on_check(engine)
        cycles = engine.now - self._cycles_at_arm
        if self.max_cycles is not None and cycles > self.max_cycles:
            self._abort(
                engine,
                f"cycle budget exceeded: {cycles:.0f} > {self.max_cycles:.0f}",
            )
        events = engine.events_processed - self._events_at_arm
        if self.max_events is not None and events > self.max_events:
            self._abort(
                engine,
                f"event budget exceeded: {events} > {self.max_events}",
            )
        fp = self.progress() if self.progress is not None else engine.now
        if fp == self._last_fp:
            self._stall_count += 1
            if self._stall_count >= self.stall_checks:
                window = self.stall_checks * self.check_every
                self._abort(
                    engine,
                    f"no progress across {window} events "
                    f"(fingerprint frozen at {fp!r}); likely livelock",
                )
        else:
            self._last_fp = fp
            self._stall_count = 0

    def _abort(self, engine: "Engine", reason: str) -> None:
        raise WatchdogError(f"watchdog abort: {reason}", engine.dump_state())


class Engine:
    """A deterministic event-driven simulation kernel over a bucket
    queue (see the module docstring).

    >>> eng = Engine()
    >>> hits = []
    >>> _ = eng.schedule(5, lambda: hits.append(eng.now))
    >>> _ = eng.run()
    >>> hits
    [5]

    **Resume contract**: a run stops early after the event that calls
    :meth:`request_stop`, or when an exception (a raising callback, a
    :class:`WatchdogError`) escapes it.  Either way ``now`` stays at
    the timestamp being drained, and the unconsumed rest of that
    timestamp stays queued *ahead of* anything scheduled at it since.
    A subsequent ``run()`` continues from the preserved queue with no
    events lost, duplicated, or reordered — runs cut by
    ``request_stop`` compose like one uninterrupted ``run()``.
    """

    __slots__ = (
        "_buckets",
        "_ts_heap",
        "_group_progress",
        "_now",
        "_events_processed",
        "_cancelled",
        "_stop_requested",
        "_run_wall_s",
        "_runs",
        "_watchdog",
        "_pulse",
        "_pulse_every",
        "_pulse_watchdog",
        "_free",
    )

    def __init__(self) -> None:
        #: pending timestamp -> list of event records in scheduling
        #: order.  Invariant: ``when`` is a key of ``_buckets`` iff
        #: ``when`` is in ``_ts_heap`` (exactly once) — maintained by
        #: scheduling (push on bucket creation only) and the drains (pop
        #: both together).
        self._buckets: Dict[float, List[list]] = {}
        self._ts_heap: List[float] = []
        #: ``(next_i, executed)`` posted by a group handler that is
        #: propagating an exception, so the drain requeues exactly the
        #: unconsumed remainder (see :func:`register_batch_handler`).
        self._group_progress: Optional[Tuple[int, int]] = None
        #: recycled event records (blanked); schedule paths refill from
        #: here so steady-state scheduling allocates no new lists.
        self._free: List[list] = []
        self._now: float = 0.0
        self._events_processed = 0
        self._cancelled = 0
        self._stop_requested = False
        #: wall-clock seconds spent inside runs (self-metrics).
        self._run_wall_s = 0.0
        self._runs = 0
        #: armed run supervisor; None runs unchecked.
        self._watchdog: Optional[Watchdog] = None
        #: armed pulse hook (heartbeats); rides the watchdog cadence.
        self._pulse: Optional[Callable[["Engine"], None]] = None
        self._pulse_every = PULSE_CHECK_EVERY
        #: the internal pulse-only watchdog, when one is armed (so
        #: detach_watchdog can tell it apart from a caller's).
        self._pulse_watchdog: Optional[Watchdog] = None

    @property
    def now(self) -> float:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    # -- scheduling into the bucket queue ----------------------------------

    def schedule(self, when: float, callback: Callable, *args) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``when`` (>= now).

        Returns the event's slot record, usable with :meth:`cancel`.
        Bucket append order *is* scheduling order, so records need no
        sequence stamp — the seq slot stays 0, keeping
        :meth:`dump_state`'s stable sort equal to dispatch order.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at {when} before current time {self._now}"
            )
        free = self._free
        if free:
            record = free.pop()
            record[0] = when
            record[2] = callback
            record[3] = args
        else:
            record = [when, 0, callback, args]
        buckets = self._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [record]
            _heappush(self._ts_heap, when)
        else:
            bucket.append(record)
        return record

    def schedule_after(self, delay: float, callback: Callable, *args) -> EventHandle:
        """Schedule ``callback(*args)`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        when = self._now + delay
        free = self._free
        if free:
            record = free.pop()
            record[0] = when
            record[2] = callback
            record[3] = args
        else:
            record = [when, 0, callback, args]
        buckets = self._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [record]
            _heappush(self._ts_heap, when)
        else:
            bucket.append(record)
        return record

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a scheduled event by its handle.

        O(1): the slot is blanked in place and reclaimed lazily when its
        turn comes.  Returns ``False`` if the event already ran or was
        already cancelled.
        """
        if handle[2] is None:
            return False
        handle[2] = None
        handle[3] = ()
        self._cancelled += 1
        return True

    def request_stop(self) -> None:
        """Ask the running drain to stop after the current event.

        A flag checked after every dispatch; completion-counting drivers
        like :meth:`~repro.core.machine.CedarMachine.run_programs` use it.
        """
        self._stop_requested = True

    def _requeue(self, when: float, batch: List[list], i: int) -> None:
        """Reinstate ``batch[i:]`` as the front of the ``when`` bucket —
        the resume contract after ``request_stop`` mid-batch or an
        exception escaping a callback.  Events scheduled *at* ``when``
        during the batch (scheduled later) already re-created the
        bucket; the unconsumed remainder goes in front of them."""
        rest = batch[i:]
        buckets = self._buckets
        existing = buckets.get(when)
        if existing is None:
            buckets[when] = rest
            _heappush(self._ts_heap, when)
        else:
            rest.extend(existing)
            buckets[when] = rest

    # -- the drain ----------------------------------------------------------

    def run(self) -> float:
        """Drain the queue; return the final time.

        Pops one whole timestamp bucket per transaction, then dispatches
        it in scheduling order with group-handler coalescing.  Semantics
        identical to one-callback-per-event dispatch in scheduling
        order:

        * cancellation — a slot blanked by an *earlier* event in the
          same batch is skipped when its turn comes;
        * ``request_stop`` mid-batch — dispatch stops after the current
          event and the unconsumed remainder of the batch is
          reinstated, so a subsequent run resumes with no events lost,
          duplicated, or reordered;
        * supervision — the armed watchdog (a caller's, or the
          pulse-only one carrying heartbeats and metric timelines) is
          checked at the first batch boundary after every
          ``check_every`` events, with ``events_processed`` flushed
          first, so probes never observe a half-dispatched cycle.  The
          unchecked remainder carries over in ``wd._since_check``, so
          the cadence spans consecutive drains.
        """
        self._stop_requested = False
        wd = self._watchdog
        buckets = self._buckets
        ts_heap = self._ts_heap
        pop_ts = _heappop
        free = self._free
        free_max = _FREE_LIST_MAX
        get_handler = _BATCH_HANDLERS.get
        method = _MethodType
        if wd is not None:
            check_every = wd.check_every
            next_check = check_every - wd._since_check
        processed = 0
        flushed = 0
        started = _perf_counter()
        try:
            while ts_heap:
                when = pop_ts(ts_heap)
                batch = buckets.pop(when)
                self._now = when
                n = len(batch)
                i = 0
                try:
                    while i < n:
                        record = batch[i]
                        cb = record[2]
                        if cb is None:
                            self._cancelled -= 1
                            if len(free) < free_max:
                                free.append(record)
                            i += 1
                            continue
                        if cb.__class__ is method:
                            handler = get_handler(cb.__func__)
                            if handler is not None:
                                # group run: the handler consumes the
                                # maximal run of records bound to its
                                # function (cancelled slots ride along)
                                # in one Python call.
                                try:
                                    i, done = handler(self, batch, i, n)
                                except BaseException:
                                    progress = self._group_progress
                                    if progress is not None:
                                        self._group_progress = None
                                        i, done = progress
                                        processed += done
                                    raise
                                processed += done
                                if self._stop_requested:
                                    break
                                continue
                        # consume before dispatch: a raising callback is
                        # spent, so the requeue below reinstates only
                        # ``batch[i:]``.
                        record[2] = None
                        args = record[3]
                        record[3] = ()
                        i += 1
                        if args:
                            cb(*args)
                        else:
                            cb()
                        if len(free) < free_max:
                            free.append(record)
                        processed += 1
                        if self._stop_requested:
                            break
                finally:
                    if i < n:
                        self._requeue(when, batch, i)
                if self._stop_requested:
                    break
                if wd is not None and processed >= next_check:
                    self._events_processed += processed - flushed
                    flushed = processed
                    next_check = processed + check_every
                    wd._check(self)
        finally:
            self._events_processed += processed - flushed
            if wd is not None:
                wd._since_check = processed - (next_check - check_every)
            self._run_wall_s += _perf_counter() - started
            self._runs += 1
        return self._now

    # -- supervision -------------------------------------------------------

    def attach_watchdog(self, watchdog: Watchdog) -> Watchdog:
        """Arm ``watchdog`` over subsequent runs (budgets and progress
        count from this moment) until :meth:`detach_watchdog`; the drain
        checks it at batch boundaries.  An armed pulse survives: it
        rides the new watchdog's check cadence (via ``on_check``) while
        the watchdog is armed and re-arms on its own when it detaches.
        """
        watchdog._arm(self)
        if self._pulse is not None and watchdog.on_check is None:
            watchdog.on_check = self._pulse
        self._watchdog = watchdog
        self._pulse_watchdog = None
        return watchdog

    def detach_watchdog(self) -> Optional[Watchdog]:
        """Disarm the current watchdog (restoring unchecked runs, unless
        a pulse stays armed) and return it, or None when
        none was armed (a pulse-only supervisor does not count)."""
        watchdog = self._watchdog
        self._watchdog = None
        if watchdog is not None and watchdog is self._pulse_watchdog:
            self._pulse_watchdog = None
            return None
        if watchdog is not None and watchdog.on_check is self._pulse:
            watchdog.on_check = None
        if self._pulse is not None:
            self._arm_pulse_watchdog()
        return watchdog

    def attach_pulse(
        self,
        pulse: Callable[["Engine"], None],
        every: int = PULSE_CHECK_EVERY,
    ) -> Callable[["Engine"], None]:
        """Arm a periodic read-only hook: ``pulse(engine)`` roughly every
        ``every`` processed events, piggybacking on the watchdog check
        cadence (worker heartbeats use this).  With no caller watchdog
        armed, a budget-free pulse-only supervisor carries the cadence;
        when a caller arms a real watchdog the pulse rides its checks
        instead.  The hook must only
        read engine state, so pulsed runs stay bit-identical with
        unpulsed ones."""
        self._pulse = pulse
        self._pulse_every = every
        if self._watchdog is not None:
            if self._watchdog.on_check is None:
                self._watchdog.on_check = pulse
        else:
            self._arm_pulse_watchdog()
        return pulse

    def detach_pulse(self) -> Optional[Callable[["Engine"], None]]:
        """Disarm the pulse hook (restoring unchecked runs when no
        caller watchdog is armed) and return it, or None."""
        pulse = self._pulse
        self._pulse = None
        if self._watchdog is not None:
            if self._watchdog is self._pulse_watchdog:
                self._watchdog = None
            elif self._watchdog.on_check is pulse:
                self._watchdog.on_check = None
        self._pulse_watchdog = None
        return pulse

    def _arm_pulse_watchdog(self) -> None:
        # budget-free supervisor whose only job is the cadence visit; a
        # fresh-counter progress fingerprint always changes, so it can
        # never declare a livelock on its own.
        watchdog = Watchdog(
            check_every=self._pulse_every,
            progress=itertools.count().__next__,
            on_check=self._pulse,
        )
        watchdog._arm(self)
        self._watchdog = watchdog
        self._pulse_watchdog = watchdog

    def dump_state(self, limit: int = 10) -> Dict[str, object]:
        """Diagnostic snapshot for abort reports: the self-metrics plus
        the next ``limit`` live queued events with callback names —
        enough to see *what* a stuck simulation keeps rescheduling."""
        live = [
            r for bucket in self._buckets.values() for r in bucket
            if r[2] is not None
        ]
        # stable by time: a bucket's order is its dispatch order
        live.sort(key=lambda r: r[0])
        upcoming = [
            {
                "when": record[0],
                "seq": record[1],
                "callback": getattr(
                    record[2], "__qualname__", repr(record[2])
                ),
            }
            for record in live[:limit]
        ]
        state = self.self_metrics()
        state["upcoming"] = upcoming
        return state

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(map(len, self._buckets.values())) - self._cancelled

    @property
    def run_wall_s(self) -> float:
        """Wall-clock seconds spent inside runs since reset."""
        return self._run_wall_s

    def self_metrics(self) -> Dict[str, object]:
        """The engine's own observability counters: dispatch volume,
        simulated time and queue contents.  Every value is simulated,
        so a run report built from them is reproducible byte for byte;
        wall time inside the run loops is :attr:`run_wall_s`."""
        return {
            "events_processed": self._events_processed,
            "runs": self._runs,
            "sim_cycles": self._now,
            "pending": self.pending(),
            "cancelled_pending": self._cancelled,
        }

    def reset(self) -> None:
        """Return to time zero with an empty queue, in place — holders
        of an engine reference (components) stay valid."""
        self._buckets.clear()
        self._ts_heap.clear()
        self._free.clear()
        self._now = 0.0
        self._events_processed = 0
        self._cancelled = 0
        self._stop_requested = False
        self._run_wall_s = 0.0
        self._runs = 0
        self._watchdog = None
        self._pulse = None
        self._pulse_watchdog = None


class BatchedEngine(Engine):
    """Kept as a subclass (not an alias) so tooling that wraps the drain
    found in each class's own ``vars()`` wraps it once."""

    __slots__ = ()
