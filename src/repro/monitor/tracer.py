"""Time-stamped event tracing and Chrome/Perfetto trace export.

Each hardware tracer collects up to 1M events; tracers "can be cascaded
to capture more events".  Programs may post software events too.

:class:`ChromeTracer` is the whole-machine tracer: it subscribes
broadcast to every architectural signal on a bus and renders what it
sees as Chrome trace-event JSON — one track per network stage, memory
module, and CE port — so an entire Cedar run can be opened in
``chrome://tracing`` or https://ui.perfetto.dev.  Simulated cycles are
written as trace microseconds one-for-one (the viewer's "1 us" is one
CE instruction cycle).
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Event:
    """One time-stamped trace event."""

    time: float
    signal: str
    value: Any = None


class EventTracer:
    """A cascadable time-stamped event tracer.

    >>> t = EventTracer(capacity=2)
    >>> t.post(1.0, "a"); t.post(2.0, "b"); t.post(3.0, "c")
    >>> len(t.events), t.dropped
    (2, 1)
    """

    DEFAULT_CAPACITY = 1 << 20  # 1M events per tracer

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        cascade: Optional["EventTracer"] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self.cascade = cascade
        self.events: List[Event] = []
        self._dropped = 0

    @property
    def dropped(self) -> int:
        """Events lost across the whole cascade chain.

        A full cascade drops into *its own* counter; reporting only the
        head tracer's count would silently understate loss, so the
        property sums the chain.
        """
        n = self._dropped
        if self.cascade is not None:
            n += self.cascade.dropped
        return n

    def post(self, time: float, signal: str, value: Any = None) -> None:
        """Record an event, spilling into the cascaded tracer when full."""
        if len(self.events) < self.capacity:
            self.events.append(Event(time, signal, value))
        elif self.cascade is not None:
            self.cascade.post(time, signal, value)
        else:
            self._dropped += 1

    def filter(self, signal: str) -> List[Event]:
        """Events matching ``signal``, including cascaded ones."""
        out = [e for e in self.events if e.signal == signal]
        if self.cascade is not None:
            out.extend(self.cascade.filter(signal))
        return out

    def hook(self, signal: str, clock: Callable[[], float]) -> Callable[[Any], None]:
        """Return a callback posting ``signal`` at the current ``clock()``."""

        def _post(value: Any = None) -> None:
            self.post(clock(), signal, value)

        return _post

    def __len__(self) -> int:
        n = len(self.events)
        if self.cascade is not None:
            n += len(self.cascade)
        return n


# ---------------------------------------------------------------------------
# Chrome trace-event export

#: log entry tags: a kept ``net.span`` record, an instant, a memory service.
_SPAN, _INSTANT, _SERVICE = range(3)


def _layout(name: str) -> Tuple[int, Optional[Tuple[str, str, str]], str]:
    """How a ``net.span`` record of resource ``name`` is drawn:
    ``(events, slice, queue process)``.

    ``slice`` is the ``(process, thread, cat)`` of the record's "X"
    slice.  A link (``"fwd.s0[3]"``) draws on process ``net.fwd``,
    thread ``s0``, with a flow step: four events with its two queue
    counter samples.  A cluster bank (``"cl0.cache"``) draws on process
    ``cluster``, thread ``cl0.cache``, without a flow step (its request
    crosses one resource): three events.  A memory module
    (``"gm[4]"``) draws no slice, since ``gmem.service`` does: two.
    The queue counter sits on process ``net.<prefix>`` (``net.fwd``,
    ``net.cl0``, ``net.gm``)."""
    prefix, dot, rest = name.partition(".")
    if not dot:
        return 2, None, f"net.{name.split('[', 1)[0]}"
    queue = f"net.{prefix}"
    if prefix.startswith("cl") and prefix[2:].isdigit():
        return 3, ("cluster", name, "cluster"), queue
    return 4, (queue, rest.split("[", 1)[0] or rest, "net"), queue


#: instant signals: payload -> ``(process, thread, cat, time, args)`` of
#: the "i" event, evaluated for kept events only and holding no packet
#: or resource (packets are pooled and mutate).
_INSTANTS: Dict[str, Callable[..., tuple]] = {
    "sync.op": lambda m, a, t, p, ok: (
        "gmem", f"module[{m}]", "sync", t, {"address": a, "success": ok}),
    "pfu.arm": lambda port, t: ("ce", f"port[{port}]", "ce", t, None),
    "pfu.request": lambda port, i, t: (
        "ce", f"port[{port}]", "ce", t, {"word": i}),
    "pfu.deliver": lambda port, i, t: (
        "ce", f"port[{port}]", "ce", t, {"word": i}),
    "pfu.suspend": lambda port, t: ("ce", f"port[{port}]", "ce", t, None),
    "ce.done": lambda port, t: ("ce", f"port[{port}]", "ce", t, None),
    "fault.transient": lambda r, p, t, b: (
        "faults", "network", "ce", t,
        {"resource": r.name, "backoff_cycles": b}),
    "fault.port_down": lambda r, t, until: (
        "faults", "network", "ce", t, {"resource": r.name, "until": until}),
    "fault.ecc": lambda m, p, t, c: (
        "faults", "gmem", "ce", t, {"module": m, "stall_cycles": c}),
    "fault.sync_timeout": lambda m, a, t, c: (
        "faults", "gmem", "ce", t,
        {"module": m, "address": a, "penalty_cycles": c}),
    "fault.reroute": lambda n, p, t: (
        "faults", "network", "ce", t, {"network": n}),
}


class ChromeTracer:
    """Broadcast bus subscriber emitting Chrome trace-event JSON.

    Attach to one or more machines' buses (``scope`` prefixes the
    process names so several machines coexist in one trace), run the
    simulation, then :meth:`write` the trace::

        tracer = ChromeTracer()
        tracer.attach(machine.bus)
        machine.run_programs(...)
        tracer.write("trace.json")

    Tracks
    ------

    * ``net.fwd`` / ``net.rev`` processes, one thread per stage (plus
      ``inject``): one complete ("X") slice per ``net.span`` record, at
      the record's service interval (``ts`` = service end - service,
      ``dur`` = service), with the request ``id`` and its
      ``queue_wait`` and ``blocked`` cycles in ``args``; and one
      counter ("C") track per resource, ``<name> queue``, counting
      queued packets.
    * ``gmem`` process, one thread per module: complete events per
      service (duration = the actual service cycles), instants for
      sync ops.  Module queues are counter tracks on ``net.gm``.
    * ``ce`` process, one thread per CE port: instants for PFU
      arm/request/deliver/suspend and CE completion.
    * ``cluster`` process: one complete slice per cache /
      cluster-memory record; their queues are counters on ``net.cl<N>``.
    * ``faults`` process: one instant per injected fault.
    * ``timeline`` process (via :meth:`ingest_timeline`): one counter
      ("C") track per interval-sampled metric series.

    Link and memory slices are chained into their request's flow
    (Perfetto draws arrows between the slices sharing an ``id``).

    Capacity
    --------

    Like the hardware tracers, one tracer keeps the first ``capacity``
    events in emission order.  An emission counts as the events it
    renders to, in this order: a link record four (slice, flow step,
    enqueue and depart counter samples), a cluster record three (no
    flow step), a memory-module record two (the counter samples), a
    memory service two (slice and flow step), an instant one; a
    ``net.span`` record counts when it departs.  The emission that
    fills the window keeps only its events that fit, and from then on
    the tracer buffers nothing: it adds each emission's events to
    :attr:`dropped`.  Kept emissions are held in compact form and
    rendered into event dicts by :meth:`trace`.

    Signals only observe, so an attached tracer never changes cycle
    counts — only wall-clock speed.  It takes the ``net.span`` record
    the request tracer takes, so traced links stay on the engine's
    grouped service pass.
    """

    DEFAULT_CAPACITY = 1 << 20

    #: signal names a ChromeTracer listens to when the bus declares them.
    SIGNALS = ("net.span", "gmem.service", *_INSTANTS)

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        #: events the kept window still has room for (0 once closed).
        self._room = capacity
        self._dropped = 0
        #: kept emissions in emission order, as tagged tuples.
        self._log: List[tuple] = []
        #: ``(scope, timeline document)`` pairs from :meth:`ingest_timeline`.
        self._timelines: List[Tuple[str, dict]] = []
        self._subscriptions: List[tuple] = []

    @property
    def dropped(self) -> int:
        return self._dropped

    @property
    def kept(self) -> int:
        """Events in the kept window, without rendering them."""
        return self.capacity - self._room

    # -- attachment --------------------------------------------------------

    def attach(self, bus, scope: str = "") -> "ChromeTracer":
        """Subscribe broadcast to every catalog signal ``bus`` declares.

        ``scope`` (e.g. ``"m1:"``) prefixes process names, keeping
        machines distinct when one tracer observes several.
        """
        handlers = {
            "net.span": self._span_handler(scope),
            "gmem.service": self._service_handler(scope),
        }
        for name, fields in _INSTANTS.items():
            handlers[name] = self._instant_handler(scope, name, fields)
        for name, handler in handlers.items():
            if bus.declared(name):
                self._subscriptions.append((bus, bus.subscribe(name, handler)))
        return self

    def detach(self) -> None:
        """Unsubscribe from every bus this tracer was attached to."""
        for bus, subscription in self._subscriptions:
            bus.unsubscribe(subscription)
        self._subscriptions = []

    # -- signal handlers ---------------------------------------------------
    #
    # Each handler tests the window before it reads its payload: past
    # the window an emission costs one call and one addition.  A logged
    # record or service carries the number of its events kept, which is
    # short of its full count only for the emission that fills the
    # window.

    def _span_handler(self, scope: str) -> Callable[[tuple], None]:
        """The ``net.span`` subscriber for ``scope``, with each
        resource's event count looked up once."""
        log = self._log
        weights: Dict[str, int] = {}

        def on_span(record: tuple) -> None:
            name = record[0]
            n = weights.get(name)
            if n is None:
                n = weights[name] = _layout(name)[0]
            room = self._room
            if n <= room:
                self._room = room - n
                log.append((_SPAN, scope, record, n))
            else:
                self._room = 0
                self._dropped += n - room
                if room:
                    log.append((_SPAN, scope, record, room))

        return on_span

    def _service_handler(self, scope: str) -> Callable[..., None]:
        """The ``gmem.service`` subscriber: a slice and its flow step."""
        log = self._log

        def on_service(module: int, packet, time: float, cycles: float) -> None:
            room = self._room
            if room:
                keep = 2 if room >= 2 else 1
                self._room = room - keep
                self._dropped += 2 - keep
                kind = packet.kind
                log.append((
                    _SERVICE, scope, module,
                    kind.name if hasattr(kind, "name") else str(kind),
                    time, cycles, packet.address, packet.words,
                    packet.request_id, keep,
                ))
            else:
                self._dropped += 2

        return on_service

    def _instant_handler(self, scope: str, name: str,
                         fields: Callable[..., tuple]) -> Callable[..., None]:
        """The subscriber for instant signal ``name``: one event."""
        log = self._log

        def on_instant(*payload) -> None:
            if self._room:
                self._room -= 1
                log.append((_INSTANT, scope, name, *fields(*payload)))
            else:
                self._dropped += 1

        return on_instant

    # -- post-hoc timeline ingestion ---------------------------------------

    def ingest_timeline(self, doc: dict, scope: str = "") -> "ChromeTracer":
        """Render a :meth:`MetricTimeline.to_dict
        <repro.monitor.timeline.MetricTimeline.to_dict>` document as
        Perfetto counter tracks — one "C"-phase track per series under
        a ``timeline`` process, one sample per interval edge.

        ``delta`` series plot both the per-interval total (``value``)
        and its per-cycle rate (``per_cycle``, total divided by the
        actual interval span — intervals widen after coalescing);
        ``gauge`` series plot the edge reading alone.  Counters are
        anchored with a zero at ts 0 so the first interval renders as a
        step, not a ramp from nowhere.

        Counter samples bypass the capacity cap: the cap protects
        against unbounded *live* event streams, and a coalesced
        timeline is bounded by construction (``max_intervals`` per
        series) — dropping it because the live run was busy would lose
        exactly the overview the counters exist to give.
        """
        self._timelines.append((scope, doc))
        return self

    # -- rendering ---------------------------------------------------------

    def _render(self) -> Tuple[List[dict], List[dict], Dict[int, List[int]]]:
        """``(metadata, events, flows)`` of the kept window.

        ``events`` are the logged emissions in order (a request's first
        flow step "s", the rest "t"; the window's last emission only up
        to its kept count), then each resource's queue counter, then the
        timeline counters; ``flows`` maps each
        request id to the indices of its flow steps.  Tracks are
        numbered in first-use order, so a capped trace's metadata is a
        prefix of the uncapped one's.  The queue counters replay the
        kept records' enqueue and depart edges per resource, stable by
        time, so the last sample at each timestamp is the depth after
        it.

        The cyclic collector is paused while the render runs: it builds
        up to a million acyclic dicts, and collections triggered by
        those allocations would rescan them, more than doubling the
        render's time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._render_events()
        finally:
            if enabled:
                gc.enable()

    def _render_events(self) -> Tuple[List[dict], List[dict], Dict[int, List[int]]]:
        metadata: List[dict] = []
        pids: Dict[Tuple[str, str], int] = {}
        tids: Dict[Tuple[int, str], int] = {}
        threads: Dict[int, int] = {}

        def track(scope: str, process: str, thread: str) -> Tuple[int, int]:
            pkey = (scope, process)
            pid = pids.get(pkey)
            if pid is None:
                pid = pids[pkey] = len(pids) + 1
                metadata.append({
                    "name": "process_name", "ph": "M", "pid": pid,
                    "args": {"name": f"{scope}{process}"},
                })
            tkey = (pid, thread)
            tid = tids.get(tkey)
            if tid is None:
                tid = tids[tkey] = threads[pid] = threads.get(pid, 0) + 1
                metadata.append({
                    "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                    "args": {"name": thread},
                })
            return pid, tid

        events: List[dict] = []
        flows: Dict[int, List[int]] = {}

        def flow(pid: int, tid: int, request_id: int, ts: float) -> None:
            steps = flows.get(request_id)
            if steps is None:
                steps = flows[request_id] = []
            steps.append(len(events))
            events.append({
                "name": "request", "cat": "flow",
                "ph": "t" if len(steps) > 1 else "s",
                "id": request_id, "ts": ts, "pid": pid, "tid": tid,
            })

        #: resource name -> :func:`_layout` of its records.
        layouts: Dict[str, tuple] = {}
        #: (scope, resource name) -> (counter pid, [(time, +1 | -1), ...])
        queues: Dict[Tuple[str, str], Tuple[int, list]] = {}
        for entry in self._log:
            tag = entry[0]
            if tag == _SPAN:
                _tag, scope, record, keep = entry
                name, request_id, _reply, _write, svc, enqueue, end, depart = record
                layout = layouts.get(name)
                if layout is None:
                    layout = layouts[name] = _layout(name)
                _n, slice_, queue = layout
                if slice_ is not None:
                    keep -= 1
                    process, thread, cat = slice_
                    pid, tid = track(scope, process, thread)
                    start = end - svc
                    wait = start - enqueue
                    blocked = depart - end
                    events.append({
                        "name": name, "cat": cat, "ph": "X",
                        "ts": start, "dur": svc, "pid": pid, "tid": tid,
                        "args": {
                            "id": request_id,
                            "queue_wait": wait if wait > 0.0 else 0.0,
                            "blocked": blocked if blocked > 0.0 else 0.0,
                        },
                    })
                    if cat == "net" and keep:
                        keep -= 1
                        flow(pid, tid, request_id, start)
                if keep:
                    edges = queues.get((scope, name))
                    if edges is None:
                        pid, _tid = track(scope, queue, "queues")
                        edges = queues[(scope, name)] = (pid, [])
                    edges[1].append((enqueue, 1))
                    if keep > 1:
                        edges[1].append((depart, -1))
            elif tag == _INSTANT:
                _tag, scope, name, process, thread, cat, time, args = entry
                pid, tid = track(scope, process, thread)
                event = {
                    "name": name, "cat": cat, "ph": "i", "s": "t",
                    "ts": time, "pid": pid, "tid": tid,
                }
                if args:
                    event["args"] = args
                events.append(event)
            else:
                (_tag, scope, module, kind, time, cycles, address, words,
                 request_id, keep) = entry
                pid, tid = track(scope, "gmem", f"module[{module}]")
                start = max(0.0, time - cycles)
                events.append({
                    "name": kind, "cat": "gmem", "ph": "X",
                    "ts": start, "dur": cycles, "pid": pid, "tid": tid,
                    "args": {"address": address, "words": words},
                })
                if keep > 1:
                    flow(pid, tid, request_id, start)
        by_time = itemgetter(0)
        for (_scope, name), (pid, edges) in queues.items():
            edges.sort(key=by_time)
            label = f"{name} queue"
            depth = 0
            for ts, step in edges:
                depth += step
                events.append({
                    "name": label, "cat": "queue", "ph": "C",
                    "ts": ts, "pid": pid, "args": {"packets": depth},
                })
        for scope, doc in self._timelines:
            edges = doc.get("edges", [])
            for name, entry in sorted(doc.get("series", {}).items()):
                pid, _tid = track(scope, "timeline", name)
                kind = entry.get("kind")
                anchor = {"value": 0.0}
                if kind == "delta":
                    anchor["per_cycle"] = 0.0
                events.append({
                    "name": name, "cat": "timeline", "ph": "C",
                    "ts": 0.0, "pid": pid, "args": anchor,
                })
                prev = 0.0
                for edge, value in zip(edges, entry.get("values", [])):
                    args = {"value": value}
                    if kind == "delta":
                        span = edge - prev
                        args["per_cycle"] = value / span if span > 0 else 0.0
                    prev = edge
                    events.append({
                        "name": name, "cat": "timeline", "ph": "C",
                        "ts": edge, "pid": pid, "args": args,
                    })
        return metadata, events, flows

    @property
    def events(self) -> Tuple[dict, ...]:
        """The kept events (flow chains not yet terminated), rendered
        afresh on every read: a read-only view for inspection.
        :attr:`kept` counts them without the render."""
        return tuple(self._render()[1])

    # -- export ------------------------------------------------------------

    def trace(self) -> dict:
        """The complete trace object (JSON-serializable), rendered from
        the kept emissions.

        Flow chains are finalized here: each request's last flow event
        becomes the terminating "f" phase, and requests that produced
        only a single flow event (no arrow to draw) are dropped.
        """
        metadata, events, flows = self._render()
        singletons = set()
        for steps in flows.values():
            if len(steps) < 2:
                singletons.add(steps[0])
            else:
                last = events[steps[-1]]
                last["ph"] = "f"
                last["bp"] = "e"
        if singletons:
            events = [e for i, e in enumerate(events) if i not in singletons]
        return {
            "traceEvents": [*metadata, *events],
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.monitor.tracer.ChromeTracer",
                "time_unit": "1 trace us == 1 CE instruction cycle",
                "dropped": self._dropped,
            },
        }

    def write(self, path) -> None:
        _write_json(self.trace(), path, "traceEvents")

    def track_count(self) -> int:
        """Distinct (pid, tid) tracks carrying real (non-metadata)
        events, from one render."""
        return len({(e["pid"], e.get("tid", 0)) for e in self._render()[1]})


#: keys required per trace-event phase; every event needs name/ph/pid.
_REQUIRED = ("name", "ph", "pid")


def validate_chrome_trace(trace: dict) -> Tuple[int, int]:
    """Check ``trace`` against the trace-event schema essentials.

    Returns ``(n_events, n_tracks)`` counting non-metadata events and
    distinct (pid, tid) tracks; raises ``ValueError`` on malformation.
    Used by the CI trace-artifact check.
    """
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("trace must be an object with a traceEvents array")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be an array")
    tracks = set()
    n_events = 0
    for event in events:
        if not isinstance(event, dict):
            raise ValueError(f"trace event is not an object: {event!r}")
        for key in _REQUIRED:
            if key not in event:
                raise ValueError(f"trace event missing {key!r}: {event!r}")
        phase = event["ph"]
        if phase == "M":
            continue
        if "ts" not in event:
            raise ValueError(f"non-metadata event missing ts: {event!r}")
        if phase == "X" and "dur" not in event:
            raise ValueError(f"complete event missing dur: {event!r}")
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                raise ValueError(f"counter event missing args: {event!r}")
            for key, value in args.items():
                if not isinstance(value, (int, float)) or value != value:
                    raise ValueError(
                        f"counter event arg {key!r} is not numeric: {event!r}"
                    )
        n_events += 1
        tracks.add((event["pid"], event.get("tid", 0)))
    return n_events, len(tracks)


#: list items per ``json.dumps`` call in :func:`_write_json`.
_WRITE_CHUNK = 8192


def _write_json(doc: dict, path, sliced: str) -> None:
    """Write ``doc`` to ``path`` as ``json.dump`` would, byte for byte:
    keys in dict order, the one large list under ``sliced`` (a trace's
    ``traceEvents``, a spans document's ``requests``) a slice at a time
    through ``json.dumps``.  ``json.dump`` encodes with the pure-Python
    encoder, several times slower on a million items, and one
    ``json.dumps`` of the whole document would hold it all in memory a
    second time.  ``doc[sliced]`` may also be an iterable of lists,
    written as the one list they concatenate to, each made only when
    the one before it is written."""
    with open(path, "w") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(doc.items()):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            if key != sliced:
                fh.write(json.dumps(value))
                continue
            fh.write("[")
            sep = ""
            for part in [value] if isinstance(value, list) else value:
                for start in range(0, len(part), _WRITE_CHUNK):
                    fh.write(sep)
                    fh.write(json.dumps(part[start:start + _WRITE_CHUNK])[1:-1])
                    sep = ", "
            fh.write("]")
        fh.write("}")


def validate_chrome_trace_file(path) -> Tuple[int, int]:
    """Load ``path`` and validate it; see :func:`validate_chrome_trace`."""
    with open(path) as fh:
        return validate_chrome_trace(json.load(fh))
