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

import json
from dataclasses import dataclass
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


def _service_cycles(resource, packet) -> float:
    """Approximate service duration of ``packet`` on ``resource`` from
    its public rate parameters (the monitor-side view of busy time)."""
    return resource.fixed_cycles + packet.words / resource.words_per_cycle


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
      ``inject``): complete ("X") events per link departure, counter
      ("C") events for queue occupancy.
    * ``gmem`` process, one thread per module: complete events per
      service (duration = the actual service cycles), instants for
      sync ops.
    * ``ce`` process, one thread per CE port: instants for PFU
      arm/request/deliver/suspend and CE completion.
    * ``cluster`` process: complete events on cache / cluster-memory
      accesses.
    * ``timeline`` process (via :meth:`ingest_timeline`): one counter
      ("C") track per interval-sampled metric series.

    Signals only observe, so an attached tracer never changes cycle
    counts — only wall-clock speed.
    """

    DEFAULT_CAPACITY = 1 << 20

    #: signal names a ChromeTracer listens to when the bus declares them.
    SIGNALS = (
        "net.hop",
        "net.enqueue",
        "net.dequeue",
        "gmem.service",
        "sync.op",
        "cluster.access",
        "pfu.arm",
        "pfu.request",
        "pfu.deliver",
        "pfu.suspend",
        "ce.done",
        "fault.transient",
        "fault.port_down",
        "fault.ecc",
        "fault.sync_timeout",
        "fault.reroute",
    )

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self.events: List[dict] = []
        self._metadata: List[dict] = []
        self._dropped = 0
        #: (scope, process name) -> pid; (pid, thread name) -> tid
        self._pids: Dict[Tuple[str, str], int] = {}
        self._tids: Dict[Tuple[int, str], int] = {}
        self._subscriptions: List[tuple] = []
        #: request ids that already have a flow start ("s") event.
        self._flow_started: set = set()

    @property
    def dropped(self) -> int:
        return self._dropped

    # -- attachment --------------------------------------------------------

    def attach(self, bus, scope: str = "") -> "ChromeTracer":
        """Subscribe broadcast to every catalog signal ``bus`` declares.

        ``scope`` (e.g. ``"m1:"``) prefixes process names, keeping
        machines distinct when one tracer observes several.
        """
        handlers = {
            "net.hop": lambda r, p, t: self._on_hop(scope, r, p, t),
            "net.enqueue": lambda r, p, t: self._on_queue(scope, r, t),
            "net.dequeue": lambda r, p, t: self._on_queue(scope, r, t),
            "gmem.service": lambda m, p, t, c: self._on_service(scope, m, p, t, c),
            "sync.op": lambda m, a, t, p, ok: self._on_sync(scope, m, a, t, p, ok),
            "cluster.access": lambda r, p, t: self._on_cluster(scope, r, p, t),
            "pfu.arm": lambda port, t: self._instant(scope, "ce", f"port[{port}]", "pfu.arm", t),
            "pfu.request": lambda port, i, t: self._instant(
                scope, "ce", f"port[{port}]", "pfu.request", t, {"word": i}
            ),
            "pfu.deliver": lambda port, i, t: self._instant(
                scope, "ce", f"port[{port}]", "pfu.deliver", t, {"word": i}
            ),
            "pfu.suspend": lambda port, t: self._instant(
                scope, "ce", f"port[{port}]", "pfu.suspend", t
            ),
            "ce.done": lambda port, t: self._instant(
                scope, "ce", f"port[{port}]", "ce.done", t
            ),
            "fault.transient": lambda r, p, t, b: self._instant(
                scope, "faults", "network", "fault.transient", t,
                {"resource": r.name, "backoff_cycles": b},
            ),
            "fault.port_down": lambda r, t, until: self._instant(
                scope, "faults", "network", "fault.port_down", t,
                {"resource": r.name, "until": until},
            ),
            "fault.ecc": lambda m, p, t, c: self._instant(
                scope, "faults", "gmem", "fault.ecc", t,
                {"module": m, "stall_cycles": c},
            ),
            "fault.sync_timeout": lambda m, a, t, c: self._instant(
                scope, "faults", "gmem", "fault.sync_timeout", t,
                {"module": m, "address": a, "penalty_cycles": c},
            ),
            "fault.reroute": lambda n, p, t: self._instant(
                scope, "faults", "network", "fault.reroute", t, {"network": n}
            ),
        }
        for name, handler in handlers.items():
            if bus.declared(name):
                self._subscriptions.append((bus, bus.subscribe(name, handler)))
        return self

    def detach(self) -> None:
        """Unsubscribe from every bus this tracer was attached to."""
        for bus, subscription in self._subscriptions:
            bus.unsubscribe(subscription)
        self._subscriptions = []

    # -- track bookkeeping -------------------------------------------------

    def _track(self, scope: str, process: str, thread: str) -> Tuple[int, int]:
        pkey = (scope, process)
        pid = self._pids.get(pkey)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[pkey] = pid
            self._metadata.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "args": {"name": f"{scope}{process}"},
                }
            )
        tkey = (pid, thread)
        tid = self._tids.get(tkey)
        if tid is None:
            tid = sum(1 for (p, _t) in self._tids if p == pid) + 1
            self._tids[tkey] = tid
            self._metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": thread},
                }
            )
        return pid, tid

    def _full(self, events: int = 1) -> bool:
        """True, counting ``events`` as dropped, once the cap is reached.
        Handlers test it before building their dicts (after ``_track``,
        so the metadata matches an uncapped trace)."""
        if len(self.events) < self.capacity:
            return False
        self._dropped += events
        return True

    def _post(self, event: dict) -> None:
        if not self._full():
            self.events.append(event)

    # -- signal handlers ---------------------------------------------------

    @staticmethod
    def _split_resource(name: str) -> Tuple[str, str]:
        """``"fwd.s0[3]"`` -> (process ``"net.fwd"``, thread ``"s0"``);
        undotted names (``"gm[4]"``) keep the full name as the thread."""
        net, dot, rest = name.partition(".")
        if not dot:
            return f"net.{name.split('[', 1)[0]}", name
        thread = rest.split("[", 1)[0] or rest
        return f"net.{net}", thread

    def _on_hop(self, scope: str, resource, packet, time: float) -> None:
        process, thread = self._split_resource(resource.name)
        pid, tid = self._track(scope, process, thread)
        if self._full(2):  # the slice and its flow step
            return
        duration = _service_cycles(resource, packet)
        self._post(
            {
                "name": resource.name,
                "cat": "net",
                "ph": "X",
                "ts": max(0.0, time - duration),
                "dur": duration,
                "pid": pid,
                "tid": tid,
                "args": {"src": packet.src, "dst": packet.dst, "words": packet.words},
            }
        )
        self._flow(pid, tid, packet.request_id, max(0.0, time - duration))

    def _on_queue(self, scope: str, resource, time: float) -> None:
        process, _thread = self._split_resource(resource.name)
        pid, _ = self._track(scope, process, "queues")
        if self._full():
            return
        self._post(
            {
                "name": f"{resource.name} queue",
                "cat": "queue",
                "ph": "C",
                "ts": time,
                "pid": pid,
                "args": {"words": resource.queued_words},
            }
        )

    def _on_service(self, scope: str, module: int, packet, time: float, cycles: float) -> None:
        pid, tid = self._track(scope, "gmem", f"module[{module}]")
        if self._full(2):  # the slice and its flow step
            return
        self._post(
            {
                "name": packet.kind.name if hasattr(packet.kind, "name") else str(packet.kind),
                "cat": "gmem",
                "ph": "X",
                "ts": max(0.0, time - cycles),
                "dur": cycles,
                "pid": pid,
                "tid": tid,
                "args": {"address": packet.address, "words": packet.words},
            }
        )
        self._flow(pid, tid, packet.request_id, max(0.0, time - cycles))

    def _flow(self, pid: int, tid: int, request_id: int, ts: float) -> None:
        """Chain this slice into the request's flow track (Perfetto
        draws arrows between the slices sharing an ``id``).  The first
        slice of a request starts the flow ("s"); the rest step it
        ("t"); :meth:`trace` rewrites each flow's final step into the
        terminator ("f") export-time, since the last hop isn't knowable
        while events stream in."""
        if self._full():
            return
        started = request_id in self._flow_started
        if not started:
            self._flow_started.add(request_id)
        self._post(
            {
                "name": "request",
                "cat": "flow",
                "ph": "t" if started else "s",
                "id": request_id,
                "ts": ts,
                "pid": pid,
                "tid": tid,
            }
        )

    def _on_sync(
        self, scope: str, module: int, address: int, time: float, packet, success: bool
    ) -> None:
        pid, tid = self._track(scope, "gmem", f"module[{module}]")
        if self._full():
            return
        self._post(
            {
                "name": "sync.op",
                "cat": "sync",
                "ph": "i",
                "s": "t",
                "ts": time,
                "pid": pid,
                "tid": tid,
                "args": {"address": address, "success": success},
            }
        )

    def _on_cluster(self, scope: str, resource, packet, time: float) -> None:
        pid, tid = self._track(scope, "cluster", resource.name)
        if self._full():
            return
        duration = _service_cycles(resource, packet)
        self._post(
            {
                "name": resource.name,
                "cat": "cluster",
                "ph": "X",
                "ts": max(0.0, time - duration),
                "dur": duration,
                "pid": pid,
                "tid": tid,
                "args": {"words": packet.words},
            }
        )

    def _instant(
        self,
        scope: str,
        process: str,
        thread: str,
        name: str,
        time: float,
        args: Optional[dict] = None,
    ) -> None:
        pid, tid = self._track(scope, process, thread)
        if self._full():
            return
        event = {
            "name": name,
            "cat": "ce",
            "ph": "i",
            "s": "t",
            "ts": time,
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self._post(event)

    # -- post-hoc span ingestion -------------------------------------------

    def ingest_spans(self, spans, scope: str = "") -> "ChromeTracer":
        """Render stitched :class:`~repro.monitor.spans.RequestSpan`
        objects into the trace after the fact — the streaming path's
        route into Chrome/Perfetto, where only the exemplar reservoir's
        spans survive the run (``store.complete_spans()`` +
        ``store.incomplete_spans()``).

        Each retained span contributes one complete ("X") slice per hop
        (duration = the hop's full queue occupancy, with the
        wait/service/blocked split in ``args``), a memory-module slice,
        birth/deliver instants on its CE port, and the same flow chain
        live attachment builds — so the arrows in the viewer connect an
        exemplar's hops exactly as they would had every request been
        traced live.
        """
        for span in sorted(spans, key=lambda s: s.birth):
            rid = span.request_id
            pid, tid = self._track(scope, "ce", f"port[{span.port}]")
            self._instant(
                scope, "ce", f"port[{span.port}]", "req.birth", span.birth,
                {"id": rid, "origin": span.origin},
            )
            slices = []
            for hop in span.hops:
                if hop.depart is None:
                    continue
                slices.append((hop.enqueue, hop.depart - hop.enqueue,
                               hop.resource, "net", hop.segments()))
            if span.mem_enqueue is not None and span.mem_depart is not None:
                module = span.mem_module if span.mem_module is not None else 0
                slices.append((
                    span.mem_enqueue, span.mem_depart - span.mem_enqueue,
                    f"gm[{module}]", "gmem", None,
                ))
            slices.sort(key=lambda s: s[0])
            for ts, duration, resource, cat, segments in slices:
                if cat == "gmem":
                    # match the live handler's track layout
                    process, thread = "gmem", f"module[{resource[3:-1]}]"
                else:
                    process, thread = self._split_resource(resource)
                pid, tid = self._track(scope, process, thread)
                args = {"id": rid, "origin": span.origin}
                if segments is not None:
                    args["queue_wait"], args["service"], args["blocked"] = (
                        segments
                    )
                self._post({
                    "name": resource,
                    "cat": cat,
                    "ph": "X",
                    "ts": ts,
                    "dur": duration,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                })
                self._flow(pid, tid, rid, ts)
            if span.end is not None:
                self._instant(
                    scope, "ce", f"port[{span.port}]", "req.deliver",
                    span.end, {"id": rid, "latency": span.latency},
                )
        return self

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
        edges = doc.get("edges", [])
        for name, entry in sorted(doc.get("series", {}).items()):
            pid, _tid = self._track(scope, "timeline", name)
            kind = entry.get("kind")
            anchor = {"value": 0.0}
            if kind == "delta":
                anchor["per_cycle"] = 0.0
            self.events.append({
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
                self.events.append({
                    "name": name, "cat": "timeline", "ph": "C",
                    "ts": edge, "pid": pid, "args": args,
                })
        return self

    # -- export ------------------------------------------------------------

    def trace(self) -> dict:
        """The complete trace object (JSON-serializable).

        Flow chains are finalized here: each request's last flow event
        becomes the terminating "f" phase, and requests that produced
        only a single flow event (no arrow to draw) are dropped.  The
        collected events themselves are left untouched so ``trace`` can
        be called repeatedly.
        """
        events: List[dict] = []
        last_flow: Dict[int, int] = {}
        flow_counts: Dict[int, int] = {}
        for event in self.events:
            if event.get("cat") == "flow":
                event = dict(event)
                fid = event["id"]
                last_flow[fid] = len(events)
                flow_counts[fid] = flow_counts.get(fid, 0) + 1
            events.append(event)
        singletons = set()
        for fid, idx in last_flow.items():
            if flow_counts[fid] < 2:
                singletons.add(idx)
            else:
                events[idx]["ph"] = "f"
                events[idx]["bp"] = "e"
        if singletons:
            events = [e for i, e in enumerate(events) if i not in singletons]
        return {
            "traceEvents": [*self._metadata, *events],
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.monitor.tracer.ChromeTracer",
                "time_unit": "1 trace us == 1 CE instruction cycle",
                "dropped": self._dropped,
            },
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.trace(), fh)

    def track_count(self) -> int:
        """Distinct (pid, tid) tracks carrying real (non-metadata) events."""
        return len({(e["pid"], e.get("tid", 0)) for e in self.events})


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


def validate_chrome_trace_file(path) -> Tuple[int, int]:
    """Load ``path`` and validate it; see :func:`validate_chrome_trace`."""
    with open(path) as fh:
        return validate_chrome_trace(json.load(fh))
