"""Fleet telemetry: runner lifecycle events and worker heartbeats.

The per-run observability stack (metrics, spans, sketches) answers
"what did one simulation do"; this module answers "what is the runner
*fleet* doing right now".  Two primitives:

* **Lifecycle events** — a versioned structured schema
  (``TELEMETRY_VERSION``) describing every transition an
  experiment makes through the runner: ``run_queued``,
  ``worker_started``, ``heartbeat``, ``cache_hit``, ``retry``,
  ``failed``, ``completed``.  Every event is stamped with the
  experiment name, the :meth:`~repro.core.config.CedarConfig.stable_hash`
  of the machine configuration, the wall-clock time, and the attempt
  number.  :class:`TelemetrySink` appends them as JSONL under
  ``.repro-telemetry/`` and :func:`validate_telemetry` checks a stream
  against the schema (the sibling of ``validate_spans`` /
  ``validate_chrome_trace``).

* **Heartbeats** — :class:`HeartbeatEmitter` runs around each
  attempt, in the isolated worker process or in-process at
  ``--jobs 1``.  It observes every machine the experiment
  builds (through :func:`repro.experiments.runner.observe`, as the
  report collector does) and arms an engine *pulse* — a read-only
  hook riding the Watchdog's check cadence
  (:meth:`~repro.core.engine.Engine.attach_pulse`), so the unmonitored
  hot path stays untouched.  At most every
  ``min_interval_s`` wall seconds the pulse ships engine self-metrics
  (events processed, sim cycles, events/sec, peak RSS) back over the
  worker's existing result pipe, or straight to the event callback
  inline.  The parent uses heartbeat *silence* — not just wall clock —
  to tell a hung worker from a slow one.

Everything here is clock-injectable (``clock=``) so tests drive the
plumbing deterministically.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

#: lifecycle-event schema version; bump on breaking shape changes.
#: v2: ``cache_hit`` events carry the result store's shard and
#: checksum-verification outcome, so differential runs can confirm
#: both sides served verified entries.
TELEMETRY_VERSION = 2

#: default JSONL sink location (repo-/cwd-relative).
DEFAULT_TELEMETRY_DIR = ".repro-telemetry"

#: default worker heartbeat floor: at most one beat per this many wall
#: seconds, however often the engine pulse visits.
DEFAULT_HEARTBEAT_S = 0.25

#: the lifecycle vocabulary, in the order a healthy run traverses it.
EVENT_TYPES = (
    "run_queued",
    "worker_started",
    "heartbeat",
    "cache_hit",
    "retry",
    "failed",
    "completed",
)

#: fields every event must carry.
REQUIRED_FIELDS = ("v", "type", "experiment", "config_hash", "t_wall", "attempt")

#: per-type payload fields (beyond the required six).
TYPE_FIELDS: Dict[str, tuple] = {
    "heartbeat": ("events_processed", "sim_cycles", "events_per_sec"),
    "cache_hit": ("key", "shard", "verified"),
    "retry": ("error", "next_attempt", "backoff_s"),
    "failed": ("error",),
    "completed": ("elapsed_s", "cached"),
}


def make_event(
    type_: str,
    experiment: str,
    config_hash: str,
    t_wall: float,
    attempt: int = 1,
    **extra,
) -> Dict[str, object]:
    """One schema-valid lifecycle event as a JSON-ready dict."""
    if type_ not in EVENT_TYPES:
        raise ValueError(f"unknown telemetry event type {type_!r}")
    event: Dict[str, object] = {
        "v": TELEMETRY_VERSION,
        "type": type_,
        "experiment": experiment,
        "config_hash": config_hash,
        "t_wall": t_wall,
        "attempt": attempt,
    }
    event.update(extra)
    return event


# ---------------------------------------------------------------------------
# validation (the CI artifact check)


def validate_telemetry(events: Iterable[Dict[str, object]]) -> Dict[str, int]:
    """Check an event stream against the schema essentials.

    Returns per-type counts; raises ``ValueError`` on malformation —
    unknown versions, unknown types, missing required or per-type
    fields, or non-numeric stamps.
    """
    counts: Dict[str, int] = {}
    for i, event in enumerate(events):
        where = f"event {i}"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: not an object: {event!r}")
        if event.get("v") != TELEMETRY_VERSION:
            raise ValueError(
                f"{where}: unsupported telemetry version {event.get('v')!r}"
            )
        for field in REQUIRED_FIELDS:
            if field not in event:
                raise ValueError(f"{where}: missing {field!r}")
        type_ = event["type"]
        if type_ not in EVENT_TYPES:
            raise ValueError(f"{where}: unknown event type {type_!r}")
        if not isinstance(event["t_wall"], (int, float)):
            raise ValueError(f"{where}: t_wall is not a number")
        attempt = event["attempt"]
        if not isinstance(attempt, int) or attempt < 0:
            raise ValueError(f"{where}: attempt must be a non-negative int")
        for field in TYPE_FIELDS.get(type_, ()):
            if field not in event:
                raise ValueError(f"{where}: {type_} event missing {field!r}")
        counts[type_] = counts.get(type_, 0) + 1
    return counts


def validate_telemetry_file(path) -> Dict[str, int]:
    """Load a JSONL sink file and validate it; see
    :func:`validate_telemetry`."""
    events = []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{n}: unparseable JSONL: {exc}")
    return validate_telemetry(events)


# ---------------------------------------------------------------------------
# the append-only sink


class TelemetrySink:
    """Append-only JSONL lifecycle sink (one event per line, flushed
    per write, so a killed run still leaves every emitted event on
    disk).  Use as a context manager or call :meth:`close`."""

    def __init__(self, path, clock: Callable[[], float] = time.time) -> None:
        self.path = Path(path)
        self.clock = clock
        self.emitted = 0
        self._fh = None

    def emit(self, event: Dict[str, object]) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a")
        self._fh.write(json.dumps(event, separators=(",", ":")) + "\n")
        self._fh.flush()
        self.emitted += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FleetTelemetry:
    """One run-all's telemetry session: stamps events with the config
    hash and wall clock, fans them out to the JSONL sink and any
    in-process listener (the live progress renderer).

    ``heartbeat_s`` is the beat floor the runner arms around each
    attempt, in a worker or inline; the parent also uses it as the
    granularity of stall accounting.
    """

    def __init__(
        self,
        sink: Optional[TelemetrySink] = None,
        config=None,
        on_event: Optional[Callable[[Dict[str, object]], None]] = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if config is None:
            from repro.core.config import DEFAULT_CONFIG

            config = DEFAULT_CONFIG
        self.config_hash = config.stable_hash()
        self.sink = sink
        self.on_event = on_event
        self.heartbeat_s = heartbeat_s
        self.clock = clock
        self.events = 0

    def event(
        self, type_: str, experiment: str, attempt: int = 1, **extra
    ) -> Dict[str, object]:
        event = make_event(
            type_,
            experiment,
            self.config_hash,
            round(self.clock(), 6),
            attempt,
            **extra,
        )
        if self.sink is not None:
            self.sink.emit(event)
        if self.on_event is not None:
            self.on_event(event)
        self.events += 1
        return event

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()


# ---------------------------------------------------------------------------
# worker heartbeats


def peak_rss_kb() -> Optional[int]:
    """This process's peak resident set size in KiB, or None when the
    platform has no ``resource`` module (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS
    return int(peak // 1024) if sys.platform == "darwin" else int(peak)


class HeartbeatEmitter:
    """Per-attempt heartbeat source.

    Passed (inside the worker process, or in-process for an inline
    attempt) to :func:`~repro.experiments.runner.observe`: every machine
    the experiment builds gets an engine pulse
    (:meth:`~repro.core.engine.Engine.attach_pulse`) that rides the
    watchdog check cadence.  The pulse is wall-clock rate-limited to
    ``min_interval_s`` and ships cumulative engine self-metrics through
    ``send`` — in the runner, the worker's result pipe or the inline
    attempt's event callback.

    A beat therefore only flows while an engine is actually processing
    events: a worker wedged inside one event (or hung before building a
    machine) goes silent, which is exactly the signal the parent's
    stall budget keys on.
    """

    def __init__(
        self,
        send: Callable[[object], None],
        min_interval_s: float = DEFAULT_HEARTBEAT_S,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.send = send
        self.min_interval_s = min_interval_s
        self.clock = clock
        self.beats = 0
        self._engines: List[object] = []
        self._last = float("-inf")

    def __call__(self, ctx) -> Callable[[], object]:
        self._engines.append(ctx.engine)
        ctx.engine.attach_pulse(self._pulse)
        return ctx.engine.detach_pulse

    # -- beating -----------------------------------------------------------

    def _pulse(self, engine) -> None:
        now = self.clock()
        if now - self._last >= self.min_interval_s:
            self._last = now
            self.beat()

    def payload(self) -> Dict[str, object]:
        """Cumulative engine self-metrics across every machine built so
        far (monotone in events processed, so the parent can read
        forward progress straight off consecutive beats)."""
        events = sum(e.events_processed for e in self._engines)
        wall = sum(e.run_wall_s for e in self._engines)
        current = self._engines[-1] if self._engines else None
        return {
            "events_processed": events,
            "sim_cycles": current.now if current is not None else 0.0,
            "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
            "peak_rss_kb": peak_rss_kb(),
            "machines": len(self._engines),
        }

    def beat(self) -> None:
        """Ship one heartbeat now (rate limit already applied by the
        pulse path; callers may also beat explicitly, e.g. the worker's
        hello beat before any machine exists)."""
        try:
            self.send(("hb", self.payload()))
            self.beats += 1
        except Exception:
            # a broken pipe must never kill the simulation mid-run; the
            # parent notices the silence instead.
            pass
