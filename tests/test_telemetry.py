"""Fleet-telemetry schema, sink, and worker-heartbeat plumbing.

The lifecycle-event schema must round-trip through the JSONL sink and
past :func:`validate_telemetry`; malformed streams must be rejected
with a pointed error.  The heartbeat emitter is driven here with a
deterministic fake clock and a capturing ``send`` — no subprocesses,
no wall-clock sleeps.
"""

import json

import pytest

from repro.core.context import SimContext
from repro.core.engine import Engine
from repro.experiments.runner import observe
from repro.monitor.telemetry import (
    DEFAULT_HEARTBEAT_S,
    TELEMETRY_VERSION,
    FleetTelemetry,
    HeartbeatEmitter,
    TelemetrySink,
    make_event,
    peak_rss_kb,
    validate_telemetry,
    validate_telemetry_file,
)


def _valid_stream():
    return [
        make_event("run_queued", "table2", "abc123", 1.0),
        make_event("worker_started", "table2", "abc123", 1.1, pid=42),
        make_event(
            "heartbeat", "table2", "abc123", 1.4,
            events_processed=5000, sim_cycles=120.0, events_per_sec=9e5,
        ),
        make_event(
            "retry", "table2", "abc123", 2.0, attempt=1,
            error="transient", next_attempt=2, backoff_s=0.5,
        ),
        make_event(
            "cache_hit", "fig3", "abc123", 2.1, attempt=0,
            key="abcdef0123456789", shard="ab", verified=True,
        ),
        make_event("failed", "table2", "abc123", 3.0, attempt=2, error="kaboom"),
        make_event(
            "completed", "fig3", "abc123", 3.5, elapsed_s=2.4, cached=False
        ),
    ]


class TestSchema:
    def test_make_event_stamps_required_fields(self):
        event = make_event("run_queued", "table2", "abc123", 1.5, attempt=2)
        assert event["v"] == TELEMETRY_VERSION
        assert event["type"] == "run_queued"
        assert event["experiment"] == "table2"
        assert event["config_hash"] == "abc123"
        assert event["t_wall"] == 1.5 and event["attempt"] == 2

    def test_make_event_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown telemetry event type"):
            make_event("exploded", "table2", "abc123", 1.0)

    def test_valid_stream_counts_by_type(self):
        counts = validate_telemetry(_valid_stream())
        assert counts == {
            "run_queued": 1, "worker_started": 1, "heartbeat": 1,
            "retry": 1, "cache_hit": 1, "failed": 1, "completed": 1,
        }

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda e: e.update(v=99), "unsupported telemetry version"),
            (lambda e: e.pop("experiment"), "missing 'experiment'"),
            (lambda e: e.update(type="exploded"), "unknown event type"),
            (lambda e: e.update(t_wall="soon"), "t_wall is not a number"),
            (lambda e: e.update(attempt=-1), "attempt must be"),
            (lambda e: e.update(attempt=1.5), "attempt must be"),
        ],
    )
    def test_malformed_events_rejected(self, mutate, match):
        events = _valid_stream()
        mutate(events[0])
        with pytest.raises(ValueError, match=match):
            validate_telemetry(events)

    @pytest.mark.parametrize(
        "type_, missing",
        [
            ("heartbeat", "events_processed"),
            ("cache_hit", "verified"),
            ("retry", "backoff_s"),
            ("failed", "error"),
            ("completed", "cached"),
        ],
    )
    def test_per_type_payload_fields_required(self, type_, missing):
        events = _valid_stream()
        event = next(e for e in events if e["type"] == type_)
        del event[missing]
        with pytest.raises(ValueError, match=f"{type_} event missing"):
            validate_telemetry(events)

    def test_non_dict_event_rejected(self):
        with pytest.raises(ValueError, match="not an object"):
            validate_telemetry(["heartbeat"])


class TestSink:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t" / "run.jsonl"
        with TelemetrySink(path) as sink:
            for event in _valid_stream():
                sink.emit(event)
            assert sink.emitted == 7
        counts = validate_telemetry_file(path)
        assert sum(counts.values()) == 7

    def test_flushes_per_event(self, tmp_path):
        # a killed run must leave every emitted event on disk
        path = tmp_path / "run.jsonl"
        sink = TelemetrySink(path)
        sink.emit(make_event("run_queued", "x", "h", 1.0))
        assert len(path.read_text().splitlines()) == 1
        sink.close()

    def test_append_only_across_sessions(self, tmp_path):
        path = tmp_path / "run.jsonl"
        for _ in range(2):
            with TelemetrySink(path) as sink:
                sink.emit(make_event("run_queued", "x", "h", 1.0))
        assert len(path.read_text().splitlines()) == 2

    def test_unparseable_line_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"v": 1, "type": "run_queued"\n')
        with pytest.raises(ValueError, match="unparseable JSONL"):
            validate_telemetry_file(path)


class TestFleetTelemetry:
    def test_stamps_hash_clock_and_fans_out(self, tmp_path):
        seen = []
        clock = iter([10.0, 11.0]).__next__
        sink = TelemetrySink(tmp_path / "run.jsonl")
        telemetry = FleetTelemetry(
            sink=sink, on_event=seen.append, clock=clock
        )
        telemetry.event("run_queued", "table2")
        telemetry.event(
            "completed", "table2", elapsed_s=1.0, cached=False
        )
        telemetry.close()
        assert [e["t_wall"] for e in seen] == [10.0, 11.0]
        assert all(e["config_hash"] == telemetry.config_hash for e in seen)
        assert telemetry.events == 2
        disk = [
            json.loads(line)
            for line in (tmp_path / "run.jsonl").read_text().splitlines()
        ]
        assert disk == seen
        validate_telemetry(disk)

    def test_default_heartbeat_interval(self):
        assert FleetTelemetry().heartbeat_s == DEFAULT_HEARTBEAT_S


class TestPeakRss:
    def test_positive_on_posix(self):
        rss = peak_rss_kb()
        assert rss is None or rss > 0


class _FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


class TestHeartbeatEmitter:
    def test_observer_arms_engine_pulse(self):
        emitter = HeartbeatEmitter(send=lambda msg: None)
        with observe(emitter):
            ctx = SimContext()
            assert ctx.engine._pulse == emitter._pulse
        assert ctx.engine._pulse is None  # leaving the block detaches

    def test_rate_limited_by_fake_clock(self):
        sent = []
        clock = _FakeClock()
        emitter = HeartbeatEmitter(
            send=sent.append, min_interval_s=0.25, clock=clock
        )
        engine = Engine()
        emitter._engines.append(engine)
        emitter._pulse(engine)          # first pulse beats
        emitter._pulse(engine)          # same instant: suppressed
        clock.t = 0.1
        emitter._pulse(engine)          # inside the interval: suppressed
        clock.t = 0.30
        emitter._pulse(engine)          # past the interval: beats
        assert emitter.beats == 2 and len(sent) == 2
        assert all(tag == "hb" for tag, _ in sent)

    def test_payload_shape_and_monotone_events(self):
        sent = []
        emitter = HeartbeatEmitter(send=sent.append, min_interval_s=0.0)
        with observe(emitter):
            ctx = SimContext()
            for i in range(10_000):
                ctx.engine.schedule_after(float(i + 1), lambda: None)
            ctx.engine.run()
        # the pulse cadence (every few thousand events) fired mid-run
        assert len(sent) >= 2
        payloads = [p for _, p in sent]
        events = [p["events_processed"] for p in payloads]
        # beats land on the pulse cadence, so the final beat trails the
        # run total by less than one check interval
        assert events == sorted(events) and 4096 <= events[-1] <= 10_000
        last = payloads[-1]
        assert last["machines"] == 1
        assert last["sim_cycles"] > 0.0
        assert set(last) == {
            "events_processed", "sim_cycles", "events_per_sec",
            "peak_rss_kb", "machines",
        }

    def test_empty_payload_before_any_machine(self):
        emitter = HeartbeatEmitter(send=lambda msg: None)
        payload = emitter.payload()
        assert payload["events_processed"] == 0
        assert payload["machines"] == 0

    def test_broken_send_never_raises(self):
        def _broken(msg):
            raise BrokenPipeError("gone")

        emitter = HeartbeatEmitter(send=_broken)
        emitter.beat()  # must not raise
        assert emitter.beats == 0
