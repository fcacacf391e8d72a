"""Runner fleet telemetry end to end: lifecycle events, worker
heartbeats over the result pipe, and the no-heartbeat stall budget.

The key behavioral contract: with telemetry on, ``timeout_s`` is a
*stall* budget — a worker that keeps making heartbeat progress
survives past it, while a hung worker dies after roughly the budget
(not the full wall-clock timeout it would have been granted before).
With telemetry off, the original flat wall-clock deadline applies.
"""

import time

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.runner import Experiment, run_all
from repro.monitor.telemetry import FleetTelemetry, validate_telemetry


@pytest.fixture
def scratch_registry():
    added = []

    def add(experiment):
        runner_mod.register(experiment)
        added.append(experiment.name)
        return experiment

    yield add
    for name in added:
        runner_mod.REGISTRY.pop(name, None)


def _telemetry(events, heartbeat_s=0.05):
    return FleetTelemetry(on_event=events.append, heartbeat_s=heartbeat_s)


def _hang_after_hello():
    # never builds a machine: after the worker's hello beat, silence.
    time.sleep(30)
    return "never"


def _slow_but_progressing(batches=25, events_per_batch=5000, sleep_s=0.06):
    # total wall time ~batches*sleep_s (plus sim): far beyond a 0.75s
    # budget, but every batch runs thousands of engine events, so the
    # pulse keeps beating between sleeps.
    from repro.core.context import SimContext

    ctx = SimContext()
    engine = ctx.engine
    for _ in range(batches):
        for i in range(events_per_batch):
            engine.schedule_after(float(i + 1), _noop)
        engine.run()
        time.sleep(sleep_s)
    return f"progressed {engine.events_processed} events"


def _noop():
    pass


class TestStallBudget:
    def test_hung_worker_dies_on_heartbeat_silence(self, scratch_registry):
        scratch_registry(
            Experiment("hang-quiet", "hello beat then silence", _hang_after_hello)
        )
        events = []
        start = time.perf_counter()
        (result,) = run_all(
            names=["hang-quiet"], timeout_s=1.0, telemetry=_telemetry(events)
        )
        elapsed = time.perf_counter() - start
        assert not result.ok
        # killed at ~the stall budget, nowhere near the 30s sleep
        assert elapsed < 10.0
        assert result.error.startswith("stalled: no heartbeat progress for 1s")
        # the retry/failure is annotated with last-known progress
        assert "last heartbeat: 0 events" in result.error

    def test_progressing_worker_survives_past_flat_timeout(
        self, scratch_registry
    ):
        scratch_registry(
            Experiment("slow-alive", "slow but beating", _slow_but_progressing)
        )
        events = []
        (result,) = run_all(
            names=["slow-alive"], timeout_s=0.75, telemetry=_telemetry(events)
        )
        # wall time is ~1.5s+, well past the 0.75s budget — but the
        # worker kept beating, so it was never killed
        assert result.ok, result.error
        assert result.output.startswith("progressed")
        assert result.elapsed_s > 0.75
        beats = [e for e in events if e["type"] == "heartbeat"]
        assert len(beats) >= 3
        progress = [e["events_processed"] for e in beats]
        assert progress == sorted(progress)

    def test_flat_timeout_without_telemetry_unchanged(self, scratch_registry):
        scratch_registry(
            Experiment("slow-flat", "slow but beating", _slow_but_progressing)
        )
        (result,) = run_all(names=["slow-flat"], timeout_s=0.75)
        # telemetry off: the old flat wall-clock deadline still kills it
        assert not result.ok
        assert result.error == "timeout after 0.75s"


class TestLifecycleEvents:
    def test_isolated_run_emits_ordered_lifecycle(self, scratch_registry):
        events = []
        (result,) = run_all(
            names=["topology"], jobs=2, telemetry=_telemetry(events)
        )
        assert result.ok
        validate_telemetry(events)
        types = [e["type"] for e in events if e["experiment"] == "topology"]
        assert types[0] == "run_queued"
        assert types[1] == "worker_started"
        assert types[-1] == "completed"
        done = events[-1]
        assert done["cached"] is False and done["elapsed_s"] > 0.0
        started = events[1]
        assert started["attempt"] == 1 and started["pid"] > 0

    def test_inline_run_emits_lifecycle_too(self, scratch_registry):
        events = []
        (result,) = run_all(
            names=["topology"], jobs=1, telemetry=_telemetry(events)
        )
        assert result.ok
        validate_telemetry(events)
        types = [e["type"] for e in events]
        assert types[0] == "run_queued" and types[-1] == "completed"

    def test_cache_hit_emits_cache_hit_event(self, tmp_path):
        warm = []
        run_all(names=["topology"], cache_dir=tmp_path, telemetry=_telemetry(warm))
        assert not any(e["type"] == "cache_hit" for e in warm)
        events = []
        (result,) = run_all(
            names=["topology"], cache_dir=tmp_path, telemetry=_telemetry(events)
        )
        assert result.ok and result.cached
        validate_telemetry(events)
        types = [e["type"] for e in events]
        assert "cache_hit" in types and "run_queued" not in types

    def test_machine_building_run_streams_heartbeats(self, scratch_registry):
        scratch_registry(
            Experiment(
                "beats",
                "builds a machine, beats",
                _slow_but_progressing,
                kwargs={"batches": 5, "sleep_s": 0.06},
            )
        )
        events = []
        (result,) = run_all(names=["beats"], jobs=2, telemetry=_telemetry(events))
        assert result.ok
        validate_telemetry(events)
        beats = [e for e in events if e["type"] == "heartbeat"]
        assert beats, "worker heartbeats never reached the parent"
        assert all(e["experiment"] == "beats" for e in beats)

    def test_retry_event_carries_attempt_and_backoff(self, scratch_registry):
        scratch_registry(Experiment("boom-tel", "always raises", _always_boom))
        events = []
        (result,) = run_all(
            names=["boom-tel"], jobs=2, retries=1, retry_backoff_s=0.01,
            telemetry=_telemetry(events),
        )
        assert not result.ok and result.attempts == 2
        validate_telemetry(events)
        (retry,) = [e for e in events if e["type"] == "retry"]
        assert retry["attempt"] == 1 and retry["next_attempt"] == 2
        assert "kaboom" in retry["error"]
        assert retry["backoff_s"] >= 0.0
        (failed,) = [e for e in events if e["type"] == "failed"]
        assert failed["attempt"] == 2 and "kaboom" in failed["error"]

    def test_unmonitored_run_emits_nothing(self, scratch_registry):
        # telemetry=None is the default: the runner must not grow any
        # emission side effects when nobody is listening
        (result,) = run_all(names=["topology"], jobs=2)
        assert result.ok


def _always_boom():
    raise RuntimeError("kaboom")
