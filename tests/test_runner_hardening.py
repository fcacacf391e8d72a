"""Hardened experiment runner: crash isolation, timeouts, retries,
corrupt-cache recovery, and partial results.

``run_all`` must never lose the whole batch to one bad artifact: a
worker that raises, dies, or hangs yields a failed
:class:`ExperimentResult` (error set, empty output) while every other
experiment completes normally, and the CLI surfaces the partial batch
with a nonzero exit.
"""

import os
import time
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main
from repro.experiments import runner as runner_mod
from repro.experiments.runner import (
    Experiment,
    cache_key,
    cache_lookup,
    cache_store,
    render_all,
    run_all,
    run_experiment,
)


def _boom():
    raise RuntimeError("kaboom")


def _hard_crash():
    os._exit(17)


def _sleep_forever():
    time.sleep(30)
    return "never"


_flaky_calls = {"n": 0}


def _flaky_inline(succeed_on=3):
    _flaky_calls["n"] += 1
    if _flaky_calls["n"] < succeed_on:
        raise RuntimeError(f"attempt {_flaky_calls['n']} fails")
    return "flaky ok"


def _flaky_file(path, succeed_on=2):
    marker = Path(path)
    n = int(marker.read_text()) + 1 if marker.exists() else 1
    marker.write_text(str(n))
    if n < succeed_on:
        raise RuntimeError("transient")
    return "file flaky ok"


def _engine_work(events=20_000):
    from repro.core.context import SimContext

    engine = SimContext().engine
    for i in range(events):
        engine.schedule_after(float(i + 1), _noop)
    engine.run()
    return f"{engine.events_processed} events"


def _noop():
    pass


@pytest.fixture
def scratch_registry():
    """Register throwaway experiments; deregister them afterwards."""
    added = []

    def add(experiment):
        runner_mod.register(experiment)
        added.append(experiment.name)
        return experiment

    yield add
    for name in added:
        runner_mod.REGISTRY.pop(name, None)


class TestCrashIsolation:
    def test_raising_worker_yields_partial_results(self, scratch_registry):
        scratch_registry(Experiment("boom", "always raises", _boom))
        results = run_all(names=["topology", "boom", "overheads"], jobs=2)
        by_name = {r.name: r for r in results}
        assert [r.name for r in results] == ["topology", "boom", "overheads"]
        assert by_name["topology"].ok and by_name["overheads"].ok
        failed = by_name["boom"]
        assert not failed.ok and failed.output == ""
        assert failed.error == "RuntimeError: kaboom"
        assert f"[boom FAILED: {failed.error}]" in render_all(results)

    def test_hard_crash_is_contained_to_its_artifact(self, scratch_registry):
        scratch_registry(Experiment("hard-crash", "calls os._exit", _hard_crash))
        results = run_all(names=["hard-crash", "topology"], jobs=2)
        crashed, alive = results
        assert crashed.error == "worker crashed (exit 17)"
        assert alive.ok and "Cedar" in alive.output

    def test_run_experiment_still_raises(self, scratch_registry):
        # the single-experiment API keeps its loud contract; the CLI's
        # one-line error handling sits above it.
        scratch_registry(Experiment("boom2", "always raises", _boom))
        with pytest.raises(RuntimeError, match="kaboom"):
            run_experiment("boom2")


class TestTimeouts:
    def test_hung_worker_is_terminated(self, scratch_registry):
        scratch_registry(Experiment("sleeper", "hangs for 30s", _sleep_forever))
        start = time.perf_counter()
        results = run_all(names=["sleeper"], timeout_s=1.0)
        assert time.perf_counter() - start < 15.0
        (result,) = results
        assert result.error == "timeout after 1s"

    def test_timeout_forces_isolation_even_at_one_job(self, scratch_registry):
        # jobs=1 normally runs inline (no subprocess); a timeout needs a
        # killable worker, and healthy experiments still succeed there.
        results = run_all(names=["topology"], jobs=1, timeout_s=60.0)
        assert results[0].ok and "Cedar" in results[0].output


class TestRetries:
    def test_inline_retries_until_success(self, scratch_registry):
        _flaky_calls["n"] = 0
        scratch_registry(Experiment("flaky", "fails twice", _flaky_inline))
        (result,) = run_all(names=["flaky"], retries=2, retry_backoff_s=0.01)
        assert result.ok and result.output == "flaky ok"
        assert result.attempts == 3

    def test_inline_retries_exhausted(self, scratch_registry):
        scratch_registry(Experiment("boom3", "always raises", _boom))
        (result,) = run_all(names=["boom3"], retries=1, retry_backoff_s=0.01)
        assert not result.ok and result.attempts == 2
        assert result.error == "RuntimeError: kaboom"

    def test_isolated_retries_until_success(self, scratch_registry, tmp_path):
        marker = tmp_path / "attempts"
        scratch_registry(
            Experiment(
                "flaky-file",
                "fails on first attempt",
                _flaky_file,
                kwargs={"path": str(marker)},
            )
        )
        (result,) = run_all(
            names=["flaky-file"], jobs=2, retries=1, retry_backoff_s=0.01
        )
        assert result.ok and result.output == "file flaky ok"
        assert result.attempts == 2 and marker.read_text() == "2"


def _entry_path(cache_dir, key):
    from repro.store import ResultStore

    return ResultStore(cache_dir).entry_path(key)


class TestCacheHardening:
    def test_truncated_entry_warns_and_misses(self, tmp_path):
        key = cache_key("topology", {})
        cache_store(tmp_path, "topology", key, "text")
        _entry_path(tmp_path, key).write_text('{"truncated')
        with pytest.warns(UserWarning, match="corrupt store entry"):
            assert cache_lookup(tmp_path, "topology", key) is None

    def test_wrong_shape_entry_warns_and_misses(self, tmp_path):
        key = cache_key("topology", {})
        cache_store(tmp_path, "topology", key, "text")
        # valid JSON, not an entry document
        _entry_path(tmp_path, key).write_text("[1, 2, 3]")
        with pytest.warns(UserWarning, match="corrupt store entry"):
            assert cache_lookup(tmp_path, "topology", key) is None

    def test_missing_entry_is_a_silent_miss(self, tmp_path):
        key = cache_key("topology", {})
        assert cache_lookup(tmp_path, "topology", key) is None

    def test_corrupt_entry_is_recomputed_and_healed(self, tmp_path):
        run_experiment("topology", cache_dir=tmp_path)
        key = cache_key("topology", {})
        _entry_path(tmp_path, key).write_text("{not json")
        with pytest.warns(UserWarning, match="corrupt store entry"):
            recomputed = run_experiment("topology", cache_dir=tmp_path)
        assert not recomputed.cached and "Cedar" in recomputed.output
        # the corrupt original was quarantined, not destroyed
        assert list((tmp_path / "quarantine").iterdir())
        healed = run_experiment("topology", cache_dir=tmp_path)
        assert healed.cached and healed.output == recomputed.output

    def test_store_is_atomic(self, tmp_path):
        key = cache_key("topology", {})
        cache_store(tmp_path, "topology", key, "text")
        assert not list(tmp_path.rglob("*.tmp"))
        assert not list(tmp_path.rglob("*.lock"))


class TestHardenedCLI:
    def test_run_all_flags_parse(self):
        args = build_parser().parse_args(
            ["run-all", "topology", "fig3", "--timeout", "5", "--retries", "2"]
        )
        assert args.names == ["topology", "fig3"]
        assert args.timeout == 5.0 and args.retries == 2

    def test_unknown_experiment_exits_nonzero(self, capsys):
        assert main(["run-all", "nonexistent"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nonexistent" in err

    def test_failed_run_exits_nonzero_with_partial_output(
        self, scratch_registry, capsys
    ):
        scratch_registry(Experiment("boom4", "always raises", _boom))
        assert main(["run-all", "topology", "boom4", "--no-reports"]) == 1
        captured = capsys.readouterr()
        assert "Cedar" in captured.out  # the healthy artifact printed
        assert "FAILED after 1 attempt(s)" in captured.out
        assert "[run-all] FAILED boom4: RuntimeError: kaboom" in captured.err

    def test_healthy_batch_exits_zero(self, capsys):
        assert main(["run-all", "topology", "--no-reports"]) == 0
        assert "Cedar" in capsys.readouterr().out


class TestOneDriver:
    """The inline loop (``jobs=1``) and the worker pool (``jobs=2``)
    are one scheduler: the same results, retry policy and lifecycle
    events on both paths."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_negative_retries_rejected_before_anything_runs(
        self, jobs, scratch_registry, tmp_path
    ):
        marker = tmp_path / "attempts"
        scratch_registry(
            Experiment(
                f"never-{jobs}", "must not run", _flaky_file,
                kwargs={"path": str(marker)},
            )
        )
        with pytest.raises(ValueError, match="retries must be >= 0"):
            run_all(names=[f"never-{jobs}"], jobs=jobs, retries=-1)
        assert not marker.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_cli_negative_retries_is_one_error_line(self, jobs, capsys):
        argv = ["run-all", "topology", "--no-reports", "--jobs", jobs]
        assert main(argv + ["--retries", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: retries must be >= 0\n"

    # (succeed_on, retries) -> (ok, error, attempts, output, event types)
    SCENARIOS = {
        "always-raises": (
            99, 0,
            (False, "RuntimeError: transient", 1, ""),
            ["run_queued", "worker_started", "failed"],
        ),
        "fails-once": (
            2, 1,
            (True, None, 2, "file flaky ok"),
            ["run_queued", "worker_started", "retry", "worker_started",
             "completed"],
        ),
        "retries-exhausted": (
            3, 1,
            (False, "RuntimeError: transient", 2, ""),
            ["run_queued", "worker_started", "retry", "worker_started",
             "failed"],
        ),
    }

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_inline_and_pool_agree(
        self, jobs, scenario, scratch_registry, tmp_path
    ):
        from repro.monitor.telemetry import FleetTelemetry, validate_telemetry

        succeed_on, retries, expected, types = self.SCENARIOS[scenario]
        name = f"parity-{scenario}-{jobs}"
        scratch_registry(
            Experiment(
                name, "file-marker flaky", _flaky_file,
                kwargs={"path": str(tmp_path / "n"), "succeed_on": succeed_on},
            )
        )
        events = []
        (result,) = run_all(
            names=[name], jobs=jobs, retries=retries, retry_backoff_s=0.01,
            telemetry=FleetTelemetry(on_event=events.append, heartbeat_s=0.05),
        )
        assert (result.ok, result.error, result.attempts, result.output) == (
            expected
        )
        validate_telemetry(events)
        assert [e["type"] for e in events if e["type"] != "heartbeat"] == types
        for retry in (e for e in events if e["type"] == "retry"):
            assert set(retry) == {
                "v", "type", "experiment", "config_hash", "t_wall", "attempt",
                "error", "next_attempt", "backoff_s", "last_known",
            }
            assert retry["error"] == "RuntimeError: transient"
            assert (retry["attempt"], retry["next_attempt"]) == (1, 2)
            assert retry["backoff_s"] == 0.01
        (started, *_) = [e for e in events if e["type"] == "worker_started"]
        if jobs == 1:
            assert started["inline"] is True and "pid" not in started
        else:
            assert started["pid"] > 0 and "inline" not in started


class TestInlineHeartbeats:
    def test_inline_attempt_streams_heartbeats(self, scratch_registry):
        """At ``jobs=1`` the in-process attempt beats like a worker: a
        hello beat, then engine pulses, all between its start and its
        completion."""
        from repro.monitor.telemetry import FleetTelemetry, validate_telemetry

        scratch_registry(Experiment("inline-beats", "engine work", _engine_work))
        events = []
        (result,) = run_all(
            names=["inline-beats"], jobs=1,
            telemetry=FleetTelemetry(on_event=events.append, heartbeat_s=0.0),
        )
        assert result.ok and result.output == "20000 events"
        validate_telemetry(events)
        types = [e["type"] for e in events]
        assert types[:2] == ["run_queued", "worker_started"]
        assert types[-1] == "completed"
        beats = [e for e in events if e["type"] == "heartbeat"]
        assert len(beats) == len(types) - 3 >= 2
        assert all(e["attempt"] == 1 for e in beats)
        assert beats[0]["events_processed"] == 0
        assert beats[-1]["events_processed"] > 0

