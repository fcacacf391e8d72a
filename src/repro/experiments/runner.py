"""The experiment registry, result cache, and parallel driver.

Every artifact the reproduction can produce — the topology figures, the
six tables, the studies and ablations — is registered here as a named
:class:`Experiment`.  ``python -m repro run-all`` drives the registry:

* independent experiments fan out across worker processes
  (``--jobs N``);
* results are memoized on disk (``--cached``) keyed by a stable hash
  of (experiment name, arguments, machine configuration, cache
  version), so re-running with an unchanged configuration replays from
  the cache instead of re-simulating.

The cache key uses :meth:`~repro.core.config.CedarConfig.stable_hash`
— a cross-process content hash — **not** Python's salted ``hash()``,
so cache entries are valid across interpreter sessions.

Hardening
---------

``run_all`` is built for partial results: each experiment runs in its
own worker process (plain ``multiprocessing.Process``, not a shared
pool, so one worker's death cannot poison the others), an optional
per-experiment wall-clock ``timeout_s`` terminates runaways, failures
retry up to ``retries`` times with exponential backoff, and whatever
happens every selected experiment comes back as an
:class:`ExperimentResult` — failed ones carry ``error`` instead of
output.

Cache entries live in the sharded, crash-safe
:class:`~repro.store.ResultStore` (fsync-before-rename commits, unique
per-writer temp files, advisory per-entry locks), so any number of
``run-all --jobs N`` processes can share one cache directory.  Every
read re-verifies the entry's payload checksum; corrupt or truncated
entries are quarantined with a warning and recomputed, never served
and never a crash.
"""

from __future__ import annotations

import json
import multiprocessing
import time
import warnings
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.core.config import CedarConfig, DEFAULT_CONFIG

#: bump when renderer output formats change, invalidating old entries.
#: v6: entries live in the sharded crash-safe result store
#: (:mod:`repro.store`).
#: v7: stored run reports are version 5 (no wall-clock fields), so an
#: old entry can never replay wall time into ``.repro-reports``.
CACHE_VERSION = 7

#: default on-disk cache location (repo-/cwd-relative).
DEFAULT_CACHE_DIR = ".repro-cache"


# ---------------------------------------------------------------------------
# experiment execution functions (module-level: picklable for worker
# processes; imports deferred so the registry itself imports instantly)


def _exp_topology() -> str:
    from repro.experiments.fig1 import render_fig1

    return render_fig1()


def _exp_table1(a_strips: int = 2) -> str:
    from repro.experiments.table1 import render_table1, run_table1

    return render_table1(run_table1(a_strips=a_strips))


def _exp_table2(strips: int = 10) -> str:
    from repro.experiments.table2 import render_table2, run_table2

    return render_table2(run_table2(strips=strips))


def _exp_table3() -> str:
    from repro.experiments.table3 import render_table3, run_table3

    return render_table3(run_table3())


def _exp_table4() -> str:
    from repro.experiments.table4 import render_table4, run_table4

    return render_table4(run_table4())


def _exp_table5() -> str:
    from repro.experiments.table5 import render_table5, run_table5

    return render_table5(run_table5())


def _exp_table6() -> str:
    from repro.experiments.table6 import render_table6, run_table6

    return render_table6(run_table6())


def _exp_fig3() -> str:
    from repro.experiments.fig3 import render_fig3, run_fig3

    return render_fig3(run_fig3())


def _exp_ppt4() -> str:
    from repro.experiments.ppt4 import render_ppt4, run_ppt4

    return render_ppt4(run_ppt4())


def _exp_overheads() -> str:
    from repro.experiments.overheads import render_overheads, run_overheads

    return render_overheads(run_overheads())


def _exp_characterization() -> str:
    from repro.experiments.characterization import (
        render_characterization,
        run_characterization,
    )

    return render_characterization(run_characterization())


def _exp_scaling() -> str:
    from repro.experiments.scaling import render_scaling, run_scaling_study

    return render_scaling(run_scaling_study())


def _exp_permutations(rounds: int = 16) -> str:
    from repro.experiments.permutations import (
        render_permutations,
        run_permutation_study,
    )

    return render_permutations(run_permutation_study(rounds=rounds))


def _exp_multiprogramming() -> str:
    from repro.experiments.multiprogramming import (
        render_multiprogramming,
        run_multiprogramming_study,
    )

    return render_multiprogramming(run_multiprogramming_study())


def _exp_ablation_network(n_ces: int = 32) -> str:
    from repro.experiments.ablations import ablate_shared_network, render_ablation

    return render_ablation(
        "Ablation: one shared network vs Cedar's two",
        ablate_shared_network(n_ces=n_ces),
    )


def _exp_ablation_memory(n_ces: int = 32) -> str:
    from repro.experiments.ablations import ablate_memory_recovery, render_ablation

    return render_ablation(
        "Ablation: memory-module recovery time",
        ablate_memory_recovery(n_ces=n_ces),
    )


def _exp_degradation(
    seed: int = 2024, strips: int = 6, rounds: int = 24
) -> str:
    from repro.experiments.degradation import render_degradation, run_degradation

    return render_degradation(
        run_degradation(seed=seed, strips=strips, rounds=rounds)
    )


def _exp_soak(
    requests: int = 1_000_000, seed: int = 7, stream: bool = True
) -> str:
    from repro.experiments.soak import render_soak, run_soak

    return render_soak(run_soak(requests=requests, seed=seed, stream=stream))


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Experiment:
    """One registered artifact generator."""

    name: str
    title: str
    runner: Callable[..., str]
    kwargs: Dict[str, object] = field(default_factory=dict)
    #: overrides applied in ``--fast`` (smoke-size) mode.
    fast_kwargs: Optional[Dict[str, object]] = None

    def arguments(self, fast: bool = False) -> Dict[str, object]:
        if fast and self.fast_kwargs is not None:
            return {**self.kwargs, **self.fast_kwargs}
        return dict(self.kwargs)


REGISTRY: Dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    if experiment.name in REGISTRY:
        raise ValueError(f"experiment {experiment.name!r} already registered")
    REGISTRY[experiment.name] = experiment
    return experiment


def experiment(name: str) -> Experiment:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no experiment {name!r}; have {', '.join(REGISTRY)}"
        ) from None


def experiment_names() -> List[str]:
    return list(REGISTRY)


register(Experiment("topology", "Figures 1-2: machine organization", _exp_topology))
register(
    Experiment(
        "table1",
        "Table 1: SAXPY memory hierarchy",
        _exp_table1,
        kwargs={"a_strips": 2},
        fast_kwargs={"a_strips": 1},
    )
)
register(
    Experiment(
        "table2",
        "Table 2: prefetch latency/interarrival",
        _exp_table2,
        kwargs={"strips": 10},
        fast_kwargs={"strips": 6},
    )
)
register(Experiment("table3", "Table 3: loop-scheduling costs", _exp_table3))
register(Experiment("table4", "Table 4: application optimizations", _exp_table4))
register(Experiment("table5", "Table 5: application performance", _exp_table5))
register(Experiment("table6", "Table 6: perfect-club summary", _exp_table6))
register(Experiment("fig3", "Figure 3: efficiency scatter", _exp_fig3))
register(Experiment("ppt4", "Section 4.4: scalability study", _exp_ppt4))
register(Experiment("overheads", "Section 3.2: runtime costs", _exp_overheads))
register(
    Experiment(
        "characterization", "Section 4.1: memory anchors", _exp_characterization
    )
)
register(Experiment("scaling", "Perfect-code scaling curves", _exp_scaling))
register(
    Experiment(
        "permutations",
        "Omega-network permutation study",
        _exp_permutations,
        kwargs={"rounds": 16},
        fast_kwargs={"rounds": 4},
    )
)
register(
    Experiment(
        "multiprogramming",
        "Single-user-mode justification",
        _exp_multiprogramming,
    )
)
register(
    Experiment(
        "ablation-network",
        "Ablation: shared vs dual networks",
        _exp_ablation_network,
        kwargs={"n_ces": 32},
        fast_kwargs={"n_ces": 8},
    )
)
register(
    Experiment(
        "ablation-memory",
        "Ablation: module recovery time",
        _exp_ablation_memory,
        kwargs={"n_ces": 32},
        fast_kwargs={"n_ces": 8},
    )
)
register(
    Experiment(
        "degradation",
        "Robustness: performance vs fault rate",
        _exp_degradation,
        kwargs={"seed": 2024, "strips": 6, "rounds": 24},
        fast_kwargs={"strips": 3, "rounds": 8},
    )
)
register(
    Experiment(
        "soak",
        "Soak: open-loop flood under streaming observability",
        _exp_soak,
        kwargs={"requests": 1_000_000, "seed": 7, "stream": True},
        fast_kwargs={"requests": 5_000},
    )
)


# ---------------------------------------------------------------------------
# cache


def cache_key(
    name: str,
    kwargs: Dict[str, object],
    config: CedarConfig = DEFAULT_CONFIG,
    stream: bool = False,
    timeline: Optional[float] = None,
) -> str:
    """Stable cache key: experiment identity + arguments + machine config
    (and :data:`CACHE_VERSION`)."""
    import hashlib

    material = {
        "version": CACHE_VERSION,
        "experiment": name,
        "kwargs": kwargs,
        "config": config.stable_hash(),
        # streaming report collection changes the stored report's
        # shape, so streamed and buffered entries must not collide
        "stream": stream,
    }
    # timeline collection adds per-machine sections to the stored
    # report; the key only materializes when sampling is on, so every
    # key written before timelines existed stays addressable bit for
    # bit (no cache-version bump, no stampede of recomputes).
    if timeline:
        material["timeline"] = timeline
    payload = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _store(cache_dir: Path):
    from repro.store.core import ResultStore

    return ResultStore(Path(cache_dir))


@dataclass(frozen=True)
class CacheHit:
    """A served cache entry plus where/how it was served — what the
    ``cache_hit`` telemetry event reports."""

    entry: Dict
    #: shard directory (key prefix) the entry was served from.
    shard: str
    #: the entry's payload checksum was present and matched on read.
    verified: bool


def _entry_shape_ok(entry: Dict, key: str, where: object) -> bool:
    """The runner-level shape checks (the store already guarantees the
    bytes are whole; this guards against a sound document holding the
    wrong kind of value)."""
    if not isinstance(entry, dict):
        warnings.warn(f"corrupt cache entry {where}: not an object; recomputing")
        return False
    if entry.get("key") != key:
        return False  # stale entry for another config: ordinary miss
    output = entry.get("output")
    if output is not None and not isinstance(output, str):
        warnings.warn(f"corrupt cache entry {where}: bad output field; recomputing")
        return False
    report = entry.get("report")
    if report is not None and not isinstance(report, dict):
        warnings.warn(f"corrupt cache entry {where}: bad report field; recomputing")
        return False
    return True


def cache_lookup(cache_dir: Path, name: str, key: str) -> Optional[CacheHit]:
    """Look ``key`` up in the sharded store; ``None`` on any miss.

    Corruption at any layer (torn bytes, checksum mismatch, wrong
    shape) is a warning and a miss — the store quarantines the bad
    entry and the caller recomputes; nothing here ever crashes a run.
    """
    store = _store(cache_dir)
    entry = store.get(key)
    if entry is not None and _entry_shape_ok(entry, key, store.entry_path(key)):
        return CacheHit(entry, shard=key[:2], verified=True)
    return None


def cache_store(
    cache_dir: Path,
    name: str,
    key: str,
    output: str,
    report: Optional[Dict] = None,
) -> None:
    """Durably commit one cache entry through the sharded store
    (unique per-writer temp file, fsync-before-rename, advisory entry
    lock, directory fsync — see :class:`repro.store.ResultStore`).

    A cache-write failure (disk full, permissions) is a warning, never
    a failed experiment: the result simply stays uncached.
    """
    entry = {
        "key": key,
        "experiment": name,
        "output": output,
        "cache_version": CACHE_VERSION,
    }
    if report is not None:
        entry["report"] = report
    try:
        _store(cache_dir).put(key, entry)
    except OSError as exc:
        warnings.warn(f"cache store failed for {name}: {exc}; result not cached")


# ---------------------------------------------------------------------------
# driver


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    title: str
    output: str
    elapsed_s: float
    cached: bool
    #: RunReport dict when the run collected observability data.
    report: Optional[Dict] = None
    #: one-line failure description ("Type: message", "timeout after Ns",
    #: "worker crashed (exit N)"); None on success.
    error: Optional[str] = None
    #: how many attempts this result took (1 = first try).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None


def clear_memoized_runs() -> None:
    """Clear every in-process experiment memo — the kernel-simulation
    memo plus each experiment's own ``lru_cache`` — so the next run
    really builds machines.  Instrumentation observes nothing on a memo
    replay, which is why :func:`observe` clears on entry.  All the
    caches are pure run memos, so clearing only costs recompute time.
    """
    import sys

    for name, module in list(sys.modules.items()):
        if not name.startswith("repro."):
            continue
        for attr in list(vars(module).values()):
            clear = getattr(attr, "cache_clear", None)
            if callable(clear) and getattr(attr, "__module__", None) == name:
                clear()


@contextmanager
def observe(
    *observers: Callable[[object], Optional[Callable[[], None]]],
) -> Iterator[None]:
    """Run the block with ``observers`` watching every machine it builds.

    The software form of Cedar's clip-on performance monitors.  Each
    observer is called with every
    :class:`~repro.core.context.SimContext` built inside the block,
    before the machine is assembled, and may return an undo callable
    that detaches what it armed.  Entering clears the run memos (a memo
    replay builds no machines, so there would be nothing to observe);
    leaving, normally or by exception, deregisters the hook and runs
    every undo, newest first::

        collector = ReportCollector()
        with observe(collector):
            output = experiment.runner(**kwargs)
        machines = collector.machine_dicts()
    """
    from repro.core.context import add_context_observer, remove_context_observer

    undos: List[Callable[[], None]] = []

    def _each_machine(ctx) -> None:
        for observer in observers:
            undo = observer(ctx)
            if undo is not None:
                undos.append(undo)

    clear_memoized_runs()
    add_context_observer(_each_machine)
    try:
        yield
    finally:
        remove_context_observer(_each_machine)
        for undo in reversed(undos):
            undo()


def _execute_with_report(
    name: str,
    kwargs: Dict[str, object],
    stream: bool = False,
    timeline: Optional[float] = None,
) -> tuple:
    """Run one experiment under a :class:`ReportCollector`: returns
    ``(output, machine_dicts)``.  The run goes through :func:`observe`,
    so a worker's warm memo entries from an earlier experiment cannot
    hide machines from the collector.  ``stream`` selects
    bounded-memory streaming span collection (sketch-backed latency
    summaries) instead of the buffered collector; ``timeline`` (an
    interval in simulated cycles) adds interval-sampled metric
    timelines to each machine record."""
    from repro.monitor.report import ReportCollector

    collector = ReportCollector(stream=stream, timeline=timeline)
    with observe(collector):
        output = REGISTRY[name].runner(**kwargs)
    return output, collector.machine_dicts()


def _build_report(
    name: str, kwargs: Dict[str, object], machines: List[Dict]
) -> Dict:
    from repro.monitor.report import RunReport

    return RunReport(
        experiment=name,
        title=REGISTRY[name].title,
        kwargs=dict(kwargs),
        machines=machines,
    ).to_dict()


def _compute(
    name: str,
    kwargs: Dict[str, object],
    collect_report: bool,
    stream: bool = False,
    timeline: Optional[float] = None,
) -> tuple:
    """Run one experiment: ``(output, report dict or None, elapsed_s)``.

    The worker entry point and the in-process paths alike.  Elapsed
    time covers the run and its report, measured where the run happens,
    so it never charges an experiment for time spent queued or for
    worker start-up; it feeds run-all's headers and telemetry, never
    the report."""
    start = time.perf_counter()
    if collect_report:
        output, machines = _execute_with_report(
            name, kwargs, stream=stream, timeline=timeline
        )
        report = _build_report(name, kwargs, machines)
    else:
        output, report = REGISTRY[name].runner(**kwargs), None
    return output, report, time.perf_counter() - start


def _computed(
    name: str, key: str, payload: tuple, cache_dir: Optional[Path], attempts: int = 1
) -> ExperimentResult:
    """Commit one :func:`_compute` payload to the cache (when there is
    one) and wrap it as the experiment's fresh result."""
    output, report, elapsed = payload
    if cache_dir is not None:
        cache_store(cache_dir, name, key, output, report=report)
    return ExperimentResult(
        name,
        REGISTRY[name].title,
        output,
        elapsed,
        cached=False,
        report=report,
        attempts=attempts,
    )


def run_experiment(
    name: str,
    fast: bool = False,
    cache_dir: Optional[Path] = None,
    config: CedarConfig = DEFAULT_CONFIG,
    collect_report: bool = False,
    stream: bool = False,
    timeline: Optional[float] = None,
) -> ExperimentResult:
    """Run (or replay from cache) a single registered experiment.

    ``stream`` (with ``collect_report``) collects the per-machine
    latency summary through the bounded-memory streaming store;
    ``timeline`` (an interval in simulated cycles, with
    ``collect_report``) adds interval-sampled metric timelines to each
    machine record.  Both are part of the cache key, so instrumented
    and bare entries never collide.
    """
    exp = experiment(name)
    kwargs = exp.arguments(fast)
    key = cache_key(name, kwargs, config, stream=stream, timeline=timeline)
    if cache_dir is not None:
        hit = cache_lookup(cache_dir, name, key)
        if hit is not None and hit.entry.get("output") is not None:
            report = hit.entry.get("report") if collect_report else None
            if not collect_report or report is not None:
                return ExperimentResult(
                    name, exp.title, hit.entry["output"], 0.0, cached=True,
                    report=report,
                )
            # cached output but no stored report: fall through and re-run
    return _computed(
        name,
        key,
        _compute(name, kwargs, collect_report, stream=stream, timeline=timeline),
        cache_dir,
    )


def _subprocess_main(
    conn,
    name: str,
    kwargs: Dict,
    collect_report: bool,
    stream: bool = False,
    heartbeat_s: Optional[float] = None,
) -> None:
    """Worker-process entry point: run one experiment, ship the outcome
    back over ``conn``.  Every failure becomes an ``("error", reason)``
    message; only a hard crash (segfault, kill) leaves the pipe silent,
    which the manager detects as worker death.

    With ``heartbeat_s`` set the run is observed by a
    :class:`HeartbeatEmitter`: every engine the experiment builds
    pulses cumulative self-metrics back as ``("hb", payload)``
    messages, interleaved ahead of the final outcome, at most one per
    ``heartbeat_s`` wall seconds.  A hello beat goes out before the run
    so the parent can tell "worker alive, simulation not started" from
    a dead pipe."""
    emitter = None
    if heartbeat_s is not None:
        from repro.monitor.telemetry import HeartbeatEmitter

        emitter = HeartbeatEmitter(conn.send, min_interval_s=heartbeat_s)
        emitter.beat()
    try:
        with observe(emitter) if emitter is not None else nullcontext():
            payload = _compute(name, kwargs, collect_report, stream=stream)
        conn.send(("ok", payload))
    except BaseException as exc:  # noqa: BLE001 - isolate *any* worker failure
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


def _mp_context():
    """Fork where available (cheap workers, warm imports); the platform
    default elsewhere — ``_subprocess_main`` and its arguments are
    picklable either way."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


@dataclass
class _Attempt:
    """One in-flight worker: process + pipe + deadline bookkeeping."""

    name: str
    attempt: int
    process: multiprocessing.Process
    conn: object
    kwargs: Dict
    started: float
    deadline: Optional[float]
    #: heartbeat bookkeeping (telemetry runs only): wall time of the
    #: last beat, wall time of the last beat that showed *progress*
    #: (more events processed than any earlier beat), beat count, and
    #: the last payload — what retry/stall messages report.
    last_beat: Optional[float] = None
    last_progress: Optional[float] = None
    beats: int = 0
    events_seen: int = -1
    progress: Optional[Dict] = None

    def progress_note(self) -> str:
        """Last-known progress, for stall and retry annotations."""
        if self.progress is None:
            return "no heartbeat received"
        return (
            f"last heartbeat: {self.progress.get('events_processed', 0)} "
            f"events, {self.progress.get('sim_cycles', 0.0):.0f} cycles, "
            f"{self.progress.get('events_per_sec', 0.0):g} ev/s"
        )


def _run_isolated(
    misses: List[str],
    jobs: int,
    fast: bool,
    cache_dir: Optional[Path],
    config: CedarConfig,
    collect_reports: bool,
    timeout_s: Optional[float],
    retries: int,
    retry_backoff_s: float,
    stream: bool = False,
    emit=None,
    heartbeat_s: Optional[float] = None,
) -> Dict[str, ExperimentResult]:
    """Run ``misses`` in per-experiment worker processes.

    Up to ``jobs`` workers run at once; each failure (exception,
    timeout, crash) is retried with exponential backoff until its
    attempts are exhausted, then recorded as a failed result.  One
    worker's fate never affects another's.

    ``emit`` (a ``FleetTelemetry``-style callback taking ``(type,
    name, attempt=..., **extra)``) receives every lifecycle
    transition.  With ``heartbeat_s`` set, workers beat engine
    self-metrics over their pipes and ``timeout_s`` changes meaning:
    instead of a flat wall-clock deadline it becomes a **stall
    budget** — a worker is killed only after ``timeout_s`` seconds
    without a heartbeat showing forward progress, so slow-but-alive
    workers run on while hung ones die fast.
    """
    ctx = _mp_context()
    results: Dict[str, ExperimentResult] = {}
    #: (name, attempt, not_before) — attempts awaiting a worker slot.
    pending: deque = deque((name, 1, 0.0) for name in misses)
    running: Dict[object, _Attempt] = {}

    def _spawn(name: str, attempt: int) -> None:
        kwargs = REGISTRY[name].arguments(fast)
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_subprocess_main,
            args=(send_conn, name, kwargs, collect_reports, stream, heartbeat_s),
        )
        process.start()
        send_conn.close()  # manager keeps only the read end
        now = time.perf_counter()
        running[recv_conn] = _Attempt(
            name=name,
            attempt=attempt,
            process=process,
            conn=recv_conn,
            kwargs=kwargs,
            started=now,
            deadline=(now + timeout_s) if timeout_s is not None else None,
        )
        if emit is not None:
            emit("worker_started", name, attempt=attempt, pid=process.pid)

    def _beat(attempt: _Attempt, payload: Dict) -> None:
        now = time.perf_counter()
        attempt.beats += 1
        attempt.last_beat = now
        events = payload.get("events_processed", 0)
        if events > attempt.events_seen:
            attempt.events_seen = events
            attempt.last_progress = now
        attempt.progress = payload
        if emit is not None:
            emit("heartbeat", attempt.name, attempt=attempt.attempt, **payload)

    def _settle(attempt: _Attempt, error: str) -> None:
        """Record a failed attempt: retry with backoff or final failure."""
        if attempt.attempt <= retries:
            delay = retry_backoff_s * (2 ** (attempt.attempt - 1))
            pending.append(
                (attempt.name, attempt.attempt + 1, time.perf_counter() + delay)
            )
            if emit is not None:
                emit(
                    "retry",
                    attempt.name,
                    attempt=attempt.attempt,
                    error=error,
                    next_attempt=attempt.attempt + 1,
                    backoff_s=delay,
                    last_known=attempt.progress_note(),
                )
            return
        results[attempt.name] = ExperimentResult(
            attempt.name,
            REGISTRY[attempt.name].title,
            "",
            time.perf_counter() - attempt.started,
            cached=False,
            error=error,
            attempts=attempt.attempt,
        )
        if emit is not None:
            emit(
                "failed",
                attempt.name,
                attempt=attempt.attempt,
                error=error,
            )

    def _succeed(attempt: _Attempt, payload) -> None:
        key = cache_key(attempt.name, attempt.kwargs, config, stream=stream)
        result = results[attempt.name] = _computed(
            attempt.name, key, payload, cache_dir, attempt.attempt
        )
        if emit is not None:
            emit(
                "completed",
                attempt.name,
                attempt=attempt.attempt,
                elapsed_s=round(result.elapsed_s, 3),
                cached=False,
            )

    def _reap(attempt: _Attempt, error: str) -> None:
        process = attempt.process
        if process.is_alive():
            process.terminate()
        process.join()
        attempt.conn.close()
        del running[attempt.conn]
        _settle(attempt, error)

    while pending or running:
        # fill free worker slots with attempts whose backoff has elapsed
        now = time.perf_counter()
        deferred = []
        while pending and len(running) < max(1, jobs):
            name, attempt_no, not_before = pending.popleft()
            if not_before > now:
                deferred.append((name, attempt_no, not_before))
                continue
            _spawn(name, attempt_no)
        pending.extend(deferred)

        if not running:
            # everything pending is backing off: sleep to the earliest
            wake = min(entry[2] for entry in pending)
            time.sleep(max(0.0, wake - time.perf_counter()))
            continue

        for conn in _conn_wait(list(running), timeout=0.05):
            attempt = running[conn]
            try:
                status, payload = conn.recv()
            except (EOFError, OSError):
                # pipe closed with no message: the worker died hard
                attempt.process.join()
                code = attempt.process.exitcode
                conn.close()
                del running[conn]
                _settle(attempt, f"worker crashed (exit {code})")
                continue
            if status == "hb":
                # heartbeat: bookkeeping only, the worker stays running
                _beat(attempt, payload)
                continue
            attempt.process.join()
            conn.close()
            del running[conn]
            if status == "ok":
                _succeed(attempt, payload)
            else:
                _settle(attempt, payload)

        if timeout_s is not None:
            now = time.perf_counter()
            if heartbeat_s is not None:
                # stall budget: a worker dies only after timeout_s with
                # no heartbeat *progress* (silence, or beats whose event
                # count has frozen) — slow-but-beating workers live on.
                for attempt in [
                    a
                    for a in running.values()
                    if now - (a.last_progress or a.started) > timeout_s
                ]:
                    _reap(
                        attempt,
                        f"stalled: no heartbeat progress for {timeout_s:g}s "
                        f"({attempt.progress_note()})",
                    )
            else:
                # telemetry off: the original flat wall-clock deadline
                for attempt in [
                    a
                    for a in running.values()
                    if a.deadline is not None and now > a.deadline
                ]:
                    _reap(attempt, f"timeout after {timeout_s:g}s")

    return results


def _run_inline(
    misses: List[str],
    fast: bool,
    cache_dir: Optional[Path],
    config: CedarConfig,
    collect_reports: bool,
    retries: int,
    retry_backoff_s: float,
    stream: bool = False,
    emit=None,
) -> Dict[str, ExperimentResult]:
    """Single-process path (no timeout enforcement or heartbeats, but
    the same failure isolation, retry policy, and lifecycle telemetry
    as the worker path)."""
    results: Dict[str, ExperimentResult] = {}
    for name in misses:
        for attempt in range(1, retries + 2):
            start = time.perf_counter()
            if emit is not None:
                emit("worker_started", name, attempt=attempt, inline=True)
            try:
                kwargs = REGISTRY[name].arguments(fast)
                result = results[name] = _computed(
                    name,
                    cache_key(name, kwargs, config, stream=stream),
                    _compute(name, kwargs, collect_reports, stream=stream),
                    cache_dir,
                    attempt,
                )
                if emit is not None:
                    emit(
                        "completed",
                        name,
                        attempt=attempt,
                        elapsed_s=round(result.elapsed_s, 3),
                        cached=False,
                    )
                break
            except Exception as exc:  # noqa: BLE001 - isolate each artifact
                error = f"{type(exc).__name__}: {exc}"
                if attempt <= retries:
                    delay = retry_backoff_s * (2 ** (attempt - 1))
                    if emit is not None:
                        emit(
                            "retry",
                            name,
                            attempt=attempt,
                            error=error,
                            next_attempt=attempt + 1,
                            backoff_s=delay,
                        )
                    time.sleep(delay)
                    continue
                results[name] = ExperimentResult(
                    name,
                    REGISTRY[name].title,
                    "",
                    time.perf_counter() - start,
                    cached=False,
                    error=error,
                    attempts=attempt,
                )
                if emit is not None:
                    emit("failed", name, attempt=attempt, error=error)
    return results


def run_all(
    names: Optional[Iterable[str]] = None,
    jobs: int = 1,
    fast: bool = False,
    cache_dir: Optional[Path] = None,
    config: CedarConfig = DEFAULT_CONFIG,
    collect_reports: bool = False,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    retry_backoff_s: float = 0.25,
    stream: bool = False,
    telemetry=None,
) -> List[ExperimentResult]:
    """Run a set of experiments (default: every registered one).

    Cache hits are resolved in-process; the misses fan out across up to
    ``jobs`` worker processes (one process per experiment — a crash is
    contained to its artifact).  ``timeout_s`` bounds each experiment's
    wall clock (the worker is terminated past it; requires the worker
    path, so it forces process isolation even at ``jobs=1``), and each
    failure retries up to ``retries`` times with exponential backoff
    starting at ``retry_backoff_s``.

    ``telemetry`` (a :class:`~repro.monitor.telemetry.FleetTelemetry`)
    turns on fleet telemetry: every lifecycle transition is emitted as
    a schema-valid event (JSONL sink and/or in-process listener), and
    isolated workers heartbeat engine self-metrics over their pipes at
    ``telemetry.heartbeat_s``.  With heartbeats flowing, ``timeout_s``
    becomes a **no-heartbeat stall budget** — a worker making visible
    progress is never killed for being slow; a silent one dies after
    ``timeout_s`` seconds without progress.  With telemetry off the
    flat wall-clock timeout behaves exactly as before.

    Results come back in registry order regardless of completion order;
    failed experiments are *included*, with
    :attr:`ExperimentResult.error` set and empty output — callers get
    partial results, never an exception for one bad artifact.  With
    ``collect_reports`` every non-cached run is instrumented and its
    :class:`ExperimentResult` carries a RunReport dict (cache hits
    replay a stored report when the entry has one; entries without one
    are re-run).
    """
    selected = list(names) if names is not None else experiment_names()
    for name in selected:
        experiment(name)  # validate up front

    emit = telemetry.event if telemetry is not None else None
    heartbeat_s = telemetry.heartbeat_s if telemetry is not None else None

    results: Dict[str, ExperimentResult] = {}
    misses: List[str] = []
    for name in selected:
        exp = REGISTRY[name]
        kwargs = exp.arguments(fast)
        key = cache_key(name, kwargs, config, stream=stream)
        hit = cache_lookup(cache_dir, name, key) if cache_dir is not None else None
        output = hit.entry.get("output") if hit is not None else None
        report = hit.entry.get("report") if hit is not None else None
        if output is not None and (not collect_reports or report is not None):
            results[name] = ExperimentResult(
                name,
                exp.title,
                output,
                0.0,
                cached=True,
                report=report if collect_reports else None,
            )
            if emit is not None:
                emit(
                    "cache_hit",
                    name,
                    key=key[:16],
                    shard=hit.shard,
                    verified=hit.verified,
                )
        else:
            misses.append(name)
            if emit is not None:
                emit("run_queued", name)

    if misses:
        if jobs > 1 or timeout_s is not None:
            results.update(
                _run_isolated(
                    misses,
                    jobs,
                    fast,
                    cache_dir,
                    config,
                    collect_reports,
                    timeout_s,
                    retries,
                    retry_backoff_s,
                    stream=stream,
                    emit=emit,
                    heartbeat_s=heartbeat_s,
                )
            )
        else:
            results.update(
                _run_inline(
                    misses,
                    fast,
                    cache_dir,
                    config,
                    collect_reports,
                    retries,
                    retry_backoff_s,
                    stream=stream,
                    emit=emit,
                )
            )

    return [results[name] for name in selected]


def render_all(results: List[ExperimentResult]) -> str:
    """Join experiment outputs the way ``python -m repro all`` always
    has; failed experiments contribute a one-line failure marker."""
    parts = []
    for result in results:
        if result.ok:
            parts.append(result.output)
        else:
            parts.append(f"[{result.name} FAILED: {result.error}]")
    return "\n\n".join(parts)
