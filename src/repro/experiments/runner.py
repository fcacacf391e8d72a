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

``run_all`` is built for partial results.  One scheduler drives every
cache miss: at ``jobs=1`` each attempt runs in-process; otherwise each
runs in its own worker process (plain ``multiprocessing.Process``, not
a shared pool, so one worker's death cannot poison the others), and an
optional per-experiment wall-clock ``timeout_s`` terminates runaways.
On both paths failures retry up to ``retries`` times with exponential
backoff, and whatever happens every selected experiment comes back as
an :class:`ExperimentResult` — failed ones carry ``error`` instead of
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
        # a retired report mode keyed here; False keeps stored keys valid
        "stream": False,
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


def _silent(*args, **fields) -> None:
    """The event callback of a run without telemetry."""


def _compute(
    name: str,
    kwargs: Dict[str, object],
    collect_report: bool,
    timeline: Optional[float] = None,
) -> tuple:
    """Run one experiment: ``(output, report dict or None, elapsed_s)``.

    With ``collect_report`` the run goes through :func:`observe` under a
    :class:`ReportCollector`, so warm memo entries from an earlier
    experiment cannot hide machines from it, and ``timeline`` (an
    interval in simulated cycles) adds interval-sampled metric
    timelines to each machine record.

    Elapsed time covers the run and its report, measured where the run
    happens, so it never charges an experiment for time spent queued or
    for worker start-up; it feeds run-all's headers and telemetry,
    never the report."""
    start = time.perf_counter()
    exp = REGISTRY[name]
    if not collect_report:
        return exp.runner(**kwargs), None, time.perf_counter() - start
    from repro.monitor.report import ReportCollector, RunReport

    collector = ReportCollector(timeline=timeline)
    with observe(collector):
        output = exp.runner(**kwargs)
    machines = collector.machine_dicts()
    # the collector holds every machine, registry and folded span part
    # it saw, and the last machine's buffer: let them go before the
    # report is serialized on top of them
    del collector
    report = RunReport(
        experiment=name, title=exp.title, kwargs=dict(kwargs), machines=machines
    ).to_dict()
    return output, report, time.perf_counter() - start


def _outcome(name: str, kwargs: Dict[str, object], collect_report: bool) -> tuple:
    """One try at one experiment: ``("ok", payload)`` with the
    :func:`_compute` payload, or ``("error", "Type: message")``.  A
    worker sends this over its pipe; the inline path calls it
    in-process."""
    try:
        return "ok", _compute(name, kwargs, collect_report)
    except Exception as exc:  # noqa: BLE001 - isolate each artifact
        return "error", f"{type(exc).__name__}: {exc}"


def _replay(
    name: str,
    key: str,
    cache_dir: Optional[Path],
    collect_report: bool,
    emit: Callable = _silent,
) -> Optional[ExperimentResult]:
    """The cached result for ``key`` (emitting ``cache_hit``), or
    ``None`` when the experiment must run: no cache, no usable entry,
    or an entry without the stored report a report-collecting run
    needs."""
    if cache_dir is None:
        return None
    hit = cache_lookup(cache_dir, name, key)
    if hit is None or hit.entry.get("output") is None:
        return None
    report = hit.entry.get("report") if collect_report else None
    if collect_report and report is None:
        return None
    emit("cache_hit", name, key=key[:16], shard=hit.shard, verified=hit.verified)
    return ExperimentResult(
        name, REGISTRY[name].title, hit.entry["output"], 0.0, cached=True,
        report=report,
    )


def _succeed(
    name: str,
    key: str,
    payload: tuple,
    cache_dir: Optional[Path],
    attempt: int = 1,
    emit: Callable = _silent,
) -> ExperimentResult:
    """Commit one :func:`_compute` payload to the cache (when there is
    one), emit ``completed`` and wrap it as the experiment's fresh
    result."""
    output, report, elapsed = payload
    if cache_dir is not None:
        cache_store(cache_dir, name, key, output, report=report)
    emit("completed", name, attempt=attempt, elapsed_s=round(elapsed, 3), cached=False)
    return ExperimentResult(
        name,
        REGISTRY[name].title,
        output,
        elapsed,
        cached=False,
        report=report,
        attempts=attempt,
    )


def run_experiment(
    name: str,
    fast: bool = False,
    cache_dir: Optional[Path] = None,
    collect_report: bool = False,
    timeline: Optional[float] = None,
) -> ExperimentResult:
    """Run (or replay from cache) a single registered experiment; an
    exception the experiment raises propagates.

    ``timeline`` (an interval in simulated cycles, with
    ``collect_report``) adds interval-sampled metric timelines to each
    machine record; it is part of the cache key, so entries with and
    without timelines never collide.
    """
    kwargs = experiment(name).arguments(fast)
    key = cache_key(name, kwargs, timeline=timeline)
    cached = _replay(name, key, cache_dir, collect_report)
    if cached is not None:
        return cached
    payload = _compute(name, kwargs, collect_report, timeline=timeline)
    return _succeed(name, key, payload, cache_dir)


def _heartbeats(send: Callable[[tuple], None], heartbeat_s: Optional[float]):
    """The context one attempt runs in.  With ``heartbeat_s`` set the
    run is observed by a :class:`HeartbeatEmitter`: every engine the
    experiment builds pulses cumulative self-metrics to ``send`` as
    ``("hb", payload)`` messages, at most one per ``heartbeat_s`` wall
    seconds, after a hello beat that goes out at once (so a worker's
    parent can tell "alive, simulation not started" from a dead pipe).
    Without it, nothing is armed."""
    if heartbeat_s is None:
        return nullcontext()
    from repro.monitor.telemetry import HeartbeatEmitter

    emitter = HeartbeatEmitter(send, min_interval_s=heartbeat_s)
    emitter.beat()
    return observe(emitter)


def _subprocess_main(
    conn,
    name: str,
    kwargs: Dict,
    collect_report: bool,
    heartbeat_s: Optional[float] = None,
) -> None:
    """Worker-process entry point: send one :func:`_outcome` outcome
    back over ``conn``, after the heartbeats of :func:`_heartbeats`.
    Only a hard crash (segfault, kill, exit) leaves the pipe silent,
    which the scheduler detects as worker death."""
    try:
        with _heartbeats(conn.send, heartbeat_s):
            outcome = _outcome(name, kwargs, collect_report)
        conn.send(outcome)
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
    """One attempt at one experiment.  A worker attempt also holds its
    process and pipe.  Every attempt keeps heartbeat bookkeeping
    (telemetry runs only): when a beat last showed *progress* (more
    events processed than any earlier beat) and the last payload — what
    stall and retry messages report."""

    name: str
    number: int
    started: float
    process: Optional[multiprocessing.Process] = None
    conn: object = None
    last_progress: Optional[float] = None
    events_seen: int = -1
    progress: Optional[Dict] = None

    def beat(self, payload: Dict) -> None:
        events = payload.get("events_processed", 0)
        if events > self.events_seen:
            self.events_seen = events
            self.last_progress = time.perf_counter()
        self.progress = payload

    def progress_note(self) -> str:
        """Last-known progress, for stall and retry annotations."""
        if self.progress is None:
            return "no heartbeat received"
        return (
            f"last heartbeat: {self.progress.get('events_processed', 0)} "
            f"events, {self.progress.get('sim_cycles', 0.0):.0f} cycles, "
            f"{self.progress.get('events_per_sec', 0.0):g} ev/s"
        )


def _drive(
    misses: Dict[str, tuple],
    jobs: int,
    cache_dir: Optional[Path],
    collect_reports: bool,
    timeout_s: Optional[float],
    retries: int,
    retry_backoff_s: float,
    emit: Callable,
    heartbeat_s: Optional[float],
) -> Dict[str, ExperimentResult]:
    """Run every cache miss (``name -> (kwargs, cache key)``) to a
    result: the one scheduler behind ``run_all``.

    Each failure (exception, and in a worker also timeout or crash) is
    retried with exponential backoff until its attempts are exhausted,
    then recorded as a failed result; one experiment's fate never
    affects another's.  At ``jobs=1`` without ``timeout_s`` each attempt
    runs in-process; otherwise up to ``jobs`` worker processes run at
    once.  With ``heartbeat_s`` set, attempts on either path beat
    (:func:`_heartbeats`).  Workers alone are reaped: on a flat
    wall-clock ``timeout_s`` or, with ``heartbeat_s`` set, on a **stall
    budget** of ``timeout_s`` seconds without a heartbeat showing
    forward progress, so slow-but-alive workers run on while hung ones
    die fast.
    """
    isolated = jobs > 1 or timeout_s is not None
    ctx = _mp_context() if isolated else None
    results: Dict[str, ExperimentResult] = {}
    #: (name, attempt number, not_before) — attempts awaiting a slot.
    pending: deque = deque((name, 1, 0.0) for name in misses)
    running: Dict[object, _Attempt] = {}

    def _settle(attempt: _Attempt, error: str) -> None:
        """Record a failed attempt: retry with backoff or final failure."""
        if attempt.number <= retries:
            delay = retry_backoff_s * (2 ** (attempt.number - 1))
            pending.append(
                (attempt.name, attempt.number + 1, time.perf_counter() + delay)
            )
            emit(
                "retry",
                attempt.name,
                attempt=attempt.number,
                error=error,
                next_attempt=attempt.number + 1,
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
            attempts=attempt.number,
        )
        emit("failed", attempt.name, attempt=attempt.number, error=error)

    def _finish(attempt: _Attempt, status: str, payload) -> None:
        if status != "ok":
            _settle(attempt, payload)
            return
        name = attempt.name
        results[name] = _succeed(
            name, misses[name][1], payload, cache_dir, attempt.number, emit
        )

    def _beat(attempt: _Attempt, payload: Dict) -> None:
        attempt.beat(payload)
        emit("heartbeat", attempt.name, attempt=attempt.number, **payload)

    def _start(name: str, number: int) -> None:
        kwargs = misses[name][0]
        if not isolated:
            attempt = _Attempt(name, number, time.perf_counter())
            emit("worker_started", name, attempt=number, inline=True)
            with _heartbeats(lambda message: _beat(attempt, message[1]),
                             heartbeat_s):
                outcome = _outcome(name, kwargs, collect_reports)
            _finish(attempt, *outcome)
            return
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_subprocess_main,
            args=(send_conn, name, kwargs, collect_reports, heartbeat_s),
        )
        process.start()
        send_conn.close()  # the scheduler keeps only the read end
        running[recv_conn] = _Attempt(
            name, number, time.perf_counter(), process, recv_conn
        )
        emit("worker_started", name, attempt=number, pid=process.pid)

    def _retire(attempt: _Attempt, kill: bool = False) -> None:
        if kill:
            attempt.process.terminate()
        attempt.process.join()
        attempt.conn.close()
        del running[attempt.conn]

    while pending or running:
        # start the attempts whose backoff has elapsed, up to the slots
        for _ in range(len(pending)):
            if len(running) >= max(1, jobs):
                break
            entry = pending.popleft()
            if entry[2] > time.perf_counter():
                pending.append(entry)
                continue
            _start(*entry[:2])

        if not running:
            if pending:
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
                _retire(attempt)
                _settle(attempt, f"worker crashed (exit {attempt.process.exitcode})")
                continue
            if status == "hb":
                # heartbeat: bookkeeping only, the worker stays running
                _beat(attempt, payload)
                continue
            _retire(attempt)
            _finish(attempt, status, payload)

        if timeout_s is not None:
            now = time.perf_counter()
            for attempt in list(running.values()):
                # without heartbeats last_progress stays None: a flat
                # wall-clock deadline from the worker's start
                if now - (attempt.last_progress or attempt.started) <= timeout_s:
                    continue
                _retire(attempt, kill=True)
                if heartbeat_s is None:
                    _settle(attempt, f"timeout after {timeout_s:g}s")
                else:
                    _settle(
                        attempt,
                        f"stalled: no heartbeat progress for {timeout_s:g}s "
                        f"({attempt.progress_note()})",
                    )

    return results


def run_all(
    names: Optional[Iterable[str]] = None,
    jobs: int = 1,
    fast: bool = False,
    cache_dir: Optional[Path] = None,
    collect_reports: bool = False,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    retry_backoff_s: float = 0.25,
    telemetry=None,
) -> List[ExperimentResult]:
    """Run a set of experiments (default: every registered one).

    Cache hits are resolved in-process; the misses go to one scheduler
    (:func:`_drive`).  At ``jobs=1`` they run in-process one attempt at
    a time; with ``jobs > 1`` they fan out across up to ``jobs`` worker
    processes (one process per experiment — a crash is contained to its
    artifact).  ``timeout_s`` bounds each experiment's wall clock (the
    worker is terminated past it; requires the worker path, so it
    forces process isolation even at ``jobs=1``).  On either path each
    failure retries up to ``retries`` times (``>= 0``) with exponential
    backoff starting at ``retry_backoff_s``.

    ``telemetry`` (a :class:`~repro.monitor.telemetry.FleetTelemetry`)
    turns on fleet telemetry: every lifecycle transition is emitted as
    a schema-valid event (JSONL sink and/or in-process listener), and
    every attempt heartbeats engine self-metrics at
    ``telemetry.heartbeat_s`` (a worker over its pipe, an inline attempt
    straight to the event callback).  With heartbeats flowing, ``timeout_s``
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
    if retries < 0:
        raise ValueError("retries must be >= 0")
    selected = list(names) if names is not None else experiment_names()
    for name in selected:
        experiment(name)  # validate up front

    emit = telemetry.event if telemetry is not None else _silent
    results: Dict[str, ExperimentResult] = {}
    misses: Dict[str, tuple] = {}
    for name in selected:
        kwargs = REGISTRY[name].arguments(fast)
        key = cache_key(name, kwargs)
        cached = _replay(name, key, cache_dir, collect_reports, emit)
        if cached is not None:
            results[name] = cached
        else:
            misses[name] = (kwargs, key)
            emit("run_queued", name)

    if misses:
        results.update(
            _drive(
                misses,
                jobs,
                cache_dir,
                collect_reports,
                timeout_s,
                retries,
                retry_backoff_s,
                emit,
                telemetry.heartbeat_s if telemetry is not None else None,
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
