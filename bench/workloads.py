"""The benchmark's workloads: fixed bodies of work over public APIs.

Each workload is a function ``(scratch_dir, seed) -> Outcome`` that
runs one deterministic body of work through the same public entry
points a user drives (``run_all``, ``run_soak``/``render_soak``) and
returns the rendered outputs the benchmark digests and checks.  Only
``soak-stream`` reads the seed; the others run fixed inputs, so their
correctness pins hold at every seed.

The bodies are sized so that a timed run repeats each one several
times within the run length in ``BENCHMARK.json``; ``bench/README.md``
records how each relates to the full ``run-all`` artifact it stands in
for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

from repro.experiments.runner import (
    REGISTRY,
    Experiment,
    clear_memoized_runs,
    experiment_names,
    register,
    run_all,
)
from repro.util.tables import Table

#: the registered experiment behind rk-observed and rk-bare.
RK_EXPERIMENT = "bench-rk"

#: prefetch blocks per CE in the RK slice (fast-mode Table 1 runs 8).
RK_BLOCKS = 1

#: open-loop arrivals per soak-stream body.
SOAK_REQUESTS = 20_000

#: registered experiments runall-rest leaves out: table1 is what the rk
#: workloads slice (and the slice is theirs), soak has its own workload,
#: and table2 and the two ablations exercise the same layers at several
#: times the cost of the rest combined, which no single timed run could
#: repeat.
RUNALL_EXCLUDED = (
    "table1",
    "table2",
    "soak",
    "ablation-network",
    "ablation-memory",
    RK_EXPERIMENT,
)


@dataclass
class Outcome:
    """What one workload body produced."""

    #: rendered text per experiment — digested and pinned.
    outputs: Dict[str, str]
    #: operations the body attempted and how many of them failed.
    attempted: int
    failed: int
    #: deterministic results beyond the rendered text (soak quantiles,
    #: span populations); every rep must agree on them.
    facts: Dict[str, float] = field(default_factory=dict)


def _rk_slice() -> str:
    """Table 1's GM/no-pref and GM/pref RK machines on all four
    clusters (32 CEs), ``RK_BLOCKS`` prefetch blocks per CE."""
    from repro.experiments.kernels_sim import run_kernel_measurement

    table = Table(
        title=f"RK rank-64 update, 32 CEs, {RK_BLOCKS} blocks per CE",
        columns=["version", "cycles", "MFLOPS", "latency", "interarrival"],
        precision=4,
    )
    for version, prefetch in (("GM/no-pref", False), ("GM/pref", True)):
        m = run_kernel_measurement("RK", 32, prefetch=prefetch, strips=RK_BLOCKS)
        table.add_row(
            [version, m.cycles, m.mflops, m.latency or 0.0, m.interarrival or 0.0]
        )
    return table.render()


def register_rk_experiment() -> None:
    """Add the RK slice to the experiment registry (once per process)."""
    if RK_EXPERIMENT not in REGISTRY:
        register(Experiment(RK_EXPERIMENT, "Table 1 RK slice", _rk_slice))


def _write_reports(results, report_dir: Path) -> None:
    """Write each run report the way ``python -m repro run-all`` does."""
    report_dir.mkdir(parents=True, exist_ok=True)
    for result in results:
        if result.report is not None:
            (report_dir / f"{result.name}.json").write_text(
                json.dumps(result.report, indent=1)
            )


def _span_facts(results) -> Dict[str, float]:
    """Span population across the run reports: completed spans and the
    births the collector's cap dropped."""
    completed = dropped = 0
    for result in results:
        for machine in (result.report or {}).get("machines", []):
            latency = machine.get("latency") or {}
            completed += latency.get("requests", 0)
            dropped += latency.get("dropped", 0)
    return {"spans_completed": completed, "spans_dropped": dropped}


def _rk(scratch: Path, collect_reports: bool) -> Outcome:
    register_rk_experiment()
    clear_memoized_runs()
    results = run_all([RK_EXPERIMENT], fast=True, collect_reports=collect_reports)
    if collect_reports:
        _write_reports(results, scratch / "reports")
    return Outcome(
        outputs={r.name: r.output for r in results},
        attempted=len(results),
        failed=sum(not r.ok for r in results),
        facts=_span_facts(results),
    )


def rk_observed(scratch: Path, seed: int) -> Outcome:
    """The RK slice under run-all's default observation: standard
    monitors, buffered spans, reports serialized to disk."""
    return _rk(scratch, collect_reports=True)


def rk_bare(scratch: Path, seed: int) -> Outcome:
    """The same simulation with observation off."""
    return _rk(scratch, collect_reports=False)


def soak_stream(scratch: Path, seed: int) -> Outcome:
    """An open-loop request flood observed through the streaming fold."""
    from repro.experiments.soak import render_soak, run_soak
    from repro.monitor.spans import RECONCILE_TOLERANCE

    clear_memoized_runs()
    result = run_soak(requests=SOAK_REQUESTS, seed=seed, stream=True)
    return Outcome(
        outputs={"soak": render_soak(result)},
        attempted=result.requests,
        failed=result.requests - result.completed + int(result.aborted),
        facts={
            "requests": result.requests,
            "completed": result.completed,
            "p50": result.p50,
            "p99": result.p99,
            "reconciliation_worst": result.reconciliation_worst,
            "reconciliation_bound": RECONCILE_TOLERANCE,
            "spans_completed": result.traced,
            "spans_dropped": result.dropped + result.evicted,
            "injection_deferred": result.deferred,
        },
    )


def runall_names() -> List[str]:
    return [n for n in experiment_names() if n not in RUNALL_EXCLUDED]


def runall_rest(scratch: Path, seed: int) -> Outcome:
    """The remaining registered experiments into a fresh result store,
    then the same call again as a cached replay."""
    clear_memoized_runs()
    names = runall_names()
    store = scratch / "store"
    fresh = run_all(names, fast=True, collect_reports=True, jobs=1, cache_dir=store)
    _write_reports(fresh, scratch / "reports")
    replay = run_all(names, fast=True, collect_reports=True, jobs=1, cache_dir=store)
    _write_reports(replay, scratch / "reports")
    replay_failed = sum(
        not (r.ok and r.cached and r.output == f.output)
        for r, f in zip(replay, fresh)
    )
    return Outcome(
        outputs={r.name: r.output for r in fresh},
        attempted=len(fresh) + len(replay),
        failed=sum(not r.ok for r in fresh) + replay_failed,
        facts=_span_facts(fresh),
    )


WORKLOADS: Dict[str, Callable[[Path, int], Outcome]] = {
    "rk-observed": rk_observed,
    "rk-bare": rk_bare,
    "soak-stream": soak_stream,
    "runall-rest": runall_rest,
}
