"""Run reps, check their outputs, and reduce them to metrics.

Every rep is one ``bench.worker`` subprocess, run one at a time.  A
workload's reps must agree with each other exactly (digests, engine
events, simulated cycles, facts) — traced reps included, which is how
a tracing side effect on simulated output would show — and, at the
pinned seed, with ``bench/pins.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from bench import DEFAULT_SEED, SEEDED
from bench.tracing import LAYERS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DECLARATION = ROOT / "BENCHMARK.json"
PINS = Path(__file__).with_name("pins.json")

#: one rep may not take longer than this (the slowest takes ~6 s).
REP_TIMEOUT_S = 120.0

#: CPU seconds of ``bench.worker.calibrate`` at the reference speed: its
#: typical time on the 2-core box the baseline was recorded on.
REFERENCE_CALIB_S = 0.14


def declaration() -> dict:
    return json.loads(DECLARATION.read_text())


def run_rep(workload: str, seed: int, trace: bool) -> dict:
    """One rep in a fresh worker process; ``{"error": ...}`` on failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    command = [sys.executable, "-m", "bench.worker", workload, str(seed), str(int(trace))]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{workload} rep timed out after {REP_TIMEOUT_S:g}s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{workload} rep exited {proc.returncode}"}
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# correctness


def _identity(rep: dict) -> dict:
    """The parts of a rep that must repeat exactly."""
    return {k: rep[k] for k in ("digests", "events", "sim_cycles", "facts")}


def check(workload: str, seed: int, reps: List[dict], pins: dict) -> List[str]:
    """Problems with a workload's reps; empty when all is correct."""
    problems = [rep["error"] for rep in reps if "error" in rep]
    good = [rep for rep in reps if "error" not in rep]
    if not good:
        return problems or [f"{workload}: no reps ran"]
    reference = _identity(good[0])
    for i, rep in enumerate(good[1:], 1):
        if _identity(rep) != reference:
            kind = "traced" if rep["trace"] else "untraced"
            problems.append(f"{workload}: {kind} rep {i} diverges from rep 0")
    facts = reference["facts"]
    if workload in SEEDED:
        if facts["completed"] != facts["requests"]:
            problems.append(
                f"{workload}: {facts['completed']} of {facts['requests']} completed"
            )
        if facts["reconciliation_worst"] > facts["reconciliation_bound"]:
            problems.append(f"{workload}: phase sums do not reconcile")
    if workload not in SEEDED or seed == DEFAULT_SEED:
        pin = pins[workload]
        observed = {**facts, **reference}
        seen = {k: observed[k] for k in pin}
        if seen != pin:
            problems.append(
                f"{workload}: outputs differ from bench/pins.json; "
                f"observed {json.dumps(seen, sort_keys=True)}"
            )
    return problems


def tally(reps: List[dict], problems: List[str]) -> Tuple[int, int]:
    """(attempted, failed) over the reps.  A rep that crashed counts as
    one failed operation; when the outputs are wrong, every operation
    counts as failed."""
    attempted = sum(rep.get("attempted", 1) for rep in reps)
    failed = sum(rep.get("failed", 1) for rep in reps)
    return attempted, attempted if problems else failed


# ---------------------------------------------------------------------------
# metrics


def reference_times(rep: dict) -> Tuple[float, float, float]:
    """(set-up, body CPU, body wall) seconds of a rep at the reference
    speed.  Each phase of the body is scaled by the calibration loop's
    reference time over its mean time on either side of the phase; set-up
    by the first calibration, which directly follows it."""
    calib = rep["calib_s"]
    cpu = wall = 0.0
    for i, (phase_cpu, phase_wall) in enumerate(rep["phases"]):
        scale = 2.0 * REFERENCE_CALIB_S / (calib[i] + calib[i + 1])
        cpu += phase_cpu * scale
        wall += phase_wall * scale
    return rep["setup_s"] * REFERENCE_CALIB_S / calib[0], cpu, wall


def e2e_metrics(rep: dict) -> Dict[str, float]:
    """End-to-end metrics of one untraced rep, host times at the
    reference speed."""
    setup_s, cpu_s, wall_s = reference_times(rep)
    return {
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "sim_events_per_cpu_s": rep["events"] / cpu_s,
        "setup_s": setup_s,
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def layer_metrics(rep: dict, untraced_cpu_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced rep.  Sampled layer time is a
    share of the rep's CPU and span time a share of its wall time, so a
    layer the workload never enters reads 0 % rather than 0 s."""
    _, cpu_s, wall_s = reference_times(rep)
    samples = rep["samples"]
    total = sum(samples.values()) or 1
    raw_wall = rep["wall_s"]  # the clock the spans ran on
    spans = rep["spans"]
    counts = rep["counts"]
    facts = rep["facts"]
    kept = facts.get("spans_completed", 0)
    born = kept + facts.get("spans_dropped", 0)
    out = {f"{layer}.self_pct": 100.0 * samples[layer] / total for layer in LAYERS}
    out.update(
        {
            "core.build_pct": 100.0 * spans.get("core.build", 0.0) / raw_wall,
            "core.run_pct": 100.0
            * (spans.get("core.run", 0.0) + spans.get("engine.run", 0.0))
            / raw_wall,
            "monitor.report_pct": 100.0 * spans.get("monitor.report", 0.0) / raw_wall,
            "store.put_pct": 100.0 * spans.get("store.put", 0.0) / raw_wall,
            "store.get_pct": 100.0 * spans.get("store.get", 0.0) / raw_wall,
            "engine.events": rep["events"],
            "engine.sim_cycles": rep["sim_cycles"],
            "core.machines": rep["machines"],
            "network.packets": counts.get("network.packets", 0),
            "network.injection_deferred": counts.get("network.injection_deferred", 0)
            + facts.get("injection_deferred", 0),
            "gmemory.accesses": counts.get("gmemory.accesses", 0),
            "gmemory.busy_cycles": counts.get("gmemory.busy_cycles", 0),
            "cluster.ce_stall_cycles": counts.get("cluster.ce_stall_cycles", 0),
            "prefetch.words_requested": counts.get("prefetch.words_requested", 0),
            "monitor.spans_completed": kept,
            "monitor.span_keep_ratio": kept / born if born else 1.0,
            "faults.retries": counts.get("faults.retries", 0),
            "trace.cpu_s": cpu_s,
            "trace.wall_s": wall_s,
            "trace.overhead_pct": 100.0 * (cpu_s / untraced_cpu_s - 1.0),
        }
    )
    return out


def summarize(values: List[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def reduce_reps(reps: List[dict]) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """(end-to-end summaries over untraced reps, per-layer summaries
    over traced reps) for one workload's successful reps."""
    plain = [r for r in reps if "error" not in r and not r["trace"]]
    traced = [r for r in reps if "error" not in r and r["trace"]]
    e2e: Dict[str, dict] = {}
    if plain:
        rows = [e2e_metrics(r) for r in plain]
        e2e = {m: summarize([row[m] for row in rows]) for m in rows[0]}
    layers: Dict[str, dict] = {}
    if traced:
        base = (
            e2e["cpu_s"]["median"]
            if plain
            else reference_times(traced[0])[1]
        )
        rows = [layer_metrics(r, base) for r in traced]
        layers = {m: summarize([row[m] for row in rows]) for m in rows[0]}
    return e2e, layers


# ---------------------------------------------------------------------------
# runs


def timed_run(
    workload: str, seed: int, seconds: float, trace: bool, pins: dict
) -> dict:
    """One timed run: reps of ``workload`` until ``seconds`` have passed
    (two at least), reduced to the median of each metric.  With
    ``trace`` the reps alternate untraced and traced, so the tracing
    overhead is measured against reps of the same run."""
    reps: List[dict] = []
    deadline = time.perf_counter() + seconds
    while len(reps) < 2 or time.perf_counter() < deadline:
        reps.append(run_rep(workload, seed, trace and len(reps) % 2 == 1))
    problems = check(workload, seed, reps, pins)
    attempted, failed = tally(reps, problems)
    e2e, layers = reduce_reps(reps)
    return {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "reps": len(reps),
        "end_to_end": {m: s["median"] for m, s in e2e.items()},
        "per_layer": {m: s["median"] for m, s in layers.items()},
    }


def run_set(
    workloads: Iterable[str], seed: int, runs: int, seconds: float, pins: dict, log
) -> dict:
    """``runs`` timed runs per workload, interleaved round-robin, run i
    at seed ``seed + i``; then one traced run each at ``seed``.  Returns
    the results document ``agree`` compares."""
    workloads = list(workloads)
    timed: Dict[str, List[dict]] = {w: [] for w in workloads}
    traced: Dict[str, dict] = {}
    for i in range(runs + 1):
        for workload in workloads:
            run_seed = seed if i == runs else seed + i
            run = timed_run(workload, run_seed, seconds, i == runs, pins)
            if i == runs:
                traced[workload] = run
            else:
                timed[workload].append(run)
            log(
                f"{workload} {'traced run' if i == runs else f'run {i + 1}/{runs}'}: "
                f"{run['reps']} reps, {len(run['problems'])} problems"
            )
    doc = {"seed": seed, "runs": runs, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        results = timed[workload] + [traced[workload]]
        problems = [p for run in results for p in run["problems"]]
        doc["workloads"][workload] = {
            "problems": problems,
            "attempted": sum(run["attempted"] for run in results),
            "failed": sum(run["failed"] for run in results),
            "end_to_end": {
                m: summarize([run["end_to_end"][m] for run in timed[workload]])
                for m in timed[workload][0]["end_to_end"]
            },
            "per_layer": {
                m: summarize([v]) for m, v in traced[workload]["per_layer"].items()
            },
        }
    return doc


# ---------------------------------------------------------------------------
# agreement between two result documents


def verdict(a: dict, b: dict, bound: float) -> str:
    """``agree`` when the medians are within ``bound`` of each other,
    ``differs`` when they are not, and ``unresolved`` when either side's
    quartile spread is wider than ``bound`` — run-to-run noise then
    hides a difference of that size."""
    spread = max(
        (a["q3"] - a["q1"]) / a["median"], (b["q3"] - b["q1"]) / b["median"]
    )
    if spread > bound:
        return "unresolved"
    return "agree" if abs(b["median"] / a["median"] - 1.0) <= bound else "differs"


def agree(doc_a: dict, doc_b: dict, metrics: List[dict]) -> List[Tuple[str, str, str, float]]:
    """``(workload, metric, verdict, relative change)`` for every
    workload both documents hold and every declared end-to-end metric."""
    rows = []
    for workload in doc_a["workloads"]:
        if workload not in doc_b["workloads"]:
            continue
        ea = doc_a["workloads"][workload]["end_to_end"]
        eb = doc_b["workloads"][workload]["end_to_end"]
        for metric in metrics:
            name = metric["name"]
            a, b = ea[name], eb[name]
            rows.append(
                (workload, name, verdict(a, b, metric["bound"]), b["median"] / a["median"] - 1.0)
            )
    return rows
