"""One rep of one workload in a fresh process.

    python -m bench.worker WORKLOAD SEED TRACE

Run from the repository root with ``src`` on ``PYTHONPATH`` (the
harness sets both).  Prints one JSON record as the last line of
standard output: set-up time, the body's time split into phases with
the calibration timings around them, peak RSS, engine work counts, a
sha256 per rendered output, and with ``TRACE`` 1 the per-layer samples,
span self times and component counters of the body.

A fresh process per rep keeps the measurement honest: experiment
memos start cold, imports are paid in set-up, and ``ru_maxrss`` is
this rep's own peak.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: CPU seconds of body between calibrations: a machine build starts a
#: new phase once this much has run since the last calibration.
CALIBRATE_EVERY_S = 0.5


class _Link:
    __slots__ = ("key", "prev")

    def __init__(self, key: int, prev: int) -> None:
        self.key = key
        self.prev = prev


def calibrate() -> float:
    """CPU seconds of a fixed interpreter-bound loop (heap pushes and
    pops, dict traffic, small slotted objects — the simulator's mix).

    The host's speed swings by up to 2x for seconds at a time as other
    tenants come and go; timing this loop before, inside and after the
    body measures the speed each part of the body ran at."""
    start = time.process_time()
    heap, table, acc = [], {}, 0
    for i in range(200_000):
        heapq.heappush(heap, (i * 7919) % 10007)
        previous = table.get((i - 1) & 1023)
        table[i & 1023] = _Link(i, previous.key if previous else -1)
        if len(heap) > 64:
            acc += heapq.heappop(heap)
        acc += table[i & 1023].key & 3
    return time.process_time() - start


class PhaseClock:
    """The body's CPU and wall time, split into phases at calibrations.

    Construction times the first calibration and starts the first
    phase; :meth:`checkpoint` closes the phase and calibrates again."""

    def __init__(self) -> None:
        self.calib_s = [calibrate()]
        self.phases = []
        self._paused = 0.0
        self._mark = (time.process_time(), time.perf_counter())

    def due(self) -> bool:
        """Whether ``CALIBRATE_EVERY_S`` of CPU has passed since the last
        calibration."""
        return time.process_time() - self._mark[0] >= CALIBRATE_EVERY_S

    def checkpoint(self) -> None:
        cpu, wall = time.process_time(), time.perf_counter()
        self.phases.append((cpu - self._mark[0], wall - self._mark[1]))
        self.calib_s.append(calibrate())
        self._mark = (time.process_time(), time.perf_counter())
        self._paused += self._mark[1] - wall

    def body_clock(self) -> float:
        """Wall seconds with the calibrations cut out."""
        return time.perf_counter() - self._paused


def _setup():
    """What ``setup_s`` times: the imports, the experiment registry and
    the first machine."""
    from bench import workloads
    from repro.core.config import CedarConfig
    from repro.core.machine import CedarMachine

    workloads.register_rk_experiment()
    CedarMachine(CedarConfig())
    return workloads


def component_counts(contexts) -> dict:
    """Work counts summed over every machine's component ``stats()``."""
    c = Counter()
    for ctx in contexts:
        for name, stats in ctx.stats().items():
            if name.startswith("net."):
                c["network.packets"] += stats["packets_delivered"]
                c["network.injection_deferred"] += stats["injection_rejections"]
            elif name == "gmem":
                c["gmemory.accesses"] += (
                    stats["reads"] + stats["writes"] + stats["sync_ops"]
                )
                c["gmemory.busy_cycles"] += stats["busy_cycles"]
            elif name.startswith("ce["):
                c["cluster.ce_stall_cycles"] += stats["stall_cycles"]
            elif name.startswith("pfu["):
                c["prefetch.words_requested"] += stats["words_requested"]
            elif name == "faults":
                c["faults.retries"] += stats["transients"] + stats["ecc_retries"]
    return dict(c)


def run(workload: str, seed: int, trace: bool) -> dict:
    start = time.process_time()
    workloads = _setup()
    setup_s = time.process_time() - start

    import repro
    from repro.core.context import add_context_observer, remove_context_observer

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"repro imported from {repro.__file__}, not {ROOT / 'src'}")

    # Machine builds are the body's checkpoints.  The untraced rep keeps
    # only engines, so held machines do not inflate its peak RSS; the
    # traced rep keeps whole contexts for their component counters, and
    # pauses the sampler and the span clock while it calibrates.
    machines = []
    clock = PhaseClock()
    sampler = spans = None
    if trace:
        from bench.tracing import Sampler, Spans

        sampler, spans = Sampler(), Spans(clock=clock.body_clock)

    def observe(ctx) -> None:
        machines.append(ctx if trace else ctx.engine)
        if clock.due():
            if sampler is not None:
                sampler.stop()
            clock.checkpoint()
            if sampler is not None:
                sampler.start()

    observer = add_context_observer(observe)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    try:
        if trace:
            spans.install()
            sampler.start()
        outcome = workloads.WORKLOADS[workload](scratch, seed)
    finally:
        if trace:
            sampler.stop()
            spans.uninstall()
        remove_context_observer(observer)
    clock.checkpoint()
    shutil.rmtree(scratch, ignore_errors=True)

    engines = [m.engine for m in machines] if trace else machines
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "setup_s": setup_s,
        "calib_s": clock.calib_s,
        "phases": clock.phases,
        "cpu_s": sum(cpu for cpu, _ in clock.phases),
        "wall_s": sum(wall for _, wall in clock.phases),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "machines": len(engines),
        "events": sum(e.events_processed for e in engines),
        "sim_cycles": sum(e.now for e in engines),
        "digests": {
            name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in sorted(outcome.outputs.items())
        },
        "facts": outcome.facts,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
    }
    if trace:
        record["samples"] = sampler.layer_samples()
        record["spans"] = spans.self_times()
        record["counts"] = component_counts(machines)
    return record


def main(argv) -> int:
    workload, seed, trace = argv
    print(json.dumps(run(workload, int(seed), trace == "1")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
