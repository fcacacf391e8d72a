"""Ablation studies for the design choices DESIGN.md calls out.

Each function varies one architectural parameter of the simulated
machine and reports its effect through the same measurement machinery
as the paper's tables:

* prefetch block size (RK's 256-word blocks vs compiler 32-word ones);
* switch queue depth (the two-word port queues);
* DRAM recovery (the [Turn93] "implementation constraint");
* sync-hardware self-scheduling (Table 3's ablation, at the loop level);
* PPT5: a scaled-up (8-cluster, 64-CE) Cedar on the same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.core.config import CedarConfig
from repro.core.machine import CedarMachine
from repro.experiments.kernels_sim import _run
from repro.kernels.programs import KERNELS, KernelShape, kernel_program
from repro.util.tables import Table


@dataclass(frozen=True)
class AblationPoint:
    setting: str
    latency: Optional[float]
    interarrival: Optional[float]
    mflops: float


def _measure(config: CedarConfig, kernel: str, n_ces: int, strips: int = 8,
             shape: Optional[KernelShape] = None) -> AblationPoint:
    if shape is None:
        m = _run(config, kernel, n_ces, True, strips)
        return AblationPoint("", m.latency, m.interarrival, m.mflops)
    machine = CedarMachine(config, monitor_port=0)
    programs = {
        port: kernel_program(shape, port, strips, prefetch=True)
        for port in range(n_ces)
    }
    cycles = machine.run_programs(programs)
    seconds = cycles * config.ce.cycle_ns * 1e-9
    summary = machine.probe.summary()
    rate = shape.flops * strips * n_ces / seconds / 1e6
    return AblationPoint("", summary.first_word_latency, summary.interarrival, rate)


@lru_cache(maxsize=1)
def ablate_prefetch_block_size(n_ces: int = 32) -> Tuple[AblationPoint, ...]:
    """RK with 64/128/256-word prefetch blocks: longer blocks raise
    throughput per CE but also contention (Table 2: "RK degrades most
    quickly due to the fact that it uses the longest prefetch block")."""
    out = []
    base = KERNELS["RK"]
    for block in (64, 128, 256):
        shape = replace(
            base,
            streams=(block,),
            flops=2.0 * block,
            prefetch_block=block,
            store_words=max(1, block // 64),
            plain_load_words=max(1, block // 64),
        )
        point = _measure(CedarConfig(), "RK", n_ces, strips=max(8, 2048 // block),
                         shape=shape)
        out.append(replace(point, setting=f"block={block}"))
    return tuple(out)


@lru_cache(maxsize=1)
def ablate_switch_queue_depth(kernel: str = "RK", n_ces: int = 32) -> Tuple[AblationPoint, ...]:
    """Deeper switch queues absorb bursts: latency grows, PFU stalls
    shrink.  The paper's two-word queues sit at the shallow end."""
    out = []
    for depth in (1, 2, 4, 8):
        config = CedarConfig()
        config = replace(config, network=replace(config.network, queue_words=depth))
        point = _measure(config, kernel, n_ces)
        out.append(replace(point, setting=f"queue={depth}w"))
    return tuple(out)


@lru_cache(maxsize=1)
def ablate_memory_recovery(kernel: str = "RK", n_ces: int = 32) -> Tuple[AblationPoint, ...]:
    """DRAM recovery 0..2 cycles: the [Turn93] implementation
    constraint; 0 restores the idealized 768 MB/s module throughput."""
    out = []
    for recovery in (0.0, 1.0, 2.0):
        config = CedarConfig()
        config = replace(
            config,
            global_memory=replace(config.global_memory, recovery_cycles=recovery),
        )
        point = _measure(config, kernel, n_ces)
        out.append(replace(point, setting=f"recovery={recovery:g}"))
    return tuple(out)


@lru_cache(maxsize=1)
def ablate_shared_network(kernel: str = "RK", n_ces: int = 32) -> Tuple[AblationPoint, ...]:
    """Two unidirectional networks (Cedar's design) vs one shared
    fabric carrying both requests and replies.

    The shared fabric has a *protocol deadlock*: under load, replies
    queue behind requests whose memory modules cannot accept more work
    until their own replies drain — a circular wait.  Giving replies
    their own injection buffering (``reply_escape``) does NOT fix it:
    the cycle closes through the shared stage queues, the textbook
    argument that request/reply isolation must extend through *every*
    buffer on the path (full virtual channels — which, taken to its
    conclusion, is Cedar's two physically separate networks).  The
    ablation runs each configuration under a livelock guard and
    reports DEADLOCK when it trips."""
    from repro.core.engine import SimulationError, Watchdog

    variants = (
        ("two networks (Cedar)", False, False),
        ("one shared network", True, False),
        ("one shared + reply escape", True, True),
    )
    out = []
    for label, shared, escape in variants:
        config = CedarConfig()
        config = replace(
            config,
            network=replace(
                config.network,
                shared_single_network=shared,
                reply_escape=escape,
            ),
        )
        shape = KERNELS[kernel]
        machine = CedarMachine(config, monitor_port=0)
        programs = {
            port: kernel_program(shape, port, 6, prefetch=True)
            for port in range(n_ces)
        }
        try:
            # a healthy run of this size needs ~300k events; a livelocked
            # one burns events on PFU retries without progress
            cycles = machine.run_programs(
                programs, watchdog=Watchdog(max_events=1_200_000)
            )
        except SimulationError:
            out.append(AblationPoint(f"{label} [DEADLOCK]", None, None, 0.0))
            continue
        seconds = cycles * config.ce.cycle_ns * 1e-9
        summary = machine.probe.summary()
        rate = shape.flops * 6 * n_ces / seconds / 1e6
        out.append(
            AblationPoint(label, summary.first_word_latency,
                          summary.interarrival, rate)
        )
    return tuple(out)


@lru_cache(maxsize=1)
def ablate_scaled_up_cedar(kernel: str = "TM") -> Dict[str, AblationPoint]:
    """PPT5 evidence: an 8-cluster 64-CE Cedar with a proportionally
    scaled global memory, on the same kernel."""
    base = CedarConfig()
    big = replace(
        base,
        clusters=8,
        global_memory=replace(base.global_memory, modules=64),
    )
    return {
        "4x8 (Cedar)": replace(_measure(base, kernel, 32), setting="4x8"),
        "8x8 (scaled)": replace(_measure(big, kernel, 64), setting="8x8"),
    }


def render_ablation(title: str, points) -> str:
    table = Table(
        title=title,
        columns=["setting", "latency (cyc)", "interarrival (cyc)", "MFLOPS"],
        precision=2,
    )
    items = points.values() if isinstance(points, dict) else points
    for p in items:
        table.add_row([p.setting, p.latency, p.interarrival, p.mflops])
    return table.render()
