"""Soak study: streaming observability under an open-loop request flood.

The buffered span collector keeps every stitched request until read
time, so the tracing footprint of a run grows linearly with the number
of traced requests — a week-long soak either hits the request cap
(silent truncation, see ``LatencyAnalysis.dropped``) or runs the host
out of memory.  This experiment is the workload that motivates the
streaming path: an **open-loop arrival generator** drives the machine
directly with a seeded Poisson-ish request process (arrivals do not
wait for completions, so queueing pressure is honest), every request is
traced, and with ``stream=True`` the per-request state is folded into
:class:`~repro.monitor.streamstore.StreamingSpanStore` sketches the
moment each request completes.

At the default one million requests the buffered collector would retain
one million spans; the streaming store's resident traced state stays at
a few thousand *items* (sketch buckets + exemplars + in-flight) —
``benchmarks/memory_gate.py`` asserts the peak is flat in request
count.  ``stream=False`` exists for small cross-checks (the agreement
harness compares sketch quantiles against buffered exact ones) and
keeps the cap-drop accounting visible at soak scale.

The generator injects at the same seam the CEs use —
``forward_network.inject`` after a ``can_inject`` check, ``req.birth``
emitted on the bus, replies handled by the reverse-network sink — so a
soak request crosses exactly the resources a demand load or store
crosses.  The whole run sits under an engine
:class:`~repro.core.engine.Watchdog` (event budget scaled to the
request count, progress keyed on issue/completion counters), so a
livelocked flood aborts with a diagnostic instead of hanging.

Determinism: arrivals, address choices, and the read/write mix are all
drawn from per-port ``random.Random`` children of ``seed``; the same
arguments reproduce the same table bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.config import CedarConfig
from repro.core.engine import SimulationError, Watchdog
from repro.core.machine import CedarMachine
from repro.network.packet import Packet, PacketKind
from repro.util.tables import Table

#: watchdog event budget per injected request (a healthy request costs
#: well under this many engine events end to end), plus a fixed floor so
#: tiny fast-mode runs are not budget-bound.
EVENTS_PER_REQUEST = 200
EVENT_BUDGET_FLOOR = 2_000_000

#: address footprint the generator strides over (module conflicts come
#: from the low bits; the exact span is immaterial).
ADDRESS_FOOTPRINT = 1 << 20


@dataclass(frozen=True)
class SoakResult:
    """The outcome of one soak flood."""

    mode: str  #: ``"streaming"`` or ``"buffered"``
    requests: int  #: arrivals injected
    completed: int  #: requests observed complete (reads + writes)
    traced: int  #: phased complete spans folded into the analysis
    incomplete: int  #: spans still open (or evicted) at sim end
    dropped: int  #: births dropped at the collector cap (buffered only)
    evicted: int  #: in-flight spans evicted at the cap (streaming only)
    deferred: int  #: injection retries while a port queue was full
    cycles: float  #: simulated cycles to drain the flood
    mean: Optional[float]
    p50: Optional[float]
    p90: Optional[float]
    p95: Optional[float]
    p99: Optional[float]
    max: Optional[float]
    footprint_items: Optional[int]  #: resident traced items (streaming)
    reconciliation_worst: float
    aborted: bool


def _watchdog(requests: int) -> Watchdog:
    budget = max(EVENT_BUDGET_FLOOR, requests * EVENTS_PER_REQUEST)
    return Watchdog(max_events=budget)


def run_soak(
    requests: int = 1_000_000,
    seed: int = 7,
    write_fraction: float = 0.25,
    mean_gap: float = 8.0,
    ports: Optional[int] = None,
    stream: bool = True,
    relative_error: float = 0.01,
    exemplars: int = 64,
) -> SoakResult:
    """Flood the machine with ``requests`` open-loop arrivals.

    ``mean_gap`` is the mean inter-arrival gap *per port* in cycles
    (exponential, seeded); ``write_fraction`` of arrivals are stores,
    the rest demand reads.  ``stream`` selects the bounded-memory
    streaming store; ``False`` attaches the buffered collector, whose
    cap-drop accounting then shows up in the result.
    """
    if requests < 1:
        raise ValueError("requests must be positive")
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError("write_fraction must be within [0, 1]")
    config = CedarConfig()
    machine = CedarMachine(config)
    engine = machine.engine
    fwd = machine.forward_network
    gmem = machine.gmem
    modules = config.global_memory.modules
    n_ports = config.total_ces if ports is None else ports
    if not 1 <= n_ports <= config.total_ces:
        raise ValueError(f"ports must be within [1, {config.total_ces}]")

    if stream:
        from repro.monitor.streamstore import StreamingSpanStore

        store = StreamingSpanStore(
            relative_error=relative_error, exemplars=exemplars, seed=seed
        ).attach(machine.bus)
    else:
        from repro.monitor.spans import SpanCollector

        store = SpanCollector().attach(machine.bus)

    state = {"issued": 0, "completed": 0, "deferred": 0}

    def _complete(packet: Packet) -> None:
        state["completed"] += 1

    def _port_driver(port: int, quota: int) -> None:
        rng = random.Random((seed << 20) ^ (port * 0x9E3779B1))
        birth = machine.bus.signal("req.birth", key=port)
        remaining = [quota]

        def _try_inject(packet: Packet, address: int) -> None:
            if not fwd.can_inject(port):
                state["deferred"] += 1
                engine.schedule_after(1.0, _try_inject, packet, address)
                return
            fwd.inject(packet, tail=gmem.route_tail(address))

        def _arrive() -> None:
            address = rng.randrange(ADDRESS_FOOTPRINT)
            if rng.random() < write_fraction:
                packet = Packet.acquire(
                    PacketKind.WRITE_REQ, port, address % modules, address,
                    words=2,
                )
                packet.meta["on_write_done"] = _complete
                origin = "store"
            else:
                packet = Packet.acquire(
                    PacketKind.READ_REQ, port, address % modules, address
                )
                packet.meta["handler"] = _complete
                origin = "demand"
            cbs = birth.callbacks
            if cbs:
                now = engine.now
                for cb in cbs:
                    cb(packet, origin, now)
            state["issued"] += 1
            _try_inject(packet, address)
            remaining[0] -= 1
            if remaining[0] > 0:
                engine.schedule_after(rng.expovariate(1.0 / mean_gap), _arrive)

        # stagger the first arrivals so ports do not fire in lockstep
        engine.schedule_after(rng.expovariate(1.0 / mean_gap), _arrive)

    share, excess = divmod(requests, n_ports)
    for port in range(n_ports):
        quota = share + (1 if port < excess else 0)
        if quota:
            _port_driver(port, quota)

    watchdog = _watchdog(requests)
    watchdog.progress = lambda: (
        state["issued"],
        state["completed"],
        fwd.total_words_delivered(),
    )
    engine.attach_watchdog(watchdog)
    aborted = False
    try:
        engine.run()
    except SimulationError:
        aborted = True
    finally:
        engine.detach_watchdog()
    cycles = engine.now

    analysis = type(store).analyze([store])
    footprint = store.tracing_footprint() if stream else None
    doc_incomplete = store.incomplete
    store.detach()

    row = analysis.end_to_end().get("all") if analysis.requests else None
    return SoakResult(
        mode="streaming" if stream else "buffered",
        requests=state["issued"],
        completed=state["completed"],
        traced=analysis.requests,
        incomplete=doc_incomplete,
        dropped=analysis.dropped,
        evicted=analysis.evicted,
        deferred=state["deferred"],
        cycles=cycles,
        mean=row["mean"] if row else None,
        p50=row["p50"] if row else None,
        p90=row["p90"] if row else None,
        p95=row["p95"] if row else None,
        p99=row["p99"] if row else None,
        max=row["max"] if row else None,
        footprint_items=footprint,
        reconciliation_worst=analysis.reconciliation_error(),
        aborted=aborted,
    )


def render_soak(result: SoakResult) -> str:
    table = Table(
        title=f"Soak: {result.requests} open-loop requests "
        f"({result.mode} observability)",
        columns=[
            "metric",
            "value",
        ],
        precision=2,
    )
    rows = [
        ("requests injected", result.requests),
        ("requests completed", result.completed),
        ("spans traced (phased)", result.traced),
        ("incomplete at sim end", result.incomplete),
        ("dropped at cap", result.dropped),
        ("evicted in-flight", result.evicted),
        ("injection retries", result.deferred),
        ("simulated cycles", result.cycles),
        ("latency mean (cyc)", result.mean),
        ("latency p50 (cyc)", result.p50),
        ("latency p90 (cyc)", result.p90),
        ("latency p95 (cyc)", result.p95),
        ("latency p99 (cyc)", result.p99),
        ("latency max (cyc)", result.max),
    ]
    if result.footprint_items is not None:
        rows.append(("resident traced items", result.footprint_items))
    rows.append(("status", "[ABORTED]" if result.aborted else "ok"))
    for metric, value in rows:
        table.add_row([metric, value])
    lines = [table.render()]
    if result.mode == "streaming":
        lines.append(
            "Traced state is folded into quantile sketches on completion: "
            "resident items stay flat no matter how many requests flow "
            f"(phase sums reconcile to within "
            f"{result.reconciliation_worst:.3g} cycles)."
        )
    else:
        lines.append(
            "Buffered collection retains every span; past the request cap "
            "the analysis describes a truncated population (see 'dropped')."
        )
    return "\n".join(lines)
