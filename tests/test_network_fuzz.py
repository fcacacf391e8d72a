"""Network fuzz oracle: the grouped service pass against the scalar chain.

``_finish_batch`` re-implements ``Resource._finish``, ``_try_handoff``,
``_pop_head``, ``offer`` and ``_start_service`` inline for the engine's
same-timestamp runs of service completions.  Here hypothesis programs
inject traffic straight into a machine's forward network, at the seam
the CEs and the soak generator use (``can_inject``, ``inject``,
``req.birth``), and run once on :class:`~repro.core.engine.Engine` and
once on the :class:`~tests.engine_oracle.HeapOracle`, where every
service takes the scalar chain.  The programs vary the source and
destination of every request, its kind and size (1–4-word stores and
block replies, 1-word reads, 2-word sync ops), the link queue depth
(1–4 words, so heads block), dual or shared fabrics, ``FaultPlan``
faults off or at a low rate, and which observers are attached: the
standard monitors, a buffered ``SpanCollector`` and a ``ChromeTracer``.
Both runs must deliver every reply at the same cycle and agree on every
``ResourceStats``, the registry snapshot, the span record buffer and
the rendered trace.
"""

import itertools
from dataclasses import astuple, replace

import pytest
from hypothesis import event, given, settings, strategies as st

import repro.core.context
from repro.core.config import CedarConfig
from repro.core.engine import Engine
from repro.core.machine import CedarMachine
from repro.faults import FaultPlan
from repro.monitor.metrics import MetricsRegistry
from repro.monitor.monitors import attach_standard_monitors, detach_monitors
from repro.monitor.spans import SpanCollector
from repro.monitor.tracer import ChromeTracer
from repro.network import packet as packet_module
from repro.network.packet import Packet, PacketKind
from tests.engine_oracle import HeapOracle

#: injection retries one request may make before the program gives it
#: up (a deadlocked shared fabric would otherwise retry forever).
RETRIES = 64

REQUEST = st.tuples(
    st.integers(0, 12),  # arrival cycle
    # source port and word address (the module is address % 32), each
    # often one of a few hot ones so queues fill and heads block
    st.one_of(st.integers(0, 3), st.integers(0, 31)),
    st.one_of(st.integers(0, 2), st.integers(0, 255)),
    st.sampled_from(["read", "write", "block", "sync"]),
    st.integers(1, 4),  # store words / block reply words
)

PROGRAMS = st.fixed_dictionaries({
    "requests": st.lists(REQUEST, min_size=2, max_size=48),
    "queue_words": st.integers(1, 4),
    "fabric": st.sampled_from(["dual", "shared", "shared-escape"]),
    "fault_rate": st.sampled_from([0.0, 0.0, 0.02]),
    "fault_seed": st.integers(0, 7),
    "monitors": st.booleans(),
    "spans": st.booleans(),
    "tracer": st.booleans(),
})


def config_for(program):
    config = CedarConfig()
    network = replace(
        config.network,
        queue_words=program["queue_words"],
        shared_single_network=program["fabric"] != "dual",
        reply_escape=program["fabric"] == "shared-escape",
    )
    faults = FaultPlan.uniform(program["fault_rate"], seed=program["fault_seed"])
    return replace(config, network=network, faults=faults)


def play(program, engine_cls):
    """Run ``program`` on a machine over ``engine_cls``, numbering
    requests from zero."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(repro.core.context, "Engine", engine_cls)
        m.setattr(packet_module, "_packet_ids", itertools.count())
        machine = CedarMachine(config_for(program))
        assert type(machine.engine) is engine_cls
        return drive(program, machine)


def drive(program, machine):
    """Inject ``program`` into ``machine`` with its observers attached;
    return what it did and what every observer saw."""
    engine = machine.engine
    fwd, gmem = machine.forward_network, machine.gmem
    registry = MetricsRegistry()
    monitors = attach_standard_monitors(machine.ctx, registry) if program["monitors"] else []
    spans = SpanCollector().attach(machine.bus) if program["spans"] else None
    tracer = ChromeTracer().attach(machine.bus) if program["tracer"] else None
    delivered = {}

    def arrive(i, port, address, kind, words):
        done = lambda _packet: delivered.setdefault(i, engine.now)  # noqa: E731
        module = address % gmem.config.modules
        if kind == "write":
            pkt = Packet.acquire(PacketKind.WRITE_REQ, port, module, address, words=words)
            pkt.meta["on_write_done"] = done
            origin = "store"
        elif kind == "block":
            pkt = Packet.acquire(PacketKind.BLOCK_REQ, port, module, address)
            pkt.meta["block_words"] = words - 1 or 1
            pkt.meta["handler"] = done
            origin = "block"
        elif kind == "sync":
            pkt = Packet.acquire(PacketKind.SYNC_REQ, port, module, address, words=2)
            pkt.meta["handler"] = done
            origin = "sync"
        else:
            pkt = Packet.acquire(PacketKind.READ_REQ, port, module, address)
            pkt.meta["handler"] = done
            origin = "demand"
        for cb in machine.bus.signal("req.birth", key=port).callbacks:
            cb(pkt, origin, engine.now)
        inject(i, pkt, address, 0)

    def inject(i, pkt, address, tries):
        if fwd.can_inject(pkt.src):
            fwd.inject(pkt, tail=gmem.route_tail(address))
        elif tries < RETRIES:
            engine.schedule_after(1.0, inject, i, pkt, address, tries + 1)
        else:
            delivered[i] = "gave up"

    for i, (when, port, address, kind, words) in enumerate(program["requests"]):
        engine.schedule(float(when), arrive, i, port, address, kind, words)
    engine.run()

    resources = {}
    for _name, component in machine.ctx.components():
        if hasattr(component, "stages"):
            links = list(component.injection_ports)
            links += [link for stage in component.stages for link in stage]
        elif hasattr(component, "modules"):
            links = component.modules
        elif hasattr(component, "cluster_memory"):
            links = (component.cache, component.cluster_memory)
        else:
            continue
        for link in links:
            resources[link.name] = astuple(link.stats)
    seen = {
        "now": engine.now,
        "events": engine.events_processed,
        "delivered": delivered,
        "resources": resources,
        "stats": machine.ctx.stats(),
    }
    if monitors:
        seen["snapshot"] = registry.snapshot(now=engine.now)
        detach_monitors(monitors)
    if spans is not None:
        seen["span_buffer"] = list(spans._events)
        seen["spans"] = spans.spans()
        spans.detach()
    if tracer is not None:
        seen["trace"] = tracer.trace()
        tracer.detach()
    return seen


@settings(max_examples=300, deadline=None)
@given(program=PROGRAMS)
def test_grouped_pass_matches_scalar_chain(program):
    expected = play(program, HeapOracle)
    actual = play(program, Engine)
    assert actual == expected
    assert expected["delivered"]  # something was injected and answered
    blocked = sum(stats[3] for stats in expected["resources"].values())
    event("heads blocked" if blocked else "no head blocked")
    event("gave up" if "gave up" in expected["delivered"].values() else "all injected")
