"""Pulled metrics against a push oracle on the scalar service chain.

The network, memory and cluster monitors keep their per-event
accounting inside the components (``Resource.occupancy``,
``MemoryModule.service_account``) — on the grouped service pass,
``_finish_batch`` makes those calls inline — and read it back when the
registry is snapshotted.  The reference here is the push model they
replaced, run separately on the :class:`~tests.engine_oracle.HeapOracle`
engine, where every service takes the scalar chain: test-side wrappers
of ``Resource.offer`` and ``Resource._pop_head`` update the oracle's
registry at every queue edge and departure, and a ``gmem.service``
subscriber at every memory service.  Every pulled value must equal the
oracle's exactly — counts, float sums, histogram statistics, busy
timelines — and so must the ``reg.*`` series a :class:`MetricTimeline`
samples from the registry mid-run.
"""

import heapq
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.core.context
from repro.core.config import CedarConfig
from repro.core.context import add_context_observer, remove_context_observer
from repro.core.machine import CedarMachine
from repro.experiments.kernels_sim import _run
from repro.monitor.metrics import MetricsRegistry, Occupancy, ServiceAccount, Timeline
from repro.monitor.monitors import (
    PULL_MONITORS,
    PUSH_MONITORS,
    attach_standard_monitors,
    detach_monitors,
)
from repro.monitor.timeline import MetricTimeline
from repro.network.resource import Resource
from tests.engine_oracle import HeapOracle


class PulsedHeapOracle(HeapOracle):
    """The heap oracle with :meth:`Engine.attach_pulse`'s cadence:
    ``pulse(engine)`` at the first bucket boundary after every ``every``
    dispatched events.  A bucket is the events of one timestamp queued
    when the engine reaches it; same-time events scheduled while it runs
    form the next bucket.  A stopped run checks nothing at its cut."""

    _pulse = None
    _issued = 0
    _since = 0

    def schedule(self, when, callback, *args):
        record = super().schedule(when, callback, *args)
        self._issued = record[1] + 1
        return record

    def attach_pulse(self, pulse, every):
        self._pulse, self._every, self._since = pulse, every, 0
        return pulse

    def _boundary(self):
        if self._pulse is not None and self._since >= self._every:
            self._since = 0
            self._pulse(self)

    def run(self):
        self._stop = False
        bucket = None  # (time, first seq of the next bucket)
        while self._heap:
            when, seq = self._heap[0][0], self._heap[0][1]
            if bucket is not None and (when != bucket[0] or seq >= bucket[1]):
                self._boundary()
                bucket = None
            if bucket is None:
                bucket = (when, self._issued)
            record = heapq.heappop(self._heap)
            self._now = when
            callback, args = record[2], record[3]
            if callback is None:
                self._cancelled -= 1
                continue
            record[2] = None
            callback(*args)
            self.events_processed += 1
            self._since += 1
            if self._stop:
                return self._now
        if bucket is not None:
            self._boundary()
        return self._now


class PushOracle:
    """The push accounting the pull model replaced, kept as the
    reference: one registry update per queue edge and per departure of
    every network link, memory module and cluster bank, and one per
    ``gmem.service`` emission.  :func:`push_wrappers` feeds it."""

    def __init__(self, metrics, bin_cycles=256.0, histogram_hi=64.0):
        self.metrics = metrics
        self.bin_cycles = bin_cycles
        self.histogram_hi = histogram_hi
        self._ctx = None
        self._sub = None

    def attach(self, ctx, owners):
        """Claim ``ctx``'s queueing resources in ``owners`` (resource ->
        ``(oracle, kind)``; a shared-fabric link is claimed once, by its
        first network) and subscribe to ``gmem.service``."""

        def claim(_name, component):
            if hasattr(component, "stages"):
                links = list(component.injection_ports)
                links += [link for stage in component.stages for link in stage]
                kind = "net"
            elif hasattr(component, "modules"):
                links, kind = component.modules, "gmem"
            elif hasattr(component, "cluster_memory"):
                links = (component.cache, component.cluster_memory)
                kind = "cluster"
            else:
                return
            for link in links:
                owners.setdefault(link, (self, kind))

        self._ctx = ctx
        ctx.watch(claim)
        self._claim = claim
        self._sub = ctx.bus.subscribe("gmem.service", self._service)
        return self

    def detach(self):
        if self._ctx is not None:
            self._ctx.unwatch(self._claim)
            self._ctx.bus.unsubscribe(self._sub)
            self._ctx = None

    def depart(self, kind, resource, words, time):
        if kind == "net":
            base = f"net.{resource.name}"
            timeline = "net." + resource.name.split("[", 1)[0]
        elif kind == "cluster":
            base = f"cluster.{resource.name}"
            timeline = f"{base}.busy"
        else:
            return
        m = self.metrics
        m.counter(f"{base}.packets").inc()
        m.counter(f"{base}.words").inc(words)
        duration = resource.fixed_cycles + words / resource.words_per_cycle
        m.timeline(timeline, self.bin_cycles).add(time - duration, duration)

    def queue(self, resource, time):
        m = self.metrics
        m.time_weighted(f"{resource.name}.queue_words").update(
            resource.queued_words, time
        )
        m.histogram(
            f"{resource.name}.queue_dist",
            0.0,
            float(max(resource.capacity_words, 1)) + 1.0,
            bins=min(64, resource.capacity_words + 2),
        ).record(resource.queued_words)

    def _service(self, module, packet, time, cycles):
        m = self.metrics
        base = f"gmem.module[{module}]"
        m.counter(f"{base}.services").inc()
        m.counter(f"{base}.words").inc(packet.words)
        m.histogram(f"{base}.service_cycles", 0.0, self.histogram_hi).record(cycles)
        m.timeline("gmem.busy", self.bin_cycles).add(time - cycles, cycles)


def push_wrappers(m, owners):
    """Patch ``Resource.offer`` and ``Resource._pop_head`` so every
    accepted offer and every departure on a resource in ``owners``
    updates its oracle, in the scalar chain's order: the queue edge,
    then (for links and cluster banks) the departure's traffic."""
    offer, pop = Resource.offer, Resource._pop_head

    def offered(self, transit):
        accepted = offer(self, transit)
        owner = owners.get(self)
        if accepted and owner is not None:
            owner[0].queue(self, self.engine.now)
        return accepted

    def popped(self, transit):
        words = transit.packet.words  # read before a consumed packet recycles
        pop(self, transit)
        owner = owners.get(self)
        if owner is not None:
            oracle, kind = owner
            now = self.engine.now
            oracle.queue(self, now)
            oracle.depart(kind, self, words, now)

    m.setattr(Resource, "offer", offered)
    m.setattr(Resource, "_pop_head", popped)


def _each_machine(run, observe_machine):
    attached = []
    observer = add_context_observer(lambda ctx: attached.append(observe_machine(ctx)))
    try:
        run()
    finally:
        remove_context_observer(observer)
    return attached


def _timelines(ctx, registry, interval):
    if interval is None:
        return None
    timeline = MetricTimeline([], interval_cycles=interval, registry=registry)
    ctx.engine.attach_pulse(timeline.pulse, every=64)
    return timeline


def observed(monkeypatch, run, timeline_interval=None):
    """Run ``run()`` twice: on :class:`Engine` with the standard
    monitors on every machine it builds, and on the pulsed heap oracle
    with the push oracle (plus the same cold push monitors).  Returns
    ``(ctx, pulled, oracle, timelines)`` per machine; ``timelines`` is
    a (pulled, oracle) pair of registry-sampling :class:`MetricTimeline`
    when an interval is set."""
    monitors = []

    def pulled_machine(ctx):
        registry = MetricsRegistry()
        monitors.append(attach_standard_monitors(ctx, registry))
        return ctx, registry, _timelines(ctx, registry, timeline_interval)

    pulled = _each_machine(run, pulled_machine)
    for attached in monitors:
        detach_monitors(attached)

    owners = {}
    oracles = []

    def oracle_machine(ctx):
        registry = MetricsRegistry()
        oracles.append(PushOracle(registry).attach(ctx, owners))
        oracles.extend(cls(registry).attach(ctx.bus) for cls in PUSH_MONITORS)
        return ctx, registry, _timelines(ctx, registry, timeline_interval)

    with monkeypatch.context() as m:
        m.setattr(repro.core.context, "Engine", PulsedHeapOracle)
        push_wrappers(m, owners)
        try:
            oracle = _each_machine(run, oracle_machine)
        finally:
            detach_monitors(oracles)
    assert len(pulled) == len(oracle)
    records = []
    for (ctx, registry, pulled_tl), (oracle_ctx, oracle_reg, oracle_tl) in zip(
        pulled, oracle
    ):
        assert type(oracle_ctx.engine) is PulsedHeapOracle
        assert oracle_ctx.engine.now == ctx.engine.now
        timelines = None if pulled_tl is None else (pulled_tl, oracle_tl)
        records.append((ctx, registry, oracle_reg, timelines))
    return records


def assert_snapshots_match(records):
    assert records, "no machine was built"
    for ctx, pulled, oracle, _timelines in records:
        now = ctx.engine.now
        assert pulled.snapshot(now=now) == oracle.snapshot(now=now)
        assert pulled.names() == oracle.names()


def with_network(**fields):
    config = CedarConfig()
    return replace(config, network=replace(config.network, **fields))


class TestPulledMatchesOracle:
    @pytest.mark.parametrize("prefetch", [False, True], ids=["GM-no-pref", "GM-pref"])
    def test_rk_slice_32_ces(self, monkeypatch, prefetch):
        records = observed(
            monkeypatch, lambda: _run(CedarConfig(), "RK", 32, prefetch, 1)
        )
        assert_snapshots_match(records)
        snap = records[0][1].snapshot(now=records[0][0].engine.now)
        assert snap["gmem.busy"]["busy_cycles"] > 0
        assert any(k.endswith(".queue_dist") and k.startswith("gm[") for k in snap)

    def test_fault_injected_run(self, monkeypatch):
        from repro.faults import FaultPlan

        config = CedarConfig(faults=FaultPlan.uniform(0.05, seed=13))
        records = observed(monkeypatch, lambda: _run(config, "CG", 8, True, 2))
        assert_snapshots_match(records)
        snap = records[0][1].snapshot(now=records[0][0].engine.now)
        assert snap.get("fault.transients", 0) > 0  # faults really fired

    @pytest.mark.parametrize("escape", [False, True], ids=["shared", "shared-escape"])
    def test_shared_single_network(self, monkeypatch, escape):
        config = with_network(shared_single_network=True, reply_escape=escape)
        records = observed(monkeypatch, lambda: _run(config, "CG", 4, True, 2))
        assert_snapshots_match(records)
        snap = records[0][1].snapshot(now=records[0][0].engine.now)
        assert "net.fwd.s0" in snap  # stage links counted once, under fwd
        assert not any(k.startswith("net.rev.s") for k in snap)

    def test_idle_machine_has_no_instruments(self, monkeypatch):
        from repro.experiments.fig1 import topology_summary

        records = observed(monkeypatch, topology_summary)
        assert_snapshots_match(records)
        for ctx, pulled, _oracle, _timelines in records:
            assert ctx.engine.now == 0.0
            assert pulled.snapshot(now=0.0) == {}
            assert len(pulled) == 0

    def test_metric_timeline_registry_series(self, monkeypatch):
        records = observed(
            monkeypatch,
            lambda: _run(CedarConfig(), "RK", 32, True, 1),
            timeline_interval=4.0,
        )
        backfilled = 0
        for ctx, _pulled, _oracle, (pulled_tl, oracle_tl) in records:
            docs = []
            for timeline in (pulled_tl, oracle_tl):
                timeline.finalize(ctx.engine.now)
                series = timeline.to_dict()["series"]
                docs.append({k: v for k, v in series.items() if k.startswith("reg.")})
            assert docs[0] == docs[1]
            assert pulled_tl.intervals > 1
            # groups first seen mid-run (the reverse network, which only
            # carries replies) are zero back-filled on both sides
            backfilled += sum(
                1 for entry in docs[0].values()
                if entry["values"][0] == 0 and any(entry["values"])
            )
        assert backfilled > 0


def reference_bins(intervals, bin_cycles):
    """The ``Timeline.add`` loop, kept here as the reference for the
    one-bin shortcut in ``Occupancy.depart``."""
    bins = {}
    for start, duration in intervals:
        if duration <= 0:
            continue
        start = max(0.0, start)
        end = start + duration
        idx = int(start // bin_cycles)
        while start < end:
            edge = (idx + 1) * bin_cycles
            bins[idx] = bins.get(idx, 0.0) + (min(end, edge) - start)
            start = edge
            idx += 1
    return bins


_departures = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),  # now
        st.floats(min_value=0.0, max_value=600.0, allow_nan=False),  # duration
    ),
    min_size=1,
    max_size=12,
)


class TestBusyCredit:
    """The busy credit of ``Occupancy.depart`` (one dict update when the
    interval sits inside one bin) and ``ServiceAccount.record`` must
    leave the bins bit-identical to the reference loop."""

    @settings(max_examples=200, deadline=None)
    @given(
        departures=_departures,
        bin_cycles=st.sampled_from([0.1, 1.0, 3.0, 7.5, 64.0, 256.0]),
    )
    @example(departures=[(260.0, 4.0)], bin_cycles=256.0)  # starts on an edge
    @example(departures=[(512.0, 6.0)], bin_cycles=256.0)  # ends on an edge
    @example(departures=[(700.0, 600.0)], bin_cycles=256.0)  # three bins
    @example(departures=[(10.0, 0.0)], bin_cycles=256.0)  # zero duration
    @example(departures=[(3.0, 5.0)], bin_cycles=256.0)  # starts before zero
    def test_bins_match_reference_loop(self, departures, bin_cycles):
        occupancy = Occupancy(Timeline("link", bin_cycles))
        account = ServiceAccount(Timeline("module", bin_cycles))
        for now, duration in departures:
            occupancy.depart(0, 1, duration, now)
            account.record(1, duration, now)
        expected = reference_bins(
            [(now - duration, duration) for now, duration in departures], bin_cycles
        )
        # bit for bit, in insertion order (busy_cycles sums in that order)
        want = [(idx, busy.hex()) for idx, busy in expected.items()]
        assert [(i, b.hex()) for i, b in occupancy.busy._bins.items()] == want
        assert [(i, b.hex()) for i, b in account.busy._bins.items()] == want


class TestPullLifecycle:
    def run_small(self, machine):
        from repro.cluster.ce import AwaitStream, StartPrefetch, SyncInstruction

        def prog():
            stream = yield StartPrefetch(length=16, stride=1, address=0)
            yield AwaitStream(stream)
            yield SyncInstruction(address=4096)

        return machine.run_programs({0: prog(), 1: prog()})

    def pull_only(self, machine):
        registry = MetricsRegistry()
        monitors = [cls(registry).attach(machine.ctx) for cls in PULL_MONITORS]
        return registry, monitors

    def test_reset_machine_reports_like_a_fresh_one(self):
        fresh = CedarMachine(CedarConfig(), monitor_port=0)
        fresh_reg, _ = self.pull_only(fresh)
        self.run_small(fresh)

        reused = CedarMachine(CedarConfig(), monitor_port=0)
        reused_reg, _ = self.pull_only(reused)
        self.run_small(reused)
        reused.reset()
        assert reused_reg.snapshot(now=0.0) == {}
        self.run_small(reused)
        now = fresh.engine.now
        assert reused.engine.now == now
        assert reused_reg.snapshot(now=now) == fresh_reg.snapshot(now=now)

    def test_components_added_after_attach_are_armed(self):
        """A context observer fires before assembly: arming must reach
        components registered later."""
        attached = []
        observer = add_context_observer(
            lambda ctx: attached.extend(attach_standard_monitors(ctx))
        )
        try:
            machine = CedarMachine(CedarConfig(), monitor_port=0)
        finally:
            remove_context_observer(observer)
        links = [p for p in machine.forward_network.injection_ports]
        links += [link for stage in machine.forward_network.stages for link in stage]
        assert all(link.occupancy is not None for link in links)
        assert all(m.service_account is not None for m in machine.gmem.modules)
        assert all(c.cache.occupancy is not None for c in machine.clusters)
        detach_monitors(attached)

    def test_detach_disarms_and_freezes(self):
        machine = CedarMachine(CedarConfig(), monitor_port=0)
        registry = MetricsRegistry()
        monitors = attach_standard_monitors(machine.ctx, registry)
        self.run_small(machine)
        now = machine.engine.now
        before = registry.snapshot(now=now)
        detach_monitors(monitors)
        assert all(m.occupancy is None and m.service_account is None
                   for m in machine.gmem.modules)
        assert all(p.occupancy is None for p in machine.forward_network.injection_ports)
        machine.reset()
        self.run_small(machine)
        assert registry.snapshot(now=now) == before
