"""Tests for weak ordering and the fence operation."""

import pytest

from repro.cluster.ce import Compute, Fence, GlobalStore
from repro.core.config import CedarConfig
from repro.core.machine import CedarMachine


class TestFence:
    def test_fence_with_no_stores_is_immediate(self):
        machine = CedarMachine(CedarConfig())
        marks = {}

        def prog():
            yield Fence()
            marks["t"] = machine.engine.now

        machine.run_programs({0: prog()})
        assert marks["t"] == 0.0

    def test_fence_waits_for_outstanding_stores(self):
        machine = CedarMachine(CedarConfig())
        marks = {}

        def prog():
            yield GlobalStore(length=16, stride=1, address=0)
            marks["issued"] = machine.engine.now
            yield Fence()
            marks["fenced"] = machine.engine.now

        machine.run_programs({0: prog()})
        # issuing is cheap; the fence pays the memory round trip
        assert marks["fenced"] > marks["issued"] + 4.0
        assert machine.gmem.total_writes == 16

    def test_stores_complete_before_fence_returns(self):
        machine = CedarMachine(CedarConfig())
        seen = {}

        def prog():
            yield GlobalStore(length=8, stride=1, address=0)
            yield Fence()
            seen["writes_at_fence"] = machine.gmem.total_writes

        machine.run_programs({0: prog()})
        assert seen["writes_at_fence"] == 8

    def test_weak_ordering_without_fence(self):
        """Without a fence the CE races ahead of its stores — the
        weakly ordered behaviour that makes the fence necessary."""
        machine = CedarMachine(CedarConfig())
        seen = {}

        def prog():
            yield GlobalStore(length=8, stride=1, address=0)
            seen["writes_after_issue"] = machine.gmem.total_writes
            yield Compute(1)

        machine.run_programs({0: prog()})
        assert seen["writes_after_issue"] < 8  # not yet globally visible

    def test_fence_then_more_stores(self):
        machine = CedarMachine(CedarConfig())

        def prog():
            yield GlobalStore(length=4, stride=1, address=0)
            yield Fence()
            yield GlobalStore(length=4, stride=1, address=64)
            yield Fence()

        machine.run_programs({0: prog()})
        assert machine.gmem.total_writes == 8


class TestSharedNetworkAblation:
    def test_shared_fabric_deadlocks_under_load(self):
        """The design rationale for Cedar's two unidirectional
        networks: a shared request/reply fabric has a circular wait
        (replies stuck behind requests whose modules cannot drain) and
        deadlocks under kernel load — and reply-only injection escape
        does not save it, because the cycle closes through the shared
        stage buffers.  Only fully separate buffering (the two-network
        design) is deadlock-free by construction."""
        from repro.experiments.ablations import ablate_shared_network

        two, one, escape = ablate_shared_network(kernel="RK", n_ces=16)
        assert two.mflops > 0 and "DEADLOCK" not in two.setting
        assert "DEADLOCK" in one.setting
        assert "DEADLOCK" in escape.setting

    def test_stalled_fabric_is_caught_by_the_stall_window(self):
        """The deadlocked machine stops at its first stalled watchdog
        window, well inside the ablation's 1.2M-event budget, instead of
        running the budget out."""
        from repro.core.context import (
            add_context_observer,
            remove_context_observer,
        )
        from repro.experiments.ablations import ablate_shared_network

        engines = []
        observer = add_context_observer(lambda ctx: engines.append(ctx.engine))
        try:
            rows = ablate_shared_network.__wrapped__(kernel="RK", n_ces=8)
        finally:
            remove_context_observer(observer)
        assert rows[1].setting == "one shared network [DEADLOCK]"
        assert len(engines) == len(rows)
        assert engines[1].events_processed < 1_200_000

    def test_shared_network_machine_still_correct(self):
        from dataclasses import replace

        from repro.cluster.ce import AwaitStream, StartPrefetch

        config = CedarConfig()
        config = replace(
            config, network=replace(config.network, shared_single_network=True)
        )
        machine = CedarMachine(config, monitor_port=0)

        def prog():
            s = yield StartPrefetch(length=32, stride=1, address=0)
            yield AwaitStream(s)

        machine.run_programs({0: prog()})
        assert machine.probe.summary().samples_latency == 1
        assert machine.reverse_network is machine.forward_network
