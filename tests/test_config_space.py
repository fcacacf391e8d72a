"""Robustness over the machine configuration space: any sensible
CedarConfig must build, run traffic, and conserve it."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.ce import AwaitStream, StartPrefetch
from repro.core.config import (
    CedarConfig,
    GlobalMemoryConfig,
    NetworkConfig,
)
from repro.core.engine import Watchdog
from repro.core.machine import CedarMachine

config_strategy = st.builds(
    lambda clusters, ces, modules, queue, inject, access, recovery: CedarConfig(
        clusters=clusters,
        ces_per_cluster=ces,
        network=NetworkConfig(queue_words=queue, injection_queue_words=inject),
        global_memory=GlobalMemoryConfig(
            modules=modules, access_cycles=access, recovery_cycles=recovery
        ),
    ),
    clusters=st.sampled_from([1, 2, 4, 8]),
    ces=st.sampled_from([2, 4, 8]),
    modules=st.sampled_from([8, 16, 32, 64]),
    queue=st.integers(min_value=1, max_value=8),
    inject=st.integers(min_value=1, max_value=8),
    access=st.integers(min_value=1, max_value=6),
    recovery=st.sampled_from([0.0, 1.0, 2.0]),
)


class TestConfigurationSpace:
    @given(config=config_strategy)
    @settings(max_examples=25, deadline=None)
    def test_any_config_builds_and_conserves_traffic(self, config):
        machine = CedarMachine(config, monitor_port=0)
        n_ces = min(4, config.total_ces)

        def prog(port):
            stream = yield StartPrefetch(length=24, stride=1, address=port * 64)
            yield AwaitStream(stream)

        machine.run_programs(
            {p: prog(p) for p in range(n_ces)},
            watchdog=Watchdog(max_events=500_000),
        )
        assert machine.gmem.total_reads == 24 * n_ces
        summary = machine.probe.summary()
        assert summary.first_word_latency > 0
        assert summary.interarrival >= 0

    @given(config=config_strategy)
    @settings(max_examples=10, deadline=None)
    def test_topology_description_consistent(self, config):
        machine = CedarMachine(config)
        info = machine.describe_topology()
        assert info["total_ces"] == config.clusters * config.ces_per_cluster
        assert info["memory_modules"] == config.global_memory.modules

    def test_odd_port_counts_rejected_cleanly(self):
        """Port counts that cannot factor into <=8-radix stages raise a
        clear error instead of building a broken network."""
        config = CedarConfig(
            clusters=1,
            ces_per_cluster=8,
            global_memory=GlobalMemoryConfig(modules=11),
        )
        with pytest.raises(ValueError):
            CedarMachine(config)
