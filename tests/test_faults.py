"""Fault-injection subsystem: plans, determinism, degradation, routing.

The contract under test (docs/ROBUSTNESS.md):

* a :class:`FaultPlan` is validated, seeded *data* hashed into the
  config, and an all-zero plan builds no injector at all;
* the same plan on the same machine reproduces the same faults and the
  same cycle counts, run after run and reset after reset;
* faults only ever slow the machine down — they are stalls and
  reroutes, never lost traffic — so every program still completes;
* down ports trigger degraded-mode escape routing through the reverse
  fabric, visible in the ``rerouted`` counter and ``fault.*`` metrics.
"""

import pytest

from repro.core.config import CedarConfig
from repro.core.machine import CedarMachine
from repro.cluster.ce import SyncInstruction
from repro.experiments.kernels_sim import _run
from repro.faults import FaultInjector, FaultPlan
from repro.kernels.programs import KERNELS, kernel_program
from repro.monitor.metrics import MetricsRegistry
from repro.monitor.monitors import attach_standard_monitors, detach_monitors


def run_kernel(plan=None, kernel="CG", n_ces=2, strips=2):
    """Cycle count + rates of one small kernel run (fresh machine)."""
    config = CedarConfig() if plan is None else CedarConfig(faults=plan)
    return _run(config, kernel, n_ces, True, strips)


def build_and_run(plan, kernel="CG", n_ces=2, strips=2):
    """Like :func:`run_kernel` but keeps the machine for inspection."""
    machine = CedarMachine(CedarConfig(faults=plan), monitor_port=0)
    shape = KERNELS[kernel]
    programs = {
        port: kernel_program(shape, port, strips, prefetch=True)
        for port in range(n_ces)
    }
    cycles = machine.run_programs(programs)
    return machine, cycles


class TestFaultPlan:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(switch_fail_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(ecc_rate=-0.1)

    def test_backoff_must_be_positive_and_non_shrinking(self):
        with pytest.raises(ValueError):
            FaultPlan(backoff_factor=0.5)
        with pytest.raises(ValueError):
            FaultPlan(backoff_base_cycles=0.0)

    def test_inert_plan_is_disabled_regardless_of_seed(self):
        assert not FaultPlan().enabled
        assert not FaultPlan(seed=99).enabled
        assert FaultPlan(ecc_rate=0.01).enabled

    def test_uniform_sets_every_fault_class(self):
        plan = FaultPlan.uniform(0.02, seed=7)
        assert plan.switch_fail_rate == plan.ecc_rate == 0.02
        assert plan.sync_timeout_rate == 0.02
        assert plan.port_down_rate == pytest.approx(0.002)
        assert plan.with_seed(8) == FaultPlan.uniform(0.02, seed=8)

    def test_plan_is_part_of_the_config_hash(self):
        assert (
            CedarConfig().stable_hash()
            != CedarConfig(faults=FaultPlan.uniform(0.02)).stable_hash()
        )
        # ... but the seed alone matters too: cached results keyed by
        # config must distinguish different fault schedules.
        assert (
            CedarConfig(faults=FaultPlan.uniform(0.02, seed=1)).stable_hash()
            != CedarConfig(faults=FaultPlan.uniform(0.02, seed=2)).stable_hash()
        )


class TestAssembly:
    def test_inert_plan_builds_no_injector(self):
        machine = CedarMachine(CedarConfig())
        assert machine.faults is None

    def test_enabled_plan_arms_every_site(self):
        machine = CedarMachine(CedarConfig(faults=FaultPlan.uniform(0.01)))
        injector = machine.faults
        assert injector is not None
        description = injector.describe()
        assert description["sites"] > 0
        # the default dual-fabric machine gets an escape route per fabric
        assert description["escape_routes"] == 2

    def test_explicit_install_on_assembled_machine(self):
        machine = CedarMachine(CedarConfig())
        injector = FaultInjector(FaultPlan(ecc_rate=0.5, seed=3)).install(machine)
        assert machine.ctx.component("faults") is injector
        shape = KERNELS["CG"]
        machine.run_programs(
            {0: kernel_program(shape, 0, 2, prefetch=True)}
        )
        assert injector.ecc_retries > 0


class TestDeterminism:
    def test_same_seed_reproduces_cycles_exactly(self):
        plan = FaultPlan.uniform(0.02, seed=7)
        assert run_kernel(plan) == run_kernel(plan)

    def test_faults_slow_the_machine_down_but_never_lose_work(self):
        baseline = run_kernel()
        faulted = run_kernel(FaultPlan.uniform(0.02, seed=7))
        # the kernel completed (run_programs raises otherwise) and took
        # strictly longer: faults are stalls, not lost traffic.
        assert faulted.cycles > baseline.cycles

    def test_reset_replays_the_same_fault_schedule(self):
        plan = FaultPlan.uniform(0.02, seed=11)
        machine, first = build_and_run(plan)
        transients = machine.faults.transients
        machine.reset()
        assert machine.faults.stats()["transients"] == 0
        shape = KERNELS["CG"]
        second = machine.run_programs(
            {port: kernel_program(shape, port, 2, prefetch=True) for port in range(2)}
        )
        assert second == first
        assert machine.faults.transients == transients


class TestCountersAndSignals:
    def test_injector_counters_mirror_memory_stats(self):
        machine, _cycles = build_and_run(FaultPlan(ecc_rate=0.2, seed=5))
        injector = machine.faults
        assert injector.ecc_retries > 0
        assert machine.gmem.stats()["ecc_retries"] == injector.ecc_retries

    def test_sync_timeouts_fire_on_sync_traffic(self):
        config = CedarConfig(faults=FaultPlan(sync_timeout_rate=0.5, seed=1))
        machine = CedarMachine(config)
        modules = config.global_memory.modules

        def program(port):
            for i in range(16):
                yield SyncInstruction(address=port + i * (modules + 1))

        machine.run_programs({port: program(port) for port in range(4)})
        assert machine.faults.sync_timeouts > 0
        assert (
            machine.gmem.stats()["sync_timeouts"] == machine.faults.sync_timeouts
        )

    def test_fault_monitor_counts_match_the_injector(self):
        registry = MetricsRegistry()
        machine = CedarMachine(
            CedarConfig(faults=FaultPlan.uniform(0.05, seed=13)), monitor_port=0
        )
        monitors = attach_standard_monitors(machine.ctx, registry)
        try:
            shape = KERNELS["CG"]
            machine.run_programs(
                {
                    port: kernel_program(shape, port, 2, prefetch=True)
                    for port in range(2)
                }
            )
        finally:
            detach_monitors(monitors)
        injector = machine.faults
        assert registry.counter("fault.transients").value == injector.transients
        assert registry.counter("fault.ecc_retries").value == injector.ecc_retries


class TestEscapeRouting:
    def test_down_ports_reroute_new_injections(self):
        # outages frequent and long enough that some injection's route
        # crosses a down port while it is still down.
        plan = FaultPlan(port_down_rate=0.2, port_down_cycles=150.0, seed=3)
        machine, _cycles = build_and_run(plan, n_ces=4, strips=4)
        injector = machine.faults
        assert injector.port_downs > 0
        assert injector.rerouted > 0
        assert injector.stats()["rerouted"] == injector.rerouted

    def test_reroutes_are_deterministic_per_seed(self):
        plan = FaultPlan(port_down_rate=0.2, port_down_cycles=150.0, seed=3)
        first_machine, first = build_and_run(plan, n_ces=4, strips=4)
        second_machine, second = build_and_run(plan, n_ces=4, strips=4)
        assert first == second
        assert first_machine.faults.stats() == second_machine.faults.stats()
