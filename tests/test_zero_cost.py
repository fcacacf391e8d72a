"""The zero-cost guarantee: monitoring never changes simulated results.

The signal bus promises that attaching any broadcast subscriber — a
ChromeTracer, the standard utilization monitors, a ReportCollector —
changes wall-clock speed only; every cycle count and every rendered
experiment artifact must be bit-identical to the unmonitored run.
"""

import pytest

from repro.core.config import CedarConfig
from repro.experiments.kernels_sim import _run
from repro.experiments.runner import observe
from repro.monitor.metrics import MetricsRegistry
from repro.monitor.monitors import attach_standard_monitors, detach_monitors
from repro.monitor.report import ReportCollector
from repro.monitor.tracer import ChromeTracer


def measure(kernel="CG", n_ces=2, strips=2, prefetch=True):
    """One small kernel simulation on a fresh machine (bypasses the
    process-wide memo cache, which would hide any perturbation)."""
    return _run(CedarConfig(), kernel, n_ces, prefetch, strips)


class TestZeroCost:
    def test_chrome_tracer_does_not_change_cycles(self):
        baseline = measure()
        tracer = ChromeTracer()
        with observe(lambda ctx: tracer.attach(ctx.bus).detach):
            traced = measure()
        assert len(tracer.events) > 0  # the tracer really was attached
        assert traced == baseline  # cycles, rates, probe metrics: identical

    def test_standard_monitors_do_not_change_cycles(self):
        baseline = measure()
        registry = MetricsRegistry()

        def attach(ctx):
            monitors = attach_standard_monitors(ctx, registry)
            return lambda: detach_monitors(monitors)

        with observe(attach):
            monitored = measure()
        assert len(registry) > 0  # the monitors really saw traffic
        assert monitored == baseline

    def test_span_collector_does_not_change_cycles(self):
        """Request tracing is a pure observer: stitching every span in
        the run must leave all simulated results bit-identical."""
        from repro.monitor.spans import SpanCollector

        baseline = measure()
        collectors = []

        def attach(ctx):
            collectors.append(SpanCollector().attach(ctx.bus))
            return collectors[-1].detach

        with observe(attach):
            traced = measure()
        assert sum(c.completed for c in collectors) > 0  # spans were stitched
        assert traced == baseline

    def test_timeline_recorder_does_not_change_cycles(self):
        """Interval sampling rides the engine pulse, which only *reads*
        machine state: a timeline-enabled run must be cycle-bit-identical
        to the bare run, at every metric the experiment reports."""
        from repro.monitor.timeline import TimelineRecorder

        baseline = measure()
        recorder = TimelineRecorder(interval_cycles=64.0)
        with observe(recorder):
            sampled = measure()
        assert recorder.machines >= 1
        docs = recorder.documents()
        assert any(d["intervals"] > 0 for d in docs)  # sampling happened
        assert any(  # the probes saw real traffic, not a detached pulse
            sum(d["series"]["engine.events"]["values"]) > 0 for d in docs
        )
        assert sampled == baseline

    def test_detached_pulse_leaves_no_residue(self):
        """After an observed block, the engine is back on the
        unchecked fast path and a re-run reproduces the bare results."""
        from repro.monitor.timeline import TimelineRecorder

        baseline = measure()
        with observe(TimelineRecorder(interval_cycles=64.0)):
            measure()
        assert measure() == baseline

    def test_packet_pool_off_is_bit_identical(self):
        """The packet free list is pure mechanism: recycled and freshly
        allocated packets must drive identical simulations."""
        from repro.network.packet import set_pool_enabled

        pooled = measure()
        try:
            set_pool_enabled(False)
            unpooled = measure()
        finally:
            set_pool_enabled(True)
        assert unpooled == pooled

    def test_unmonitored_emission_sites_are_inert(self):
        """The cached-emission contract: on a machine nobody monitors,
        every pre-resolved span channel has an empty callbacks tuple, so
        each emission site is one falsy truthiness branch — and a run on
        such a machine matches one where the channels were never wired."""
        from repro.core.machine import CedarMachine

        machine = CedarMachine(CedarConfig())
        networks = (machine.forward_network, machine.reverse_network)
        sites = [p for net in networks for p in net.injection_ports]
        sites += [
            link for net in networks for stage in net.stages for link in stage
        ]
        sites += list(machine.gmem.modules)
        assert len(sites) > 8  # ports, stage links, memory modules
        for resource in sites:
            assert resource.span_signal.callbacks == ()
            assert resource.occupancy is None  # no accounting armed

    def test_no_prefetch_path_is_also_unperturbed(self):
        baseline = measure(prefetch=False)
        tracer = ChromeTracer()
        with observe(lambda ctx: tracer.attach(ctx.bus).detach):
            traced = measure(prefetch=False)
        assert traced == baseline

    def test_experiment_text_is_identical_under_collection(self):
        """A full rendered artifact must not change when every machine it
        builds is instrumented by a ReportCollector."""
        from repro.experiments.characterization import (
            render_characterization,
            run_characterization,
        )

        run_characterization.cache_clear()
        baseline = render_characterization(run_characterization())
        collector = ReportCollector()
        with observe(collector):
            instrumented = render_characterization(run_characterization())
        run_characterization.cache_clear()
        assert collector.machines >= 1  # collection really happened
        assert instrumented == baseline

    def test_inert_fault_plan_is_bit_identical(self):
        """An all-zero FaultPlan builds no injector: the machine must be
        indistinguishable from one assembled before the faults
        subsystem existed (the zero-cost guarantee, extended)."""
        from repro.faults import FaultPlan

        baseline = measure()
        inert = _run(CedarConfig(faults=FaultPlan(seed=99)), "CG", 2, True, 2)
        assert inert == baseline

    def test_armed_but_zero_rate_injector_is_bit_identical(self):
        """Even an explicitly-installed injector with every rate at zero
        must not perturb the simulation: hooks roll no dice and the
        fault router never fires when nothing is down."""
        from repro.core.machine import CedarMachine
        from repro.faults import FaultInjector, FaultPlan
        from repro.kernels.programs import KERNELS, kernel_program

        def programs():
            return {
                port: kernel_program(KERNELS["CG"], port, 2, prefetch=True)
                for port in range(2)
            }

        bare = CedarMachine(CedarConfig()).run_programs(programs())
        armed = CedarMachine(CedarConfig())
        injector = FaultInjector(FaultPlan()).install(armed)
        assert injector.describe()["sites"] > 0  # hooks really are armed
        assert armed.run_programs(programs()) == bare
        assert injector.stats()["transients"] == 0

    def test_rerun_on_same_machine_is_deterministic(self):
        """Attach/detach cycles leave no residue: a monitored machine,
        reset and re-run unmonitored, reproduces its first run; and a
        reused machine, reset and then monitored, reports exactly what a
        fresh machine does."""
        from repro.core.machine import CedarMachine
        from repro.cluster.ce import AwaitStream, StartPrefetch

        def prog():
            stream = yield StartPrefetch(length=8, stride=1, address=0)
            yield AwaitStream(stream)

        fresh = CedarMachine(CedarConfig(), monitor_port=0)
        fresh_registry = MetricsRegistry()
        fresh_monitors = attach_standard_monitors(fresh.ctx, fresh_registry)
        fresh.run_programs({0: prog()})
        detach_monitors(fresh_monitors)

        machine = CedarMachine(CedarConfig(), monitor_port=0)
        first = machine.run_programs({0: prog()})
        machine.reset()
        registry = MetricsRegistry()
        monitors = attach_standard_monitors(machine.ctx, registry)
        tracer = ChromeTracer().attach(machine.bus)
        second = machine.run_programs({0: prog()})
        detach_monitors(monitors)
        tracer.detach()
        now = machine.engine.now
        assert registry.snapshot(now=now) == fresh_registry.snapshot(now=now)
        machine.reset()
        third = machine.run_programs({0: prog()})
        assert first == second == third
        # detaching disarmed every accumulator: the fast paths are back
        assert all(m.occupancy is None for m in machine.gmem.modules)
