"""Time-resolved observability: interval timelines and the recorder.

The MetricTimeline contract: delta series conserve their cumulative
totals across any number of power-of-two coalesces, gauge series keep
peaks, memory stays bounded at ``max_intervals`` no matter how long the
run, and a pulse-driven timeline never perturbs the simulation it
watches (the bit-identity half lives in ``test_zero_cost.py``).
"""

import json

import pytest

from repro.core.config import CedarConfig
from repro.core.machine import CedarMachine
from repro.kernels.programs import KERNELS, kernel_program
from repro.monitor.metrics import MetricsRegistry
from repro.monitor.timeline import (
    DEFAULT_INTERVAL_CYCLES,
    MAX_INTERVALS,
    MetricTimeline,
    SeriesProbe,
    TimelineRecorder,
    machine_probes,
    validate_timeline,
    validate_timeline_file,
)


def _counter_probe(state, name="events"):
    return SeriesProbe(name, "delta", lambda: state["n"])


def _gauge_probe(state, name="depth"):
    return SeriesProbe(name, "gauge", lambda: state["d"])


def run_kernels(machine, ces=2, strips=2):
    programs = {
        port: kernel_program(KERNELS["CG"], port, strips, prefetch=True)
        for port in range(ces)
    }
    return machine.run_programs(programs)


class TestSeriesProbe:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown series kind"):
            SeriesProbe("x", "rate", lambda: 0.0)


class TestSampling:
    def test_delta_series_stores_interval_increase(self):
        state = {"n": 0}
        tl = MetricTimeline([_counter_probe(state)], interval_cycles=10.0)
        state["n"] = 4
        tl.maybe_sample(10.0)
        state["n"] = 9
        tl.maybe_sample(20.0)
        assert tl.series("events") == [4.0, 5.0]
        assert tl.edges() == [10.0, 20.0]

    def test_gauge_series_stores_instantaneous_reading(self):
        state = {"d": 0}
        tl = MetricTimeline([_gauge_probe(state)], interval_cycles=10.0)
        state["d"] = 7
        tl.maybe_sample(10.0)
        state["d"] = 2
        tl.maybe_sample(20.0)
        assert tl.series("depth") == [7.0, 2.0]

    def test_no_sample_before_first_edge(self):
        tl = MetricTimeline([_counter_probe({"n": 0})], interval_cycles=10.0)
        tl.maybe_sample(9.999)
        assert tl.intervals == 0

    def test_event_gap_folds_into_one_wide_interval(self):
        """A long quiet stretch yields one wider interval, not a run of
        fabricated empty ones: the next edge re-anchors on the grid."""
        state = {"n": 0}
        tl = MetricTimeline([_counter_probe(state)], interval_cycles=10.0)
        state["n"] = 3
        tl.maybe_sample(57.0)  # skipped edges 10..50 fold into (0, 57]
        assert tl.edges() == [57.0]
        assert tl.series("events") == [3.0]
        state["n"] = 5
        tl.maybe_sample(60.0)  # re-anchored next edge is 60, not 67
        assert tl.edges() == [57.0, 60.0]

    def test_finalize_closes_partial_tail_and_is_idempotent(self):
        state = {"n": 0}
        tl = MetricTimeline([_counter_probe(state)], interval_cycles=10.0)
        state["n"] = 4
        tl.maybe_sample(10.0)
        state["n"] = 6
        tl.finalize(13.5)
        assert tl.edges() == [10.0, 13.5]
        assert sum(tl.series("events")) == 6.0
        tl.finalize(13.5)  # no-op: nothing advanced
        assert tl.edges() == [10.0, 13.5]

    def test_duplicate_probe_names_rejected(self):
        probes = [_counter_probe({"n": 0}), _counter_probe({"n": 0})]
        with pytest.raises(ValueError, match="duplicate series names"):
            MetricTimeline(probes)

    def test_validation_of_construction_parameters(self):
        with pytest.raises(ValueError):
            MetricTimeline([], interval_cycles=0.0)
        with pytest.raises(ValueError):
            MetricTimeline([], max_intervals=1)


class TestCoalescing:
    def test_delta_totals_conserved_and_memory_bounded(self):
        """Drive 10x the interval bound through the timeline: the count
        stays at/below ``max_intervals``, the nominal width doubles per
        coalesce, and the delta total telescopes exactly."""
        state = {"n": 0}
        tl = MetricTimeline(
            [_counter_probe(state)], interval_cycles=1.0, max_intervals=8
        )
        for t in range(1, 81):
            state["n"] = t * 3
            tl.maybe_sample(float(t))
        tl.finalize(80.0)
        assert tl.intervals <= 8
        assert tl.coalesces >= 1
        assert tl.interval_cycles == 2.0 ** tl.coalesces
        assert sum(tl.series("events")) == 240.0  # nothing lost
        edges = tl.edges()
        assert edges == sorted(edges) and edges[-1] == 80.0

    def test_gauge_coalesce_keeps_peak(self):
        state = {"d": 0}
        tl = MetricTimeline(
            [_gauge_probe(state)], interval_cycles=1.0, max_intervals=4
        )
        readings = [1, 9, 2, 3, 8, 1, 0, 5]
        for t, d in enumerate(readings, start=1):
            state["d"] = d
            tl.maybe_sample(float(t))
        assert tl.intervals <= 4
        assert max(tl.series("depth")) == 9.0  # the peak survives merging

    def test_run_of_any_length_holds_bounded_intervals(self):
        state = {"n": 0}
        tl = MetricTimeline(
            [_counter_probe(state)], interval_cycles=1.0, max_intervals=16
        )
        for t in range(1, 5001):
            state["n"] = t
            tl.maybe_sample(float(t))
        tl.finalize(5000.0)  # close the post-coalesce partial tail
        assert tl.intervals <= 16
        assert sum(tl.series("events")) == 5000.0


class TestRegistryAggregation:
    def test_indexed_instruments_collapse_and_sum(self):
        reg = MetricsRegistry()
        reg.counter("fwd.s0[0].words").inc(3)
        reg.counter("fwd.s0[1].words").inc(4)
        reg.time_weighted("gm[0].queue").update(2.0, 0.0)
        reg.time_weighted("gm[1].queue").update(5.0, 0.0)
        tl = MetricTimeline([], interval_cycles=10.0, registry=reg)
        tl.maybe_sample(10.0)
        assert tl.series("reg.fwd.s0.words") == [7.0]  # delta, summed
        assert tl.series("reg.gm.queue") == [7.0]  # gauge, summed

    def test_late_instrument_is_zero_backfilled(self):
        reg = MetricsRegistry()
        tl = MetricTimeline([], interval_cycles=10.0, registry=reg)
        tl.maybe_sample(10.0)
        reg.counter("net.drops").inc(2)
        tl.maybe_sample(20.0)
        assert tl.series("reg.net.drops") == [0.0, 2.0]


class TestMachineProbes:
    def test_probe_set_covers_the_standard_subsystems(self):
        machine = CedarMachine(CedarConfig())
        names = {p.name for p in machine_probes(machine.ctx)}
        assert "engine.events" in names and "engine.pending" in names
        assert any(".inject.queued_words" in n for n in names)
        assert any(".s0.busy" in n for n in names)
        assert any(n.endswith(".queued_pkts") for n in names)

    def test_pulse_driven_run_sees_real_traffic(self):
        machine = CedarMachine(CedarConfig())
        tl = MetricTimeline(
            machine_probes(machine.ctx), interval_cycles=64.0
        )
        machine.engine.attach_pulse(tl.pulse)
        run_kernels(machine)
        machine.engine.detach_pulse()
        tl.finalize(machine.engine.now)
        assert tl.intervals > 1
        events = tl.series("engine.events")
        assert sum(events) == machine.engine.events_processed
        assert any(v > 0 for v in tl.series("net.fwd.words"))


class TestTimelineRecorder:
    def test_records_every_machine_with_deferred_probes(self):
        """Context observers fire before machine assembly; the recorder
        must still see the full probe set (deferred factory), and its
        documents must validate."""
        from repro.experiments.runner import observe

        recorder = TimelineRecorder(interval_cycles=64.0)
        with observe(recorder):
            machine = CedarMachine(CedarConfig())
            run_kernels(machine)
        assert recorder.machines == 1
        (doc,) = recorder.documents()
        n_series, n_intervals = validate_timeline(doc)
        assert n_series > 2  # engine + network + memory probes resolved
        assert n_intervals > 0
        assert machine.engine._pulse is None  # leaving the block detached it

    def test_defaults_match_module_constants(self):
        recorder = TimelineRecorder()
        assert recorder.interval_cycles == DEFAULT_INTERVAL_CYCLES
        assert recorder.max_intervals == MAX_INTERVALS


class TestValidation:
    def _doc(self):
        state = {"n": 0}
        tl = MetricTimeline([_counter_probe(state)], interval_cycles=10.0)
        state["n"] = 5
        tl.maybe_sample(10.0)
        return tl.to_dict()

    def test_good_document_validates(self):
        assert validate_timeline(self._doc()) == (1, 1)

    def test_bad_version_rejected(self):
        doc = self._doc()
        doc["version"] = 99
        with pytest.raises(ValueError, match="version"):
            validate_timeline(doc)

    def test_nonmonotonic_edges_rejected(self):
        doc = self._doc()
        doc["edges"] = [10.0, 10.0]
        doc["intervals"] = 2
        with pytest.raises(ValueError, match="strictly increasing"):
            validate_timeline(doc)

    def test_series_length_mismatch_rejected(self):
        doc = self._doc()
        doc["series"]["events"]["values"] = [1.0, 2.0]
        with pytest.raises(ValueError, match="values for"):
            validate_timeline(doc)

    def test_nan_value_rejected(self):
        doc = self._doc()
        doc["series"]["events"]["values"] = [float("nan")]
        with pytest.raises(ValueError, match="non-numeric"):
            validate_timeline(doc)

    def test_file_validation_handles_single_and_bundle(self, tmp_path):
        single = tmp_path / "one.json"
        single.write_text(json.dumps(self._doc()))
        assert validate_timeline_file(single) == (1, 1)
        bundle = tmp_path / "many.json"
        bundle.write_text(json.dumps({"machines": [self._doc(), self._doc()]}))
        assert validate_timeline_file(bundle) == (2, 2)
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"machines": []}))
        with pytest.raises(ValueError, match="no timeline documents"):
            validate_timeline_file(empty)
