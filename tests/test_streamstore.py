"""Streaming span store: fold-and-release agreement with the buffered
collector, bounded footprint, zero-cost, the version-2 spans schema,
edge-bin-corrected histogram statistics, and the soak experiment."""

import json

import pytest

from repro.core.config import CedarConfig
from repro.core.machine import CedarMachine
from repro.cluster.ce import (
    AwaitStream,
    GlobalLoad,
    GlobalStore,
    StartPrefetch,
    SyncInstruction,
)
from repro.monitor.histogram import Histogrammer
from repro.monitor.spans import (
    LatencyAnalysis,
    PHASES,
    STREAM_SPANS_VERSION,
    SpanCollector,
    validate_spans,
    validate_spans_file,
)
from repro.monitor.sketch import QuantileSketch
from repro.monitor.streamstore import StreamingSpanStore


def _programs(ports=8, length=32):
    def prefetcher(base):
        def program():
            stream = yield StartPrefetch(length=length, stride=1, address=base)
            yield AwaitStream(stream)

        return program()

    def mixed(base):
        def program():
            yield GlobalLoad(length=8, stride=1, address=base)
            yield GlobalStore(length=4, stride=1, address=base + 64)

        return program()

    programs = {port: prefetcher(port * 256) for port in range(ports)}
    programs.update(
        {port: mixed(port * 128) for port in range(ports, ports + 4)}
    )
    return programs


def _dual_run(**store_kwargs):
    """One simulation observed by both backends at once: the buffered
    collector (the exact population) and the streaming store."""
    machine = CedarMachine(CedarConfig())
    buffered = SpanCollector().attach(machine.bus)
    store = StreamingSpanStore(**store_kwargs).attach(machine.bus)
    cycles = machine.run_programs(_programs())
    store._drain()  # stitching is deferred; fold before inspecting
    return machine, buffered, store, cycles


def _exact_quantile(values, q):
    import math

    ordered = sorted(values)
    rank = max(math.ceil(q * len(ordered)), 1)
    return ordered[min(rank, len(ordered)) - 1]


class TestAgreementWithBuffered:
    def test_counts_means_and_maxima_are_exact(self):
        _machine, buffered, store, _cycles = _dual_run()
        exact = LatencyAnalysis.from_collectors([buffered])
        streaming = StreamingSpanStore.analyze([store])
        assert streaming.requests == exact.requests > 0
        latencies = [s.latency for s in exact.spans]
        sketch = store.latency_sketches["all"]
        assert sketch.mean() == pytest.approx(
            sum(latencies) / len(latencies), rel=1e-12
        )
        assert sketch.max == max(latencies)
        assert sketch.min == min(latencies)

    def test_quantiles_within_declared_relative_error(self):
        _machine, buffered, store, _cycles = _dual_run(relative_error=0.01)
        latencies = [
            s.latency for s in buffered.complete_spans()
            if s.phases() is not None
        ]
        row = StreamingSpanStore.analyze([store]).end_to_end()["all"]
        for q, key in ((0.5, "p50"), (0.9, "p90"), (0.95, "p95"),
                       (0.99, "p99")):
            exact = _exact_quantile(latencies, q)
            assert abs(row[key] - exact) <= 0.01 * exact + 1e-9

    def test_phase_and_stage_accumulators_are_exact(self):
        _machine, buffered, store, _cycles = _dual_run()
        exact = LatencyAnalysis.from_collectors([buffered])
        spans = exact.spans
        for phase in PHASES:
            expected = sum(s.phases()[phase] for s in spans)
            assert store.phase_sketches[phase].sum == pytest.approx(
                expected, abs=1e-6
            )
        streaming_stages = StreamingSpanStore.analyze(
            [store]
        ).stage_decomposition()
        for stage, row in exact.stage_decomposition().items():
            mine = streaming_stages[stage]
            assert mine["traversals"] == row["traversals"]
            for field in ("queue_wait", "service", "blocked", "share"):
                assert mine[field] == pytest.approx(row[field], rel=1e-9)

    def test_reconciliation_invariant_holds_at_fold_time(self):
        _machine, _buffered, store, _cycles = _dual_run()
        assert store.reconciliation_checked == store._completed
        assert store.reconciliation_violations == 0
        assert store.reconciliation_worst <= 1e-6


class TestFoldAndRelease:
    def test_completed_spans_are_released(self):
        _machine, _buffered, store, _cycles = _dual_run(exemplars=8)
        assert len(store._state) == 0  # nothing retained past completion
        assert len(store.complete_spans()) <= 8

    def test_footprint_is_smaller_than_the_population(self):
        _machine, buffered, store, _cycles = _dual_run(exemplars=8)
        traced = len(buffered.complete_spans())
        assert traced > 100
        assert store.tracing_footprint() < traced

    def test_eviction_at_the_inflight_cap(self):
        """At the cap the oldest in-flight span moves to the reservoir's
        incomplete side instead of the new birth being dropped."""
        machine = CedarMachine(CedarConfig())
        store = StreamingSpanStore(max_requests=4, exemplars=4).attach(
            machine.bus
        )
        machine.run_programs(_programs())
        store._drain()
        assert store.evicted > 0
        assert store.dropped == 0
        doc = store.spans()
        assert doc["evicted"] == store.evicted
        validate_spans(doc)

    def test_evicted_syncs_leave_the_open_sync_lists(self):
        """A release takes every released sync request off its address's
        open list, cap evictions as well as completions, so the lists a
        sync timeout walks stay as small as the in-flight set."""
        machine = CedarMachine(CedarConfig())
        store = StreamingSpanStore(max_requests=1).attach(machine.bus)

        def syncs(port):
            for k in range(6):
                yield SyncInstruction(address=(port + k) % 4)

        machine.run_programs({port: syncs(port) for port in range(16)})
        store.detach()
        assert store.spans()["evicted"] > 0 and len(store._state) == 0
        assert all(ids == [] for ids in store._open_syncs.values())

    def test_evicted_drains_before_it_answers(self):
        """``evicted`` drains first, like ``incomplete`` and ``dropped``:
        read straight after the run it counts the pending buffer's
        evictions too."""
        machine = CedarMachine(CedarConfig())
        store = StreamingSpanStore(max_requests=1).attach(machine.bus)

        def syncs(port):
            for k in range(6):
                yield SyncInstruction(address=(port + k) % 4)

        machine.run_programs({port: syncs(port) for port in range(16)})
        store.detach()
        evicted = store.evicted
        assert evicted > 0
        assert evicted == store.spans()["evicted"]

    def test_exemplar_ties_do_not_depend_on_drawn_ids(self):
        """Equal latencies and equal births tie-break on each request's
        birth ordinal in its store, not on its process-wide id: one
        machine's summary and exemplars are the same whether or not
        packet ids were drawn before it was built."""
        from repro.network import packet

        def observed(drawn):
            for _ in range(drawn):
                next(packet._packet_ids)
            machine = CedarMachine(CedarConfig())
            store = StreamingSpanStore(exemplars=8, max_requests=4).attach(
                machine.bus
            )
            machine.run_programs(_programs())
            store.detach()
            exemplars = store.spans()["exemplars"]
            return StreamingSpanStore.analyze([store]).summary(), {
                kind: [{k: v for k, v in span.items() if k != "id"}
                       for span in spans]
                for kind, spans in exemplars.items()
            }

        summary, exemplars = observed(0)
        assert summary["requests"] > 0 and exemplars["incomplete"]
        for drawn in (1, 777, 12_345):
            assert observed(drawn) == (summary, exemplars)

    def test_zero_cost_cycles_are_bit_identical(self):
        bare = CedarMachine(CedarConfig()).run_programs(_programs())
        machine = CedarMachine(CedarConfig())
        store = StreamingSpanStore().attach(machine.bus)
        streamed = machine.run_programs(_programs())
        store.detach()
        assert streamed == bare


class TestStreamingSchema:
    def test_document_validates_and_counts(self):
        _machine, _buffered, store, _cycles = _dual_run()
        doc = store.spans()
        assert doc["version"] == STREAM_SPANS_VERSION
        n_requests, n_complete = validate_spans(doc)
        assert n_complete == store._completed > 0
        # round-trips through JSON byte-for-byte
        assert json.loads(json.dumps(doc)) == doc

    def test_reconciliation_violations_are_rejected(self):
        _machine, _buffered, store, _cycles = _dual_run()
        doc = store.spans()
        doc["reconciliation"]["violations"] = 3
        with pytest.raises(ValueError, match="reconciliation"):
            validate_spans(doc)

    def test_sketch_count_mismatch_is_rejected(self):
        _machine, _buffered, store, _cycles = _dual_run()
        doc = store.spans()
        doc["sketches"]["latency"]["all"]["count"] += 1
        with pytest.raises(ValueError, match="sketch count"):
            validate_spans(doc)

    def test_write_and_validate_file(self, tmp_path):
        _machine, _buffered, store, _cycles = _dual_run()
        path = tmp_path / "stream.json"
        store.write(path)
        n_requests, n_complete = validate_spans_file(path)
        assert n_complete > 0

    def test_merged_documents_validate_and_add(self):
        """The merged document of several stores follows the merge's
        rules: counters add and the worst drift is the largest; each
        sketch is the pairwise merge of copies; each exemplar list is the
        first k of the stores' union, k being the longest list a store
        holds; one store's document is its own."""
        stores = []
        for exemplars, cap in ((4, 4), (8, 200_000)):
            machine = CedarMachine(CedarConfig())
            store = StreamingSpanStore(
                exemplars=exemplars, max_requests=cap
            ).attach(machine.bus)
            machine.run_programs(_programs())
            store.detach()
            stores.append(store)
        docs = [store.spans() for store in stores]
        merged = StreamingSpanStore.merged_spans(stores)
        validate_spans(merged)
        assert StreamingSpanStore.merged_spans(stores[:1]) == docs[0]
        for key in ("complete", "incomplete", "dropped", "evicted",
                    "completed_without_phases"):
            assert merged[key] == sum(d[key] for d in docs)
        assert merged["evicted"] > 0
        for key in ("checked", "violations"):
            assert merged["reconciliation"][key] == sum(
                d["reconciliation"][key] for d in docs
            )
        assert merged["reconciliation"]["worst"] == max(
            d["reconciliation"]["worst"] for d in docs
        )
        for stage, entry in merged["stage_totals"].items():
            for field, value in entry.items():
                assert value == sum(d["stage_totals"].get(stage, {}).get(
                    field, 0) for d in docs)
        for group in ("latency", "phases", "stages"):
            names = {name for d in docs for name in d["sketches"][group]}
            assert set(merged["sketches"][group]) == names
            for name in names:
                parts = [QuantileSketch.from_dict(d["sketches"][group][name])
                         for d in docs if name in d["sketches"][group]]
                for part in parts[1:]:
                    parts[0].merge(part)
                assert merged["sketches"][group][name] == parts[0].to_dict()
        k = max(len(d["exemplars"][kind]) for d in docs
                for kind in ("slowest", "incomplete"))
        for kind, key in (("slowest", "latency"), ("incomplete", "birth")):
            union = sorted((s for d in docs for s in d["exemplars"][kind]),
                           key=lambda s: s[key], reverse=True)
            assert merged["exemplars"][kind] == union[:k]
        assert len(merged["exemplars"]["slowest"]) == k < 4 + 8
        assert merged["exemplars"]["incomplete"]

    def test_multi_store_analysis_merges(self):
        """The merged analysis folds every store's sketches, and its
        slowest spans and tail cohort read the untruncated union of the
        reservoirs."""
        stores = []
        for _ in range(2):
            machine = CedarMachine(CedarConfig())
            store = StreamingSpanStore(exemplars=8).attach(machine.bus)
            machine.run_programs(_programs())
            stores.append(store)
        merged = StreamingSpanStore.analyze(stores)
        assert merged.requests == sum(
            s.latency_sketches["all"].count for s in stores
        )
        assert merged.end_to_end()["all"]["count"] == merged.requests
        union = sorted((s for store in stores for s in store.exemplars.slowest()),
                       key=lambda s: s.latency, reverse=True)
        assert len(union) == 16
        assert merged.slowest(None) == union
        (threshold,) = merged.quantile_curve([0.95])
        cohort = [s for s in union if s.latency >= threshold]
        assert merged.tail_cohort() == cohort
        assert len(cohort) > 8


class TestStreamingRenderers:
    def test_latency_tables_render_from_sketches(self):
        from repro.monitor.analysis import latency_tables

        _machine, _buffered, store, _cycles = _dual_run()
        out = latency_tables(StreamingSpanStore.analyze([store]))
        assert "p95" in out and "p99" in out
        assert "gmem" in out


class TestHistogrammerEdgeBins:
    def test_overflow_mass_sits_exactly_at_hi(self):
        h = Histogrammer(0.0, 10.0, bins=10)
        for _ in range(3):
            h.record(50.0)
        assert h.count(9) == 3  # hardware clamp still visible
        assert h.overflow == 3
        assert h.mean() == 10.0
        assert h.percentile(0.5) == 10.0

    def test_underflow_mass_sits_exactly_at_lo(self):
        h = Histogrammer(0.0, 10.0, bins=10)
        h.record(-5.0)
        h.record(-5.0)
        h.record(50.0)
        assert h.underflow == 2 and h.overflow == 1
        assert h.mean() == pytest.approx((0.0 * 2 + 10.0) / 3)
        assert h.percentile(0.5) == 0.0
        assert h.percentile(1.0) == 10.0

    def test_in_range_statistics_are_unbiased_by_clamped_mass(self):
        """Clamped tail mass no longer drags edge-bin interpolation: an
        in-range sample in the top bin interpolates within the bin while
        the overflow orders strictly after it."""
        h = Histogrammer(0.0, 10.0, bins=10)
        h.record(2.5)
        h.record(50.0)
        assert h.mean() == pytest.approx((2.5 + 10.0) / 2)
        assert h.percentile(0.5) == pytest.approx(2.5, abs=0.5)
        assert h.percentile(1.0) == 10.0


class TestSoakExperiment:
    def test_streaming_and_buffered_soak_agree(self):
        from repro.experiments.soak import run_soak

        streamed = run_soak(requests=1500, seed=11, stream=True)
        buffered = run_soak(requests=1500, seed=11, stream=False)
        assert not streamed.aborted and not buffered.aborted
        assert streamed.cycles == buffered.cycles  # bit-identical sim
        assert streamed.requests == buffered.requests == 1500
        assert streamed.traced == buffered.traced
        assert streamed.mean == pytest.approx(buffered.mean, rel=1e-9)
        # quantile backends: sketch (alpha=1%) vs histogram (binned)
        assert streamed.p99 == pytest.approx(buffered.p99, rel=0.05)
        assert streamed.footprint_items is not None
        assert streamed.footprint_items < streamed.traced

    def test_soak_is_registered(self):
        from repro.experiments.runner import experiment

        experiment = experiment("soak")
        assert experiment.kwargs["requests"] == 1_000_000
        assert experiment.fast_kwargs["requests"] < 100_000


class TestCLI:
    def test_soak_and_stream_flags_parse(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["soak", "--requests", "5000", "--seed", "3", "--buffered"]
        )
        assert args.command == "soak"
        assert args.requests == 5000 and args.seed == 3 and args.buffered
        args = build_parser().parse_args(["analyze", "table2", "--stream"])
        assert args.stream
        for argv in (["run-all", "--stream"], ["report", "table2", "--stream"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_soak_command_runs(self, capsys):
        from repro.__main__ import main

        assert main(["soak", "--requests", "200"]) == 0
        stdout = capsys.readouterr().out
        assert "Soak" in stdout and "p99" in stdout

    def test_analyze_stream_writes_valid_streaming_spans(
        self, capsys, tmp_path
    ):
        from repro.__main__ import main

        out = tmp_path / "stream-spans.json"
        assert main(
            ["analyze", "characterization", "--stream", "--out", str(out),
             "--top", "2"]
        ) == 0
        n_requests, n_complete = validate_spans_file(out)
        assert n_complete > 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "streaming"
        stdout = capsys.readouterr().out
        assert "resident traced items" in stdout
