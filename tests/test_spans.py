"""Request-level causal tracing: span stitching, latency decomposition,
orphan handling, fault annotation, and the spans-JSON schema."""

import json

import pytest

from repro.core.config import CedarConfig
from repro.core.machine import CedarMachine
from repro.cluster.ce import (
    AwaitStream,
    BlockTransfer,
    Fence,
    GlobalLoad,
    GlobalStore,
    StartPrefetch,
    SyncInstruction,
)
from repro.monitor.histogram import Histogrammer
from repro.monitor.spans import (
    HopSpan,
    LatencyAnalysis,
    PHASES,
    RequestSpan,
    SpanCollector,
    validate_spans,
    validate_spans_file,
)
from tests.span_oracle import loop_sum


def _mixed_programs():
    """One CE per origin class: prefetch, demand, store, block, sync."""

    def prefetcher():
        stream = yield StartPrefetch(length=8, stride=1, address=0)
        yield AwaitStream(stream)

    def demander():
        yield GlobalLoad(length=4, stride=1, address=64)

    def storer():
        yield GlobalStore(length=4, stride=1, address=128)
        yield Fence()

    def blocker():
        yield BlockTransfer(words=6, address=192)

    def syncer():
        yield SyncInstruction(address=7)

    return {
        0: prefetcher(),
        1: demander(),
        2: storer(),
        3: blocker(),
        4: syncer(),
    }


def _traced_run(collector=None, config=None, programs=None):
    machine = CedarMachine(config or CedarConfig())
    collector = collector if collector is not None else SpanCollector()
    collector.attach(machine.bus)
    machine.run_programs(programs or _mixed_programs())
    return machine, collector


class TestStitching:
    def test_every_origin_is_traced_and_completes(self):
        _machine, collector = _traced_run()
        spans = collector.complete_spans()
        assert collector.incomplete_spans() == []
        assert collector.dropped == 0
        by_origin = {}
        for span in spans:
            by_origin.setdefault(span.origin, []).append(span)
        assert len(by_origin["prefetch"]) == 8
        assert len(by_origin["demand"]) == 4
        assert len(by_origin["store"]) == 4
        assert len(by_origin["block"]) == 2  # 6 words, 3 data words/packet
        assert len(by_origin["sync"]) == 1

    def test_phase_sums_reconcile_exactly(self):
        _machine, collector = _traced_run()
        for span in collector.complete_spans():
            phases = span.phases()
            assert phases is not None
            assert set(phases) == set(PHASES)
            assert sum(phases.values()) == pytest.approx(span.latency, abs=1e-9)
            assert all(value >= 0.0 for value in phases.values())

    def test_hops_split_into_wait_service_blocked(self):
        _machine, collector = _traced_run()
        spans = collector.complete_spans()
        read = next(s for s in spans if s.origin == "prefetch")
        # forward: injection port + two stages; reverse: the same shape.
        forward = [h for h in read.hops if not h.is_reply]
        reverse = [h for h in read.hops if h.is_reply]
        assert [h.stage for h in forward] == ["fwd.inject", "fwd.s0", "fwd.s1"]
        assert [h.stage for h in reverse] == ["rev.inject", "rev.s0", "rev.s1"]
        for hop in read.hops:
            wait, service, blocked = hop.segments()
            assert wait >= 0.0 and blocked >= 0.0 and service > 0.0
            assert hop.enqueue + wait + service + blocked == pytest.approx(
                hop.depart
            )

    def test_store_completes_at_the_module(self):
        _machine, collector = _traced_run()
        store = next(
            s for s in collector.complete_spans() if s.origin == "store"
        )
        assert store.end == store.mem_depart
        assert store.phases()["reverse"] == 0.0
        assert not any(h.is_reply for h in store.hops)

    def test_sync_outcome_is_annotated(self):
        _machine, collector = _traced_run()
        sync = next(s for s in collector.complete_spans() if s.origin == "sync")
        assert sync.sync_success is True
        assert "add 1" in sync.sync_op

    def test_request_cap_counts_drops(self):
        _machine, collector = _traced_run(collector=SpanCollector(max_requests=3))
        assert len(collector.requests) == 3
        assert collector.dropped > 0


class TestHopView:
    """``RequestSpan.hops`` is built on demand from the flat ``net.span``
    records the collector keeps per request."""

    def _recorded_run(self, collector):
        machine = CedarMachine(CedarConfig())
        collector.attach(machine.bus)
        records = []
        machine.bus.subscribe("net.span", records.append)
        machine.run_programs(_mixed_programs())
        return collector, records

    def test_hops_match_net_span_records(self):
        collector, records = self._recorded_run(SpanCollector())
        by_request = {}
        for record in records:
            if not record[0].startswith("gm["):
                by_request.setdefault(record[1], []).append(record)
        checked = 0
        for rid, span in collector.requests.items():
            hops = span.hops
            expected = by_request.get(rid, [])
            assert len(hops) == len(expected)
            for hop, record in zip(hops, expected):
                name, _rid, is_reply, _is_write, svc, enqueue, end, depart = record
                assert isinstance(hop, HopSpan)
                assert (hop.resource, hop.stage, hop.is_reply, hop.svc,
                        hop.enqueue, hop.service_end, hop.depart) == (
                    name, name.split("[", 1)[0], is_reply, svc, enqueue, end,
                    depart,
                )
                assert hop.segments() == (
                    max(0.0, end - svc - enqueue), svc, max(0.0, depart - end)
                )
                checked += 1
        assert checked > 0

    def test_returned_list_is_a_copy(self):
        _machine, collector = _traced_run()
        span = next(s for s in collector.complete_spans() if s.hops)
        before = [hop.to_dict() for hop in span.hops]
        hops = span.hops
        hops[0].depart = -1.0
        hops.clear()
        assert [hop.to_dict() for hop in span.hops] == before


class TestOrphans:
    def test_truncated_run_leaves_incomplete_spans(self):
        machine = CedarMachine(CedarConfig())
        collector = SpanCollector().attach(machine.bus)

        def prog():
            stream = yield StartPrefetch(length=8, stride=1, address=0)
            yield AwaitStream(stream)

        machine.ce(0).run(prog())
        # cut the run mid-flight
        machine.engine.schedule(15.0, machine.engine.request_stop)
        machine.engine.run()
        incomplete = collector.incomplete_spans()
        assert incomplete  # births happened, replies never landed
        doc = collector.spans()
        assert doc["incomplete"] == len(incomplete)
        validate_spans(doc)  # incomplete spans are schema-legal

    def test_incomplete_spans_have_no_phases(self):
        machine = CedarMachine(CedarConfig())
        collector = SpanCollector().attach(machine.bus)

        def prog():
            stream = yield StartPrefetch(length=4, stride=1, address=0)
            yield AwaitStream(stream)

        machine.ce(0).run(prog())
        # cut the run mid-flight
        machine.engine.schedule(15.0, machine.engine.request_stop)
        machine.engine.run()
        for span in collector.incomplete_spans():
            assert span.latency is None
            assert span.phases() is None


class TestFaultAnnotation:
    def test_ecc_retries_annotate_the_stalled_request(self):
        from repro.faults import FaultPlan

        # a fault is rolled per service *attempt* (a stalled head retries
        # and re-rolls), so the rate must stay below 1.0 to terminate.
        config = CedarConfig(faults=FaultPlan(seed=7, ecc_rate=0.5))
        _machine, collector = _traced_run(config=config)
        spans = collector.complete_spans()
        annotated = [s for s in spans if s.faults]
        assert annotated  # at rate 0.5 some access stalled (seed-pinned)
        fault = annotated[0].faults[0]
        assert fault["type"] == "ecc"
        assert fault["cycles"] > 0
        # the stall shows up as memory queueing, and the phases still
        # reconcile: the decomposition is a timeline segmentation.
        span = annotated[0]
        assert sum(span.phases().values()) == pytest.approx(span.latency)


class TestSpansSchema:
    def test_round_trip_validates(self, tmp_path):
        _machine, collector = _traced_run()
        path = tmp_path / "spans.json"
        collector.write(path)
        n_requests, n_complete = validate_spans_file(path)
        assert n_requests == len(collector.requests)
        assert n_complete == collector.completed

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            validate_spans(
                {"version": 99, "complete": 0, "incomplete": 0,
                 "dropped": 0, "requests": []}
            )

    def test_drifting_phases_rejected(self):
        _machine, collector = _traced_run()
        doc = json.loads(json.dumps(collector.spans()))
        victim = next(r for r in doc["requests"] if "phases" in r)
        victim["phases"]["forward"] += 5.0  # break the reconciliation
        with pytest.raises(ValueError, match="drift"):
            validate_spans(doc)


class TestLatencyAnalysis:
    def test_phase_shares_partition_end_to_end(self):
        _machine, collector = _traced_run()
        analysis = LatencyAnalysis.from_collectors([collector])
        decomposition = analysis.phase_decomposition()
        assert sum(row["share"] for row in decomposition.values()) == (
            pytest.approx(1.0)
        )
        assert analysis.reconciliation_error() <= 1.0

    def test_bottleneck_attribution_ranks_stages(self):
        _machine, collector = _traced_run()
        analysis = LatencyAnalysis.from_collectors([collector])
        ranked = analysis.bottleneck_attribution(q=0.95)
        assert ranked
        shares = [row["share"] for row in ranked]
        assert shares == sorted(shares, reverse=True)
        assert all(0.0 <= share <= 1.0 for share in shares)

    def test_slowest_orders_by_latency(self):
        _machine, collector = _traced_run()
        analysis = LatencyAnalysis.from_collectors([collector])
        slowest = analysis.slowest(3)
        assert len(slowest) == 3
        latencies = [s.latency for s in slowest]
        assert latencies == sorted(latencies, reverse=True)
        assert latencies[0] == max(s.latency for s in analysis.spans)

    def test_summary_is_json_serializable(self):
        _machine, collector = _traced_run()
        summary = LatencyAnalysis.from_collectors([collector]).summary()
        assert summary["requests"] == collector.completed
        json.dumps(summary)  # the report embeds this

    def test_sums_add_left_to_right(self):
        """Means, shares and stage averages add like a ``+=`` loop on
        every interpreter: ten 0.1-cycle requests average
        ``0.9999999999999999 / 10``, not the ``1.0 / 10`` of Python
        3.12's compensated ``sum``."""
        spans = [_served_span(rid, service=0.1) for rid in range(10)]
        analysis = LatencyAnalysis(spans)
        loop = loop_sum([0.1] * 10)
        assert analysis.end_to_end()["all"]["mean"] == loop / 10
        assert analysis.phase_decomposition()["memory_service"]["mean"] == (
            loop / 10
        )
        assert analysis.stage_decomposition()["gmem"]["service"] == loop / 10

    def test_tied_stages_rank_in_first_seen_order(self):
        """Each request's hops come before its memory term: a forward
        hop, a reverse hop and the memory module tied on cycles rank in
        that order (the streaming analysis ranks its exemplar rows
        through the same method)."""
        span = _served_span(0, service=1.0, hops=[
            ("fwd.s0[0]", False, 1.0, 0.0, 1.0, 1.0),
            ("rev.s0[0]", True, 1.0, 3.0, 4.0, 4.0),
        ])
        ranked = LatencyAnalysis([span]).bottleneck_attribution()
        assert [row["stage"] for row in ranked] == ["fwd.s0", "rev.s0", "gmem"]
        assert len({row["share"] for row in ranked}) == 1

    def test_rendered_report_mentions_every_phase(self):
        from repro.monitor.analysis import latency_report

        _machine, collector = _traced_run()
        text = latency_report(LatencyAnalysis.from_collectors([collector]))
        for phase in PHASES:
            assert phase in text
        assert "bottleneck" in text
        assert "slowest" in text


def _served_span(rid, service, hops=()):
    """A complete request served ``service`` cycles at the memory module
    and nowhere else waiting; ``hops`` are ``(resource, is_reply, svc,
    enqueue, service_end, depart)``."""
    span = RequestSpan(rid, "demand", 0, 0, "READ_REQ", 1, 0.0)
    for resource, is_reply, svc, enqueue, service_end, depart in hops:
        span.raw_hops += [resource, rid, is_reply, False, svc, enqueue,
                          service_end, depart]
    span.mem_enqueue = 0.0
    span.mem_cycles = service
    span.mem_service_end = service
    span.mem_depart = service
    span.end = service
    span.complete = True
    return span


class TestHistogrammerPercentiles:
    def test_interpolated_percentiles_are_exact_on_uniform_data(self):
        h = Histogrammer(0.0, 100.0, bins=100)
        for value in range(100):
            h.record(value)
        assert h.percentile(0.25) == pytest.approx(25.0)
        assert h.percentile(0.5) == pytest.approx(50.0)
        assert h.percentile(0.99) == pytest.approx(99.0)

    def test_quantiles_are_monotonic(self):
        h = Histogrammer(0.0, 64.0, bins=64)
        for value in (1, 1, 2, 3, 5, 8, 13, 21, 34, 55):
            h.record(value)
        qs = h.quantiles((0.5, 0.9, 0.95, 0.99))
        assert qs == sorted(qs)
        assert len(qs) == 4

    def test_edge_bins_clamp_extreme_quantiles(self):
        h = Histogrammer(0.0, 10.0, bins=10)
        for _ in range(5):
            h.record(1e9)  # clamps into the top bin at record time
        assert h.percentile(1.0) == 10.0  # never extrapolates past hi
        assert 9.0 <= h.percentile(0.01) <= 10.0  # all mass in top bin

    def test_within_bin_interpolation(self):
        # 4 samples all landing in one bin of width 10: the quartiles
        # spread across the bin instead of all reporting its midpoint.
        h = Histogrammer(0.0, 100.0, bins=10)
        for _ in range(4):
            h.record(25.0)
        assert h.percentile(0.25) == pytest.approx(22.5)
        assert h.percentile(1.0) == pytest.approx(30.0)


class TestChromeFlowEvents:
    def test_hops_emit_terminated_flow_chains(self):
        from repro.monitor.tracer import ChromeTracer, validate_chrome_trace

        machine = CedarMachine(CedarConfig())
        tracer = ChromeTracer().attach(machine.bus)
        machine.run_programs(_mixed_programs())
        tracer.detach()
        trace = tracer.trace()
        validate_chrome_trace(trace)
        flows = [e for e in trace["traceEvents"] if e.get("cat") == "flow"]
        assert flows
        by_id = {}
        for event in flows:
            by_id.setdefault(event["id"], []).append(event["ph"])
        for phases in by_id.values():
            assert phases[0] == "s"
            assert phases[-1] == "f"
            assert len(phases) >= 2  # singletons are dropped at export
            assert all(ph == "t" for ph in phases[1:-1])
