"""The flat-record span collectors against the tuple-buffer oracle.

``tests/span_oracle.py`` keeps the stitching the collectors used before
they read spans straight from one flat record stream: a tagged tuple
per signal, one :class:`RequestSpan` per request, the streaming fold
run span by span.  Hypothesis drives both with the same synthetic
signal programs — unknown request ids, hops after completion, duplicate
delivers, stores completing at the memory module, sync timeouts,
faults, small request caps (buffered cap-drop and streaming eviction),
drains at arbitrary points — and requires byte-identical
summaries and documents.  One machine-level case runs CG under faults.
The streaming store's column fold is also held against
``PerRequestFoldStore``, the per-request fold it replaced, down to the
insertion order of its stage totals and sketch buckets, on the same
programs and on hypothesis machine floods.  The column stitch of both
collectors is held, drain by drain, against ``PerRecordStitch``, the
record-by-record loop it replaced, and the hop pick against a
record-by-record scan.  Folds at idle points are held against a
collector that never folds (a streaming store: against the eager oracle
store), on programs of several quiescent runs and on the report path's
machines.  A directed case pins the tail cohort's attribution sums to
row order across interleaved latency values.
"""

import itertools
import json
import random

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from repro.cluster.ce import (
    AwaitStream,
    Compute,
    GlobalLoad,
    GlobalStore,
    StartPrefetch,
    SyncInstruction,
)
from repro.core.config import CedarConfig
from repro.core.machine import CedarMachine
from repro.faults import FaultPlan
from repro.monitor.signals import SignalBus
from repro.monitor.spans import LatencyAnalysis, RequestSpan, SpanCollector
from repro.monitor.streamstore import StreamingSpanStore
from repro.network.packet import PacketKind
from tests.span_oracle import (
    OracleSpanCollector,
    OracleStreamingSpanStore,
    PerRecordStitch,
    PerRequestFoldStore,
    hop_pick,
    oracle_streaming_summary,
    oracle_summary,
)

ORIGINS = ("prefetch", "demand", "store", "block", "sync")
KINDS = {
    "prefetch": PacketKind.READ_REQ, "demand": PacketKind.READ_REQ,
    "store": PacketKind.WRITE_REQ, "block": PacketKind.BLOCK_REQ,
    "sync": PacketKind.SYNC_REQ,
}
RESOURCES = ("fwd.inject[0]", "fwd.s0[1]", "fwd.s1[2]", "rev.s0[3]", "rev.s1[0]")


class _Packet:
    """The packet fields the span signals read."""

    def __init__(self, rid: int) -> None:
        self.request_id = rid
        self.src = rid % 4
        self.address = rid % 3
        self.kind = PacketKind.READ_REQ
        self.words = 1
        self.meta = {"sync": None}


class _Resource:
    def __init__(self, name: str) -> None:
        self.name = name


_rid = st.integers(0, 9)
_cycles = st.sampled_from((0.0, 0.1, 0.5, 0.7, 1.0, 3.0))
_hop = st.tuples(st.sampled_from(RESOURCES), st.booleans(), _cycles, _cycles,
                 _cycles)
_advance = st.tuples(st.just("advance"), st.sampled_from((0.3, 1.0, 2.0, 5.0)))
#: stray signals: any kind, for ids that may be unborn, in flight or done
_noise = st.one_of(
    st.tuples(st.just("birth"), _rid, st.sampled_from(ORIGINS)),
    st.tuples(st.just("hop"), _rid, st.sampled_from(RESOURCES), st.booleans(),
              _cycles, _cycles, _cycles),
    st.tuples(st.just("gm"), _rid, st.integers(0, 2), st.booleans(), _cycles,
              _cycles, _cycles),
    st.tuples(st.just("gsvc"), _rid, st.integers(0, 2), _cycles),
    st.tuples(st.just("deliver"), _rid),
    st.tuples(st.just("sync"), _rid, st.booleans()),
    st.tuples(st.just("transient"), _rid, _cycles),
    st.tuples(st.just("ecc"), _rid, _cycles),
    st.tuples(st.just("reroute"), _rid),
    st.tuples(st.just("timeout"), st.integers(0, 2), _cycles),
    _advance,
    st.tuples(st.just("drain")),
)


@st.composite
def _lifecycle(draw, rid, complete=False):
    """One request's signals in order: birth, forward hops, the memory
    module (``gm[`` record and service, either first, either possibly
    missing), sync timeouts and outcome, reverse hops, the deliver (or
    none: a lost reply, or a store completing at ``gm[``), then stray
    repeats.  A ``complete`` request always completes: a store reaches
    ``gm[``, any other request is delivered."""
    origin = draw(st.sampled_from(ORIGINS))
    script = [("birth", rid, origin)]
    for hop in draw(st.lists(_hop, max_size=3)):
        script += [("hop", rid, *hop), draw(_advance)]
    module = draw(st.integers(0, 2))
    memory = []
    if (complete and origin == "store") or draw(st.integers(0, 9)):
        memory.append(("gm", rid, module, origin == "store", draw(_cycles),
                       draw(_cycles), draw(_cycles)))
    if draw(st.integers(0, 9)):
        memory.append(("gsvc", rid, module, draw(_cycles)))
    if draw(st.booleans()):
        memory.reverse()
    script += memory
    if origin == "sync":
        # a retried sync: the timeout names the address, not the request
        for _ in range(draw(st.integers(0, 2))):
            script.append(("timeout", rid % 3, draw(_cycles)))
        script.append(("sync", rid, draw(st.booleans())))
    for hop in draw(st.lists(_hop, max_size=2)):
        script += [draw(_advance), ("hop", rid, *hop)]
    if origin != "store" and (complete or draw(st.integers(0, 9))):
        script.append(("deliver", rid))
    script += draw(st.lists(st.one_of(
        st.just(("deliver", rid)),
        st.tuples(st.just("hop"), st.just(rid), st.sampled_from(RESOURCES),
                  st.booleans(), _cycles, _cycles, _cycles),
        st.tuples(st.just("transient"), st.just(rid), _cycles),
        st.tuples(st.just("ecc"), st.just(rid), _cycles),
        st.tuples(st.just("reroute"), st.just(rid)),
    ), max_size=2))
    return script


def _interleave(draw, queues) -> list:
    """The ops of ``queues`` merged, each queue keeping its order."""
    program = []
    while queues:
        k = draw(st.integers(0, len(queues) - 1))
        program.append(queues[k].pop(0))
        if not queues[k]:
            queues.pop(k)
    return program


@st.composite
def _programs(draw):
    """Interleaved request lifecycles plus stray signals."""
    queues = [draw(_lifecycle(rid)) for rid in range(draw(st.integers(0, 9)))]
    queues += [[op] for op in draw(st.lists(_noise, max_size=15))]
    return _interleave(draw, queues)


#: the ops whose second field is a request id.
_NAMING = {"birth", "hop", "gm", "gsvc", "deliver", "sync", "transient", "ecc",
           "reroute"}


@st.composite
def _quiescent_run(draw, first):
    """One run that ends idle: lifecycles of request ids ``first`` to
    ``first + 9`` that all complete, interleaved with stray signals that
    name only those ids (a stray birth may leave a request that never
    completes), so no record after the run names a request it traced."""
    queues = [draw(_lifecycle(first + rid, complete=True))
              for rid in range(draw(st.integers(0, 9)))]
    queues += [
        [(op[0], first + op[1], *op[2:]) if op[0] in _NAMING else op]
        for op in draw(st.lists(_noise, max_size=15))
    ]
    return _interleave(draw, queues)


@st.composite
def _idle_programs(draw):
    """Several quiescent runs on one machine, a fold after each run
    (``("fold",)``), the last one's optional."""
    program = []
    for k in range(draw(st.integers(1, 4))):
        program += draw(_quiescent_run(10 * k)) + [("fold",)]
    if draw(st.booleans()):
        program.pop()
    return program


def _play(program, collectors, fold=False) -> None:
    """Emit ``program`` on a fresh bus the ``collectors`` listen to.
    Request ids are born once each (as the process-wide counter
    guarantees).  A ``("fold",)`` op folds the collectors when ``fold``
    is set and drains them otherwise."""
    bus = SignalBus()
    for collector in collectors:
        collector.attach(bus)
    packets = {}
    born = set()
    now = 0.0

    def packet(rid):
        if rid not in packets:
            packets[rid] = _Packet(rid)
        return packets[rid]

    def span(pkt, name, is_reply, is_write, svc, wait, blocked):
        end = now + wait + svc
        bus.signal("net.span").emit(
            (name, pkt.request_id, is_reply, is_write, svc, now, end,
             end + blocked)
        )

    for op in program:
        kind = op[0]
        if kind == "birth":
            _, rid, origin = op
            if rid in born:
                continue
            born.add(rid)
            pkt = packet(rid)
            pkt.kind = KINDS[origin]
            pkt.words = 2 if origin in ("store", "sync") else 1
            bus.signal("req.birth", key=pkt.src).emit(pkt, origin, now)
        elif kind == "hop":
            _, rid, name, is_reply, svc, wait, blocked = op
            span(packet(rid), name, is_reply, False, svc, wait, blocked)
        elif kind == "gm":
            _, rid, module, is_write, svc, wait, blocked = op
            span(packet(rid), f"gm[{module}]", False, is_write, svc, wait,
                 blocked)
        elif kind == "gsvc":
            _, rid, module, cycles = op
            bus.signal("gmem.service", key=module).emit(
                module, packet(rid), now, cycles
            )
        elif kind == "deliver":
            pkt = packet(op[1])
            bus.signal("req.deliver", key=pkt.src).emit(pkt, now)
        elif kind == "sync":
            _, rid, success = op
            pkt = packet(rid)
            bus.signal("sync.op", key=0).emit(0, pkt.address, now, pkt, success)
        elif kind == "transient":
            _, rid, cycles = op
            bus.signal("fault.transient").emit(
                _Resource("fwd.s0[1]"), packet(rid), now, cycles
            )
        elif kind == "ecc":
            _, rid, cycles = op
            bus.signal("fault.ecc").emit(1, packet(rid), now, cycles)
        elif kind == "reroute":
            bus.signal("fault.reroute").emit("forward", packet(op[1]), now)
        elif kind == "timeout":
            _, address, cycles = op
            bus.signal("fault.sync_timeout").emit(2, address, now, cycles)
        elif kind == "advance":
            now += op[1]
        elif kind == "fold" and fold:
            for collector in collectors:
                collector.fold()
        else:
            for collector in collectors:
                collector._drain()
    for collector in collectors:
        collector.detach()


def _same(a, b) -> None:
    assert json.dumps(a) == json.dumps(b)


def _check_buffered(program, mine, oracle) -> None:
    _play(program, [mine])
    _play(program, [oracle])
    _same(mine.spans(), oracle.spans())
    expected = oracle_summary(oracle.complete_spans(), oracle.dropped)
    _same(LatencyAnalysis.from_collectors([mine]).summary(), expected)
    _same(LatencyAnalysis(mine.complete_spans(), dropped=mine.dropped).summary(),
          expected)


def _fold_state(store) -> list:
    """The fold's running state in insertion order: stage totals, then
    every sketch's buckets as inserted."""
    return [
        list(store.stage_totals.items()),
        [(name, list(sketch._buckets.items()))
         for group in (store.latency_sketches, store.phase_sketches,
                       store.stage_sketches)
         for name, sketch in group.items()],
    ]


def _same_fold(mine, oracle) -> None:
    """A streaming store and an oracle store left the same documents,
    summaries and fold state."""
    assert (json.dumps(mine.spans(), sort_keys=True)
            == json.dumps(oracle.spans(), sort_keys=True))
    _same(StreamingSpanStore.analyze([mine]).summary(),
          StreamingSpanStore.analyze([oracle]).summary())
    _same(_fold_state(mine), _fold_state(oracle))


def _drained_every(cls, records):
    """``cls`` draining every ``records`` records."""
    return type(cls.__name__, (cls,), {"DRAIN_THRESHOLD": records * 8})


def _check_streaming(program, mine, oracle, per_request, records=5) -> None:
    """``mine`` (drained every ``records`` records, each drain
    compacting) against the eager oracle and the per-request fold."""
    mine.DRAIN_THRESHOLD = per_request.DRAIN_THRESHOLD = records * 8
    _play(program, [mine])
    _play(program, [oracle])
    _play(program, [per_request])
    _same(mine.spans(), oracle.spans())
    _same(StreamingSpanStore.analyze([mine]).summary(),
          oracle_streaming_summary(oracle))
    _same_fold(mine, per_request)


@settings(max_examples=150, deadline=None)
@given(program=_programs(), cap=st.sampled_from((1, 2, 4, 1000)))
def test_buffered_collector_matches_oracle(program, cap):
    _check_buffered(program, SpanCollector(max_requests=cap),
                    OracleSpanCollector(max_requests=cap))


@settings(max_examples=150, deadline=None)
@given(program=_programs(), cap=st.sampled_from((1, 2, 4, 1000)),
       exemplars=st.sampled_from((1, 2, 64)), seed=st.integers(0, 3))
def test_streaming_store_matches_oracle(program, cap, exemplars, seed):
    _check_streaming(
        program,
        StreamingSpanStore(max_requests=cap, exemplars=exemplars, seed=seed),
        OracleStreamingSpanStore(max_requests=cap, exemplars=exemplars,
                                 seed=seed),
        PerRequestFoldStore(max_requests=cap, exemplars=exemplars, seed=seed),
    )


@settings(max_examples=300, deadline=None)
@given(program=_idle_programs(), cap=st.sampled_from((1, 2, 4, 1000)),
       stream=st.booleans(), records=st.sampled_from((1, 7, 2048)))
def test_idle_folds_match_oracle(program, cap, stream, records):
    """Folding at the idle point after each run leaves the summary, the
    stage decomposition and the counts of the collector that never
    folds, and the summary of the tuple-buffer oracle; once a fold has
    released requests, the per-request reads raise.  A streaming store
    (drained every ``records`` records) folded at the same idle points
    leaves the eager oracle store's document and summary."""
    if stream:
        folded = _drained_every(StreamingSpanStore, records)(max_requests=cap)
        oracle = OracleStreamingSpanStore(max_requests=cap)
        _play(program, [folded], fold=True)
        _play(program, [oracle])
        _same(folded.spans(), oracle.spans())
        _same(StreamingSpanStore.analyze([folded]).summary(),
              oracle_streaming_summary(oracle))
        return
    folded, plain = SpanCollector(max_requests=cap), SpanCollector(max_requests=cap)
    oracle = OracleSpanCollector(max_requests=cap)
    _play(program, [folded], fold=True)
    _play(program, [plain])
    _play(program, [oracle])
    mine = LatencyAnalysis.from_collectors([folded])
    theirs = LatencyAnalysis.from_collectors([plain])
    _same(mine.summary(), theirs.summary())
    _same(mine.summary(), oracle_summary(oracle.complete_spans(), oracle.dropped))
    _same(mine.stage_decomposition(), theirs.stage_decomposition())
    assert ((folded.dropped, folded.completed, folded.incomplete)
            == (plain.dropped, plain.completed, plain.incomplete))
    if not folded._folded:
        _same(folded.spans(), plain.spans())
        return
    for read in (folded.spans, folded.complete_spans, folded.incomplete_spans,
                 lambda: folded.requests):
        with pytest.raises(RuntimeError, match="folded"):
            read()


def _cohort_order_program() -> list:
    """60 requests of latency 1, then three tail requests of latency 5,
    6 and 5 whose ``fwd.s0`` hops cost 1.1, 1.3 and 1.7 cycles; each
    request is one hop, a ``gm[0]`` record of 0.5 cycles, a memory
    service of 0.5 and a deliver, one after another."""
    program = []
    requests = [(0.0, 1.0)] * 60 + [(1.1, 5.0), (1.3, 6.0), (1.7, 5.0)]
    for rid, (hop, latency) in enumerate(requests):
        program += [
            ("birth", rid, "demand"),
            ("hop", rid, "fwd.s0[1]", False, hop, 0.0, 0.0),
            ("advance", hop),
            ("gm", rid, 0, False, 0.5, 0.0, 0.0),
            ("gsvc", rid, 0, 0.5),
            ("advance", latency - hop),
            ("deliver", rid),
        ]
        if rid == 59:
            program.append(("fold",))
    return program + [("fold",)]


@pytest.mark.parametrize("fold", [False, True])
def test_cohort_sums_add_in_row_order(fold):
    """The p95 cohort's attribution adds its rows in row order across
    interleaved latency values: ``fwd.s0`` reads 1.1 + 1.3 + 1.7 =
    4.1000000000000005 cycles, where grouping the rows by latency value
    (1.1 + 1.7, then 1.3) would read 4.1."""
    program = _cohort_order_program()
    mine, oracle = SpanCollector(), OracleSpanCollector()
    _play(program, [mine], fold=fold)
    _play(program, [oracle])
    assert bool(mine._folded) == fold
    summary = LatencyAnalysis.from_collectors([mine]).summary()
    _same(summary, oracle_summary(oracle.complete_spans(), oracle.dropped))
    assert summary["bottleneck"]["stage"] == "fwd.s0"
    assert summary["bottleneck"]["cycles"] == 1.1 + 1.3 + 1.7 != 1.1 + 1.7 + 1.3


def _absent(index: int):
    return None if index < 0 else index


def _same_state(mine, ref: PerRecordStitch) -> None:
    """The column stitch left the state the per-record loop leaves: the
    same requests in admission order, the same completion, gm[,
    memory-service and sync indices, the same fault lists (in the order
    their first fault arrived), open syncs and counts."""
    state = mine._state.tolist()
    assert [(rid, b) for rid, b, *_ in state] == list(ref.requests.items())
    for k, theirs in enumerate((ref.ends, ref.mem, ref.svc, ref.sync), 2):
        assert {row[0]: row[k] for row in state if row[k] >= 0} == theirs
    assert list(mine._faults.items()) == list(ref.faults.items())
    assert mine._open_syncs == ref.open_syncs
    assert (mine._dropped, mine._completed) == (ref.dropped, ref.completed)


class _CheckedCollector(SpanCollector):
    """Every drain is also stitched record by record from the same state."""

    def _drain(self) -> None:
        ref = PerRecordStitch(self, release=False)
        super()._drain()
        _same_state(self, ref)


class _CheckedStore(StreamingSpanStore):
    """Every drain is also stitched record by record from the same state,
    and what its fold releases — completions in completion order, then
    evictions in eviction order — compared at the release."""

    def _drain(self) -> None:
        self._reference = PerRecordStitch(self, release=True)
        super()._drain()

    def _release(self, rows) -> None:
        ref = self._reference
        picked = self._state[rows].tolist()
        faults = self._faults
        closed = [
            (rid, b, e, _absent(g), _absent(s), _absent(y), faults.get(rid))
            for rid, b, e, g, s, y, _ord in picked if e >= 0
        ]
        evicted = [
            (b, self._evicting[row], _absent(g), _absent(s), _absent(y),
             faults.get(rid))
            for row, (rid, b, e, g, s, y, _ord) in zip(rows.tolist(), picked)
            if e < 0
        ]
        super()._release(rows)
        assert evicted == ref.evicted
        assert closed == ref.closed
        _same_state(self, ref)


def _same_hops(collector, rows) -> None:
    """The hop pick for state ``rows`` is the record-by-record scan's."""
    bs, es = collector._bounds(rows)
    at, counts = collector._hop_runs(bs, es)
    picked = at.tolist()
    runs = []
    for count in counts:
        runs.append(picked[:count])
        picked = picked[count:]
    rids = collector._state[rows, 0].tolist()
    assert runs == hop_pick(collector._events,
                            zip(rids, bs.tolist(), es.tolist()))


@settings(max_examples=150, deadline=None)
@given(program=_programs(), cap=st.sampled_from((1, 2, 4, 1000)))
def test_column_stitch_matches_per_record_loop(program, cap):
    """Drain by drain, the buffered collector's column stitch leaves the
    requests (admission order), completions (completion order), gm[,
    memory-service, sync and fault indices, open syncs and drop count
    the per-record loop leaves; the hop pick of every request and of the
    p95 cohort is the record-by-record scan's."""
    mine = _CheckedCollector(max_requests=cap)
    _play(program, [mine])
    mine._drain()
    _same_hops(mine, np.arange(len(mine._state)))
    analysis = LatencyAnalysis.from_collectors([mine])
    _same_hops(mine, analysis._sources[0][1][analysis._cohort(0.95)])


@settings(max_examples=150, deadline=None)
@given(program=_programs(), cap=st.sampled_from((1, 2, 4, 1000)),
       records=st.sampled_from((1, 5, 1000)))
def test_streaming_column_stitch_matches_per_record_loop(program, cap, records):
    """Drain by drain, the streaming store's column stitch completes,
    evicts and releases what the per-record loop does, with the same
    state carried across its compactions."""
    mine = _CheckedStore(max_requests=cap)
    mine.DRAIN_THRESHOLD = records * 8
    _play(program, [mine])
    mine._drain()
    _same_hops(mine, np.arange(len(mine._state)))


def _overlapping_program():
    """Hundreds of overlapping requests with non-dyadic timings."""
    rng = random.Random(5)
    values = (0.1, 0.3, 0.7, 1.1, 2.9)
    scripts = []
    for rid in range(400):
        origin = rng.choice(ORIGINS)
        hops = [("hop", rid, rng.choice(RESOURCES), False,
                 *rng.choices(values, k=3)) for _ in range(rng.randint(1, 3))]
        script = [("birth", rid, origin), *hops,
                  ("gsvc", rid, rid % 3, rng.choice(values)),
                  ("gm", rid, rid % 3, origin == "store",
                   *rng.choices(values, k=3))]
        if origin != "store":
            script += [("hop", rid, rng.choice(RESOURCES), True,
                        *rng.choices(values, k=3)), ("deliver", rid)]
        scripts.append(script)
    program = []
    active = []
    while scripts or active:
        if scripts and len(active) < 40:
            active.append(scripts.pop(0))
        script = rng.choice(active)
        program += [script.pop(0), ("advance", rng.choice(values))]
        if not script:
            active.remove(script)
    return program


def _check_overlapping(records) -> None:
    mine = StreamingSpanStore(exemplars=8, seed=1)
    oracle = OracleStreamingSpanStore(exemplars=8, seed=1)
    _check_streaming(_overlapping_program(), mine, oracle,
                     PerRequestFoldStore(exemplars=8, seed=1), records)
    assert oracle.spans()["complete"] == 400


def test_streaming_fold_across_many_drains():
    """Overlapping requests drained every few records: the running stage
    sums (sequential across drains), sketches, reservoir and in-flight
    carry-over match the span-by-span fold and the per-request fold."""
    _check_overlapping(records=5)


def test_streaming_fold_in_large_drains():
    """The same requests drained in batches of dozens of traversals per
    stage, so each drain's stage sums chain many terms."""
    _check_overlapping(records=200)


#: one CE's flood: loads, stores, sync ops, prefetched streams, and
#: compute gaps of non-dyadic length so that times (and the stage sums
#: folded from them) are not exact in every summation order.
_memory_op = st.one_of(
    st.tuples(st.just("load"), st.integers(1, 6), st.integers(0, 4095)),
    st.tuples(st.just("store"), st.integers(1, 6), st.integers(0, 4095)),
    st.tuples(st.just("sync"), st.just(1), st.integers(0, 7)),
    st.tuples(st.just("prefetch"), st.integers(1, 16), st.integers(0, 4095)),
)
_flood_op = st.one_of(
    _memory_op,
    st.tuples(st.just("compute"), st.sampled_from((0.1, 0.7, 1.3)),
              st.just(0)),
)


def _flood_program(ops):
    for kind, n, address in ops:
        if kind == "load":
            yield GlobalLoad(length=n, stride=1, address=address)
        elif kind == "store":
            yield GlobalStore(length=n, stride=1, address=address)
        elif kind == "sync":
            yield SyncInstruction(address=address)
        elif kind == "prefetch":
            stream = yield StartPrefetch(length=n, stride=1, address=address)
            yield AwaitStream(stream)
        else:
            yield Compute(cycles=n)


@settings(max_examples=40, deadline=None)
@given(
    floods=st.lists(
        st.tuples(_memory_op, st.lists(_flood_op, max_size=7)).map(
            lambda ops: [ops[0], *ops[1]]
        ),
        min_size=2, max_size=8,
    ),
    rate=st.sampled_from((0.0, 0.02, 0.1)),
    fault_seed=st.integers(0, 3),
    cap=st.sampled_from((1, 3, 200_000)),
    records=st.sampled_from((5, 64, 2048)),
)
def test_column_fold_matches_per_request_fold(floods, rate, fault_seed, cap,
                                              records):
    """Machine floods of reads, stores, sync ops and prefetches under
    uniform faults, into stores that evict at a small in-flight cap and
    drain every few records: the column fold leaves the documents,
    summaries and fold state the per-request fold leaves."""
    machine = CedarMachine(CedarConfig(faults=FaultPlan.uniform(rate, seed=fault_seed)))
    mine = _drained_every(StreamingSpanStore, records)(max_requests=cap)
    oracle = _drained_every(PerRequestFoldStore, records)(max_requests=cap)
    for store in (mine, oracle):
        store.attach(machine.bus)
    machine.run_programs(
        {port: _flood_program(ops) for port, ops in enumerate(floods)}
    )
    for store in (mine, oracle):
        store.detach()
    assert mine.spans()["complete"] > 0
    _same_fold(mine, oracle)


def test_cg_under_faults_matches_oracle(monkeypatch):
    """A machine run with transient, ECC and sync faults: all four
    collectors hear the same bus."""
    from repro.core.config import CedarConfig
    from repro.core.context import add_context_observer, remove_context_observer
    from repro.experiments.kernels_sim import _run
    from repro.faults import FaultPlan
    from repro.network import packet

    monkeypatch.setattr(packet, "_packet_ids", itertools.count())
    attached = []

    def observe(ctx):
        attached.append([
            collector.attach(ctx.bus) for collector in (
                SpanCollector(), OracleSpanCollector(),
                StreamingSpanStore(), OracleStreamingSpanStore(),
            )
        ])

    observer = add_context_observer(observe)
    try:
        _run(CedarConfig(faults=FaultPlan.uniform(0.05, seed=13)), "CG", 8,
             True, 1)
    finally:
        remove_context_observer(observer)
    (collectors,) = attached
    for collector in collectors:
        collector.detach()
    mine, oracle, stream, stream_oracle = collectors
    doc = mine.spans()
    assert doc["complete"] > 0
    assert any("faults" in r for r in doc["requests"])
    _same(doc, oracle.spans())
    _same(LatencyAnalysis.from_collectors([mine]).summary(),
          oracle_summary(oracle.complete_spans(), oracle.dropped))
    _same(stream.spans(), stream_oracle.spans())
    _same(StreamingSpanStore.analyze([stream]).summary(),
          StreamingSpanStore.analyze([stream_oracle]).summary())


def test_report_path_builds_no_request_spans(monkeypatch):
    """run-all's default reports fold the record stream directly: no
    RequestSpan is constructed for the latency summary."""
    from repro.cluster.ce import AwaitStream, GlobalLoad, StartPrefetch
    from repro.core.config import CedarConfig
    from repro.core.machine import CedarMachine
    from repro.experiments.runner import observe
    from repro.monitor.report import ReportCollector

    built = []
    init = RequestSpan.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    def program(port):
        stream = yield StartPrefetch(length=8, stride=1, address=64 * port)
        yield AwaitStream(stream)
        yield GlobalLoad(length=4, stride=1, address=4096 + 64 * port)

    monkeypatch.setattr(RequestSpan, "__init__", counting_init)
    collector = ReportCollector()
    with observe(collector):
        CedarMachine(CedarConfig()).run_programs(
            {port: program(port) for port in range(8)}
        )
        (record,) = collector.machine_dicts()
    assert record["latency"]["requests"] > 0
    assert record["latency"]["bottleneck"] is not None
    assert built == []


def _report_program(port):
    stream = yield StartPrefetch(length=8, stride=1, address=64 * port)
    yield AwaitStream(stream)
    yield GlobalLoad(length=4, stride=1, address=4096 + 64 * port)
    yield GlobalStore(length=2, stride=1, address=8192 + 64 * port)
    yield SyncInstruction(address=port % 3)


@pytest.mark.parametrize("again", [False, True])
def test_report_path_folds_idle_machines(again):
    """Building a machine folds every earlier idle one: its buffer is
    empty from then on, and every machine's reported latency summary is
    the one an unfolded collector on the same bus gives — also when the
    first machine runs again after the second is built."""
    from repro.experiments.runner import observe
    from repro.monitor.report import ReportCollector

    references = []

    def reference(ctx):
        references.append(SpanCollector(max_requests=ReportCollector.SPAN_CAP)
                          .attach(ctx.bus))

    def run(machine, ports=range(8)):
        machine.run_programs({port: _report_program(port) for port in ports})

    collector = ReportCollector()
    with observe(collector, reference):
        first = CedarMachine(CedarConfig())
        run(first)
        second = CedarMachine(CedarConfig())
        folded = collector._records[0][2]
        assert folded._events == [] and folded._folded > 0
        if again:  # on CEs that have not run yet
            run(first, range(8, 16))
        run(second)
        records = collector.machine_dicts()
    assert len(records) == len(references) == 2
    for record, ref in zip(records, references):
        assert record["latency"]["requests"] > 0
        _same(record["latency"], SpanCollector.analyze([ref]).summary())
