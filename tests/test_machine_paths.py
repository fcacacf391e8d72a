"""Integration tests: end-to-end request paths through the machine.

These tests pin the calibration the paper publishes: the unloaded
network+memory round trip is 8 cycles ("Minimal Latency is 8 cycles"),
streams return one word per cycle ("minimal Interarrival time is 1
cycle"), and the CE observes 13 cycles once the buffer-to-CE move is
counted ("The cycles needed to move data between the CE and prefetch
buffer complete the 13 cycle latency").
"""

import pytest

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
from repro.gmemory.sync import SyncOp, TestOp as RelOp


def make_machine(monitor_port=0):
    return CedarMachine(CedarConfig(), monitor_port=monitor_port)


class TestUnloadedPrefetchPath:
    def test_minimal_first_word_latency_is_8_cycles(self):
        m = make_machine()

        def prog():
            stream = yield StartPrefetch(length=8, stride=1, address=0)
            yield AwaitStream(stream)

        m.run_programs({0: prog()})
        summary = m.probe.summary()
        assert summary.first_word_latency == pytest.approx(8.0)

    def test_minimal_interarrival_is_1_cycle(self):
        m = make_machine()

        def prog():
            stream = yield StartPrefetch(length=32, stride=1, address=0)
            yield AwaitStream(stream)

        m.run_programs({0: prog()})
        assert m.probe.summary().interarrival == pytest.approx(1.0)

    def test_ce_observed_latency_is_13_cycles(self):
        # arm(6) + network/memory(8) + buffer-to-CE(5) for the first word
        m = make_machine()
        times = {}

        def prog():
            stream = yield StartPrefetch(length=1, stride=1, address=0)
            times["fired"] = m.engine.now
            from repro.cluster.ce import ConsumeStream

            yield ConsumeStream(stream, cycles_per_word=0.0)
            times["consumed"] = m.engine.now

        m.run_programs({0: prog()})
        observed = times["consumed"] - times["fired"]
        arm = m.config.prefetch.arm_cycles
        assert observed == pytest.approx(arm + 8.0 + 5.0)

    def test_stride_sweeps_modules_without_conflict(self):
        m = make_machine()

        def prog():
            stream = yield StartPrefetch(length=64, stride=1, address=0)
            yield AwaitStream(stream)

        m.run_programs({0: prog()})
        # stride-1 sweep: two requests landed on each of 32 modules
        touched = [mod for mod in m.gmem.modules if mod.reads]
        assert len(touched) == 32

    def test_pathological_stride_hits_one_module(self):
        m = make_machine()

        def prog():
            stream = yield StartPrefetch(length=16, stride=32, address=0)
            yield AwaitStream(stream)

        m.run_programs({0: prog()})
        touched = [mod for mod in m.gmem.modules if mod.reads]
        assert len(touched) == 1
        # serialized on one module: interarrival reflects module service
        assert m.probe.summary().interarrival >= 2.0


class TestGlobalLoadPath:
    def test_two_outstanding_limit_paces_vector_loads(self):
        """GM/no-pref behaviour: throughput = 2 words per 13-cycle round
        trip (8 network/memory + 5 CE-side handling cycles)."""
        m = make_machine()
        done = {}

        def prog():
            yield GlobalLoad(length=64, stride=1, address=0)
            done["t"] = m.engine.now

        m.run_programs({0: prog()})
        per_word = done["t"] / 64
        assert per_word == pytest.approx(13.0 / 2.0, rel=0.1)

    def test_load_returns_all_words(self):
        m = make_machine()

        def prog():
            yield GlobalLoad(length=10, stride=3, address=5)

        m.run_programs({0: prog()})
        assert m.ce(0).stats.words_loaded == 10


class TestStores:
    def test_stores_do_not_stall_ce(self):
        m = make_machine()
        marks = {}

        def prog():
            yield GlobalStore(length=8, stride=1, address=0)
            marks["stored"] = m.engine.now
            yield Compute(1)

        m.run_programs({0: prog()})
        # the CE only pays issue bandwidth (2-word store packets through a
        # 1 word/cycle port), never a round trip per store
        assert marks["stored"] <= 8 * 2.5
        assert m.engine.now > marks["stored"]  # writes complete after CE moved on
        assert m.gmem.total_writes == 8


class TestSyncPath:
    def test_round_trip_returns_result(self):
        m = make_machine()
        results = []

        def prog():
            res = yield SyncInstruction(
                address=7, test=RelOp.ALWAYS, op=SyncOp.ADD, op_operand=1
            )
            results.append(res)

        m.run_programs({0: prog()})
        assert results[0].success and results[0].old_value == 0

    def test_concurrent_fetch_and_add_is_indivisible(self):
        m = make_machine()
        claims = []

        def prog(port):
            for _ in range(10):
                res = yield SyncInstruction(address=3, op=SyncOp.ADD, op_operand=1)
                claims.append(res.old_value)

        m.run_programs({p: prog(p) for p in range(8)})
        assert sorted(claims) == list(range(80))  # every claim unique

    def test_sync_ops_counted_per_module(self):
        m = make_machine()

        def prog():
            yield SyncInstruction(address=9)

        m.run_programs({0: prog()})
        assert m.gmem.total_sync_ops == 1
        assert m.gmem.modules[9].sync_ops == 1


class TestMultiCEContention:
    def test_contention_raises_latency(self):
        def run(n_ces):
            m = CedarMachine(CedarConfig(), monitor_port=0)

            def prog(port):
                base = port * 1024
                for _ in range(6):
                    stream = yield StartPrefetch(length=32, stride=1, address=base)
                    yield AwaitStream(stream)

            m.run_programs({p: prog(p) for p in range(n_ces)})
            return m.probe.summary()

        alone = run(1)
        crowded = run(32)
        assert crowded.first_word_latency > alone.first_word_latency
        assert crowded.interarrival > alone.interarrival

    def test_finish_time_reported_for_all(self):
        m = make_machine()

        def prog(port):
            yield Compute(port + 1)

        t = m.run_programs({p: prog(p) for p in range(4)})
        assert t == pytest.approx(4.0)

    def test_ces_run_again_once_their_programs_finish(self):
        m = make_machine()

        def prog(port):
            yield GlobalLoad(length=2, stride=1, address=64 * port)
            yield Compute(port + 1)

        first = m.run_programs({p: prog(p) for p in range(4)})
        second = m.run_programs({p: prog(p) for p in range(4)})
        assert first > 0.0 and second > first
        assert all(m.ce(p).done for p in range(4))

    def test_a_running_program_still_refuses_another(self):
        from repro.core.engine import SimulationError

        def prog():
            yield Compute(5)

        m = make_machine()
        refused = []

        def overlap(_):
            with pytest.raises(SimulationError, match="already running"):
                m.ce(0).run(prog())
            refused.append(m.engine.now)

        m.engine.schedule_after(2.0, overlap, None)
        assert m.run_programs({0: prog()}) == pytest.approx(5.0)
        assert refused == [2.0]


class TestPageBoundary:
    def test_prefetch_crossing_page_suspends(self):
        m = make_machine()
        # page = 512 words; start near the end of a page
        def prog():
            stream = yield StartPrefetch(length=8, stride=1, address=508)
            yield AwaitStream(stream)

        m.run_programs({0: prog()})
        assert m.pfu(0).page_suspensions == 1

    def test_no_suspension_within_page(self):
        m = make_machine()

        def prog():
            stream = yield StartPrefetch(length=8, stride=1, address=0)
            yield AwaitStream(stream)

        m.run_programs({0: prog()})
        assert m.pfu(0).page_suspensions == 0
