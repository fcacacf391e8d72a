"""System-level property tests: conservation, deadlock freedom,
pipeline monotonicity, and misuse handling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.ce import (
    AwaitStream,
    Compute,
    GlobalLoad,
    GlobalStore,
    StartPrefetch,
)
from repro.core.config import CedarConfig
from repro.core.engine import Watchdog
from repro.core.machine import CedarMachine
from repro.restructurer.ir import Loop, Statement, read, write
from repro.restructurer.pipeline import AUTOMATABLE_PIPELINE, KAP_PIPELINE


class TestTrafficConservation:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=31),   # CE port
                st.integers(min_value=0, max_value=4095), # base address
                st.integers(min_value=1, max_value=48),   # stream length
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_every_prefetched_word_returns(self, streams):
        """Deadlock/livelock freedom and conservation: arbitrary
        concurrent prefetch traffic always drains, and exactly the
        requested words arrive."""
        machine = CedarMachine(CedarConfig())
        per_port = {}
        for port, base, length in streams:
            per_port.setdefault(port, []).append((base, length))

        def program(specs):
            for base, length in specs:
                stream = yield StartPrefetch(length=length, stride=1, address=base)
                yield AwaitStream(stream)

        programs = {port: program(specs) for port, specs in per_port.items()}
        machine.run_programs(programs, watchdog=Watchdog(max_events=2_000_000))
        requested = sum(length for _, _, length in streams)
        assert machine.gmem.total_reads == requested

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=31),
                st.integers(min_value=1, max_value=32),  # store length
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_every_store_lands(self, stores):
        machine = CedarMachine(CedarConfig())
        per_port = {}
        for port, length in stores:
            per_port.setdefault(port, []).append(length)

        def program(lengths):
            for i, length in enumerate(lengths):
                yield GlobalStore(length=length, stride=1, address=i * 64)
                yield Compute(1)

        machine.run_programs(
            {port: program(lengths) for port, lengths in per_port.items()},
            watchdog=Watchdog(max_events=2_000_000),
        )
        assert machine.gmem.total_writes == sum(l for _, l in stores)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=31),
                st.integers(min_value=1, max_value=24),
                st.integers(min_value=1, max_value=5),  # stride
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_mixed_loads_and_prefetches_drain(self, ops):
        machine = CedarMachine(CedarConfig())
        per_port = {}
        for port, length, stride in ops:
            per_port.setdefault(port, []).append((length, stride))

        def program(specs):
            for i, (length, stride) in enumerate(specs):
                if i % 2 == 0:
                    yield GlobalLoad(length=length, stride=stride, address=i * 128)
                else:
                    s = yield StartPrefetch(length=length, stride=stride,
                                            address=i * 128)
                    yield AwaitStream(s)

        machine.run_programs(
            {port: program(specs) for port, specs in per_port.items()},
            watchdog=Watchdog(max_events=2_000_000),
        )
        assert machine.gmem.total_reads == sum(l for _, l, _ in ops)


class TestPipelineMonotonicity:
    @given(
        st.lists(
            st.sampled_from(
                ["clean", "scalar", "workspace", "reduction", "recurrence"]
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_automatable_parallelizes_superset_of_kap(self, kinds):
        """Whatever KAP proves parallel, the automatable pipeline must
        too (it strictly extends the transform set)."""
        for i, kind in enumerate(kinds):
            loop = self._make_loop(kind, i)
            kap = KAP_PIPELINE.restructure_loop(loop)
            loop.reset_analysis()
            auto = AUTOMATABLE_PIPELINE.restructure_loop(loop)
            if kap.parallel:
                assert auto.parallel, kind

    @staticmethod
    def _make_loop(kind: str, index: int) -> Loop:
        x, y, w, s = (f"{n}{index}" for n in "xyws")
        if kind == "clean":
            body = [Statement(lhs=write(y, 1, 0), rhs=[read(x, 1, 0)])]
        elif kind == "scalar":
            body = [
                Statement(lhs=write(s), rhs=[read(x, 1, 0)]),
                Statement(lhs=write(y, 1, 0), rhs=[read(s)]),
            ]
        elif kind == "workspace":
            body = [
                Statement(lhs=write(w, 0, 1), rhs=[read(x, 1, 0)]),
                Statement(lhs=write(y, 1, 0), rhs=[read(w, 0, 1)]),
            ]
        elif kind == "reduction":
            body = [
                Statement(lhs=write(s), rhs=[read(s), read(x, 1, 0)],
                          reduction_op="+")
            ]
        else:  # recurrence
            body = [Statement(lhs=write(y, 1, 0), rhs=[read(y, 1, -1)])]
        return Loop(var="i", trips=64, body=body, weight=1.0)


class TestMisuse:
    def test_firing_pfu_while_in_flight_rejected(self):
        machine = CedarMachine(CedarConfig())
        errors = []

        def program():
            yield StartPrefetch(length=64, stride=1, address=0)
            try:
                yield StartPrefetch(length=8, stride=1, address=512)
            except RuntimeError as exc:
                errors.append(exc)

        with pytest.raises(RuntimeError):
            machine.run_programs({0: program()})

    def test_overlong_prefetch_rejected(self):
        machine = CedarMachine(CedarConfig())
        with pytest.raises(ValueError):
            machine.pfu(0).start(length=1024, stride=1, start_address=0)

    def test_ce_cannot_run_two_programs(self):
        machine = CedarMachine(CedarConfig())

        def idle():
            yield Compute(1)

        machine.ce(0).run(idle())
        from repro.core.engine import SimulationError

        with pytest.raises(SimulationError):
            machine.ce(0).run(idle())

    def test_unknown_operation_rejected(self):
        machine = CedarMachine(CedarConfig())

        def bad():
            yield "not an op"

        machine.ce(0).run(bad())
        from repro.core.engine import SimulationError

        with pytest.raises(SimulationError):
            machine.engine.run()
