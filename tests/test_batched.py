"""The engine against its heap oracle: adversarial same-timestamp mixes.

:class:`~repro.core.engine.Engine` dispatches whole same-timestamp
buckets per transaction and hands runs of grouped callbacks to their
batch handlers.  It promises the semantics of a plain next-event heap —
the :class:`~tests.engine_oracle.HeapOracle` — with the same dispatch
order, final state and counters.  These tests drive both through the
intra-timestamp cases the bucket queue must get right: cancels landing
inside an already-popped batch, zero-delay re-schedules extending the
current timestamp, ``request_stop`` mid-batch with a resumed run, and
exceptions escaping mid-batch — then whole machines, bare and observed,
with the oracle swapped in as the machine's engine.
"""

import pytest

from repro.core.engine import Engine
from tests.engine_oracle import HeapOracle

ENGINES = [Engine, HeapOracle]


def both(scenario):
    """Run ``scenario(engine) -> trace`` on the engine and the oracle;
    assert equal traces and return the shared trace for
    scenario-specific asserts."""
    expected = scenario(HeapOracle())
    actual = scenario(Engine())
    assert actual == expected
    return expected


# ---------------------------------------------------------------------------
# intra-timestamp ordering


def test_same_timestamp_fifo_order_matches_scalar():
    def scenario(eng):
        seen = []
        for tag in range(8):
            eng.schedule(3.0, lambda t=tag: seen.append(t))
        eng.run()
        return seen

    assert both(scenario) == list(range(8))


def test_cancel_within_active_batch():
    # an early event in the bucket cancels a later one in the *same*
    # bucket — the engine has already popped the whole batch, so the
    # blanked slot must be skipped mid-dispatch, exactly as the oracle
    # skips it at the heap head.
    def scenario(eng):
        seen = []
        handles = {}

        def killer():
            seen.append("killer")
            assert eng.cancel(handles["victim"])

        eng.schedule(2.0, killer)
        handles["victim"] = eng.schedule(2.0, lambda: seen.append("victim"))
        eng.schedule(2.0, lambda: seen.append("survivor"))
        eng.run()
        return (seen, eng.pending(), eng.events_processed)

    seen, pending, processed = both(scenario)
    assert seen == ["killer", "survivor"]
    assert pending == 0
    assert processed == 2


def test_zero_delay_reschedule_extends_current_timestamp():
    # schedule_after(0) from inside a batch lands at the *current*
    # timestamp, whose bucket is already popped; the new event must run
    # in this timestamp, after every already-pending record — the
    # oracle's seq order.
    def scenario(eng):
        seen = []

        def first():
            seen.append(("first", eng.now))
            eng.schedule_after(0.0, lambda: seen.append(("extra", eng.now)))

        eng.schedule(1.0, first)
        eng.schedule(1.0, lambda: seen.append(("second", eng.now)))
        eng.schedule(2.0, lambda: seen.append(("later", eng.now)))
        eng.run()
        return seen

    assert both(scenario) == [
        ("first", 1.0), ("second", 1.0), ("extra", 1.0), ("later", 2.0),
    ]


def test_zero_delay_reschedule_chain_drains_before_advancing():
    def scenario(eng):
        seen = []

        def chain(depth):
            seen.append((eng.now, depth))
            if depth:
                eng.schedule_after(0.0, chain, depth - 1)

        eng.schedule(1.0, chain, 3)
        eng.schedule(1.5, lambda: seen.append((eng.now, "tick")))
        eng.run()
        return seen

    assert both(scenario) == [
        (1.0, 3), (1.0, 2), (1.0, 1), (1.0, 0), (1.5, "tick"),
    ]


def test_mixed_cancel_reschedule_storm_is_identical():
    # a deterministic pseudo-random mix of same-timestamp schedules,
    # cancels of pending and active-batch events, and zero-delay
    # re-schedules; the full dispatch trace must match the reference.
    def scenario(eng):
        seen = []
        handles = []

        def act(tag, step):
            seen.append((eng.now, tag))
            k = (tag * 7 + step) % 4
            if k == 0:
                handles.append(
                    eng.schedule_after(0.0, act, tag + 100, step + 1)
                )
            elif k == 1 and handles:
                eng.cancel(handles.pop((tag + step) % len(handles)))
            elif k == 2:
                handles.append(
                    eng.schedule_after(float(tag % 3), act, tag + 200, step + 1)
                )

        for tag in range(12):
            handles.append(eng.schedule(float(tag % 3), act, tag, 0))
        eng.run()
        return seen

    trace = both(scenario)
    assert len(trace) > 12  # the storm actually rescheduled work


# ---------------------------------------------------------------------------
# request_stop mid-batch and the resume contract


def test_request_stop_mid_batch_preserves_remainder():
    def scenario(eng):
        seen = []

        def stopper():
            seen.append("stopper")
            eng.request_stop()

        eng.schedule(1.0, lambda: seen.append("a"))
        eng.schedule(1.0, stopper)
        eng.schedule(1.0, lambda: seen.append("b"))
        eng.schedule(2.0, lambda: seen.append("c"))
        eng.run()
        stopped = (list(seen), eng.pending(), eng.now)
        eng.run()  # resume: no events lost or duplicated
        return (stopped, seen, eng.pending())

    stopped, seen, pending = both(scenario)
    assert stopped == (["a", "stopper"], 2, 1.0)
    assert seen == ["a", "stopper", "b", "c"]
    assert pending == 0


def test_request_stop_then_new_same_time_events_keep_order():
    # events scheduled at the stop timestamp *during* the stopped batch
    # must run after the requeued remainder on resume (seq order).
    def scenario(eng):
        seen = []

        def stopper():
            seen.append("stopper")
            eng.schedule_after(0.0, lambda: seen.append("late-add"))
            eng.request_stop()

        eng.schedule(1.0, stopper)
        eng.schedule(1.0, lambda: seen.append("pending-tail"))
        eng.run()
        eng.run()
        return seen

    assert both(scenario) == ["stopper", "pending-tail", "late-add"]


# ---------------------------------------------------------------------------
# pulse visits at batch boundaries


def test_pulse_sees_flushed_counters_at_batch_boundaries():
    def scenario(eng):
        visits = []
        for when in range(1, 30):
            for _ in range(4):
                eng.schedule(float(when), lambda: None)
        eng.attach_pulse(
            lambda e: visits.append((e.now, e.events_processed)), every=8
        )
        eng.run()
        eng.detach_pulse()
        return visits

    visits = scenario(Engine())
    assert visits  # the pulse actually fired
    for now, processed in visits:
        # counters are flushed before every visit, and visits happen
        # only between timestamps: a batched pulse never observes a
        # half-dispatched cycle, so the count is a multiple of the
        # 4-events-per-timestamp batch size.
        assert processed % 4 == 0 and processed > 0


def test_unpulsed_run_is_identical_to_pulsed():
    def scenario(eng):
        seen = []
        for when in range(1, 20):
            eng.schedule(float(when), lambda w=when: seen.append(w))
        eng.run()
        return seen

    def pulsed(eng):
        seen = []
        for when in range(1, 20):
            eng.schedule(float(when), lambda w=when: seen.append(w))
        eng.attach_pulse(lambda e: None, every=4)
        eng.run()
        eng.detach_pulse()
        return seen

    assert both(scenario) == pulsed(Engine())


# ---------------------------------------------------------------------------
# exceptions: the queue survives a raising callback


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_raising_callback_consumes_itself_and_preserves_rest(engine_cls):
    eng = engine_cls()
    seen = []

    def boom():
        seen.append("boom")
        raise RuntimeError("deliberate")

    eng.schedule(1.0, lambda: seen.append("a"))
    eng.schedule(1.0, boom)
    eng.schedule(1.0, lambda: seen.append("b"))
    eng.schedule(2.0, lambda: seen.append("c"))
    with pytest.raises(RuntimeError):
        eng.run()
    assert seen == ["a", "boom"]
    # the raising event is spent; the untouched remainder is intact and
    # a resumed drain dispatches it exactly once, in order.
    assert eng.pending() == 2
    eng.run()
    assert seen == ["a", "boom", "b", "c"]
    assert eng.pending() == 0


# ---------------------------------------------------------------------------
# state introspection


def test_dump_state_matches_scalar_order():
    # the dump lists upcoming events in the order the oracle would
    # dispatch them one at a time.
    def scenario(eng):
        def early_a():  # distinct names so order is visible in the dump
            pass

        def early_b():
            pass

        def late():
            pass

        eng.schedule(5.0, late)
        eng.schedule(1.0, early_a, "x")
        eng.schedule(1.0, early_b)
        handle = eng.schedule(3.0, lambda: None)
        eng.cancel(handle)
        state = eng.dump_state()
        # records carry seq 0 (bucket order is dispatch order); the
        # (when, callback) order is the contract.
        return [
            (e["when"], e["callback"].rsplit(".", 1)[-1])
            for e in state["upcoming"]
        ]

    assert scenario(Engine()) == [
        (1.0, "early_a"), (1.0, "early_b"), (5.0, "late"),
    ]


def test_pending_and_reset_parity():
    def scenario(eng):
        handles = [eng.schedule(float(t % 3), lambda: None) for t in range(9)]
        eng.cancel(handles[4])
        counts = (eng.pending(),)
        eng.reset()
        return counts + (eng.pending(), eng.now, eng.events_processed)

    assert scenario(Engine()) == (8, 0, 0.0, 0)


# ---------------------------------------------------------------------------
# machine-level identity (the group handler under real traffic)


def test_machine_run_identical_across_drains(monkeypatch):
    import repro.core.context
    from repro.core.config import CedarConfig
    from repro.core.machine import CedarMachine
    from repro.kernels.programs import KERNELS, kernel_program

    results = {}
    for engine_cls in ENGINES:
        monkeypatch.setattr(repro.core.context, "Engine", engine_cls)
        machine = CedarMachine(CedarConfig())
        assert type(machine.engine) is engine_cls
        programs = {
            port: kernel_program(KERNELS["CG"], port, 2, prefetch=True)
            for port in range(4)
        }
        cycles = machine.run_programs(programs)
        results[engine_cls] = (
            cycles,
            machine.engine.events_processed,
            machine.ctx.stats(),
        )
    expected, actual = results[HeapOracle], results[Engine]
    assert actual[0] == expected[0], "simulated cycles diverged"
    assert actual[1] == expected[1], "event counts diverged"
    assert actual[2] == expected[2], "component counters diverged"


# ---------------------------------------------------------------------------
# observed-machine identity (the group handler's inlined accounting)


def _observed(monkeypatch, engine_cls, run):
    """Run ``run()`` on ``engine_cls`` with the standard monitors, a
    buffered :class:`SpanCollector` and a :class:`StreamingSpanStore` on
    every machine it builds; return what each machine observed.  Request
    ids restart at zero, so both engines number their spans alike."""
    import itertools

    import repro.core.context
    from repro.core.context import add_context_observer, remove_context_observer
    from repro.monitor.metrics import MetricsRegistry
    from repro.monitor.monitors import attach_standard_monitors, detach_monitors
    from repro.monitor.spans import LatencyAnalysis, SpanCollector
    from repro.monitor.streamstore import StreamingSpanStore
    from repro.network import packet

    monkeypatch.setattr(repro.core.context, "Engine", engine_cls)
    monkeypatch.setattr(packet, "_packet_ids", itertools.count())
    attached = []

    def observe(ctx):
        registry = MetricsRegistry()
        monitors = attach_standard_monitors(ctx, registry)
        spans = SpanCollector().attach(ctx.bus)
        stream = StreamingSpanStore().attach(ctx.bus)
        attached.append((ctx, registry, monitors, spans, stream))

    observer = add_context_observer(observe)
    try:
        run()
    finally:
        remove_context_observer(observer)
    machines = []
    for ctx, registry, monitors, spans, stream in attached:
        engine = ctx.engine
        links = [
            link
            for _name, component in ctx.components()
            if hasattr(component, "stages")
            for stage in component.stages
            for link in stage
        ]
        machines.append({
            "engine": type(engine).__name__,
            "cycles": engine.now,
            "events": engine.events_processed,
            "snapshot": registry.snapshot(now=engine.now),
            "spans": spans.spans(),
            "streaming": stream.spans(),
            "latency": LatencyAnalysis.from_collectors([spans]).summary(),
            "blocked_cycles": sum(link.stats.blocked_cycles for link in links),
        })
        detach_monitors(monitors)
        spans.detach()
        stream.detach()
    return machines


def _assert_observed_identical(monkeypatch, run):
    expected = _observed(monkeypatch, HeapOracle, run)
    actual = _observed(monkeypatch, Engine, run)
    assert expected, "no machine was built"
    assert {m.pop("engine") for m in expected} == {"HeapOracle"}
    assert {m.pop("engine") for m in actual} == {"Engine"}
    assert actual == expected
    return expected


def test_observed_rk_slice_identical_across_drains(monkeypatch):
    from repro.core.config import CedarConfig
    from repro.experiments.kernels_sim import _run

    machines = _assert_observed_identical(
        monkeypatch, lambda: _run(CedarConfig(), "RK", 32, True, 1)
    )
    assert machines[0]["spans"]["complete"] > 0
    assert machines[0]["streaming"]["complete"] == machines[0]["spans"]["complete"]


def test_observed_fault_run_identical_across_drains(monkeypatch):
    # fault sites send the next service start through the per-record
    # _maybe_start, so inlined and fallback records mix within batches.
    from repro.core.config import CedarConfig
    from repro.experiments.kernels_sim import _run
    from repro.faults import FaultPlan

    config = CedarConfig(faults=FaultPlan.uniform(0.05, seed=13))
    machines = _assert_observed_identical(
        monkeypatch, lambda: _run(config, "CG", 8, True, 2)
    )
    assert machines[0]["snapshot"].get("fault.transients", 0) > 0


def test_observed_head_of_line_blocking_identical_across_drains(monkeypatch):
    # one-word link queues: armed links block on a full next hop all the
    # time, and the blocked heads retry through the per-record path.
    from dataclasses import replace

    from repro.core.config import CedarConfig
    from repro.experiments.kernels_sim import _run

    config = CedarConfig()
    config = replace(config, network=replace(config.network, queue_words=1))
    machines = _assert_observed_identical(
        monkeypatch, lambda: _run(config, "CG", 8, True, 2)
    )
    assert machines[0]["blocked_cycles"] > 0
