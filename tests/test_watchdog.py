"""Engine watchdog: budgets, livelock detection, diagnostic dumps.

The watchdog is a pure observer — a run that stays inside its budgets
and keeps making progress is bit-identical with and without one — but
a run that livelocks or blows a budget aborts with a
:class:`WatchdogError` carrying an engine state dump instead of
spinning forever.
"""

import pytest

from repro.core.config import CedarConfig
from repro.core.engine import (
    _BATCH_HANDLERS,
    Engine,
    Watchdog,
    WatchdogError,
    register_batch_handler,
)
from repro.core.machine import CedarMachine
from repro.kernels.programs import KERNELS, kernel_program


def zero_delay_livelock(engine):
    """The classic stuck simulation: an event that reschedules itself
    at the current time, so the clock never advances."""

    def tick():
        engine.schedule_after(0.0, tick)

    engine.schedule(0.0, tick)


def forever_advancing(engine):
    """A run that advances time forever (no livelock, just unbounded)."""

    def tick():
        engine.schedule_after(1.0, tick)

    engine.schedule(0.0, tick)


class TestWatchdogConstruction:
    def test_check_cadence_must_be_positive(self):
        with pytest.raises(ValueError):
            Watchdog(check_every=0)
        with pytest.raises(ValueError):
            Watchdog(stall_checks=0)

    def test_attach_arms_and_detach_returns(self):
        engine = Engine()
        watchdog = Watchdog(max_events=100)
        assert engine.attach_watchdog(watchdog) is watchdog
        assert engine.detach_watchdog() is watchdog
        assert engine.detach_watchdog() is None


class TestAborts:
    def test_zero_delay_livelock_is_detected(self):
        engine = Engine()
        zero_delay_livelock(engine)
        engine.attach_watchdog(Watchdog(check_every=16, stall_checks=4))
        with pytest.raises(WatchdogError, match="no progress"):
            engine.run()

    def test_cycle_budget_abort(self):
        engine = Engine()
        forever_advancing(engine)
        engine.attach_watchdog(Watchdog(max_cycles=500, check_every=64))
        with pytest.raises(WatchdogError, match="cycle budget exceeded"):
            engine.run()

    def test_event_budget_abort(self):
        engine = Engine()
        forever_advancing(engine)
        engine.attach_watchdog(Watchdog(max_events=1000, check_every=64))
        with pytest.raises(WatchdogError, match="event budget exceeded"):
            engine.run()

    def test_custom_progress_fingerprint(self):
        # time advances, but the *caller's* notion of progress is frozen
        # — the watchdog trusts the fingerprint over the clock.
        engine = Engine()
        forever_advancing(engine)
        engine.attach_watchdog(
            Watchdog(progress=lambda: 0, check_every=16, stall_checks=4)
        )
        with pytest.raises(WatchdogError, match="fingerprint frozen"):
            engine.run()

    def test_abort_carries_a_diagnostic_dump(self):
        engine = Engine()
        zero_delay_livelock(engine)
        engine.attach_watchdog(Watchdog(check_every=16, stall_checks=4))
        with pytest.raises(WatchdogError) as excinfo:
            engine.run()
        dump = excinfo.value.dump
        assert dump["events_processed"] > 0
        assert dump["upcoming"], "dump should name the rescheduled events"
        assert "tick" in dump["upcoming"][0]["callback"]


class TestTransparency:
    def test_clean_run_is_unaffected(self):
        engine = Engine()
        hits = []
        for when in (5.0, 10.0, 15.0):
            engine.schedule(when, lambda t=when: hits.append(t))
        engine.attach_watchdog(Watchdog(max_events=1000, check_every=1))
        final = engine.run()
        assert hits == [5.0, 10.0, 15.0] and final == 15.0

    def test_machine_run_is_bit_identical_under_a_watchdog(self):
        shape = KERNELS["CG"]

        def programs():
            return {
                port: kernel_program(shape, port, 2, prefetch=True)
                for port in range(2)
            }

        bare = CedarMachine(CedarConfig()).run_programs(programs())
        supervised = CedarMachine(CedarConfig()).run_programs(
            programs(), watchdog=Watchdog(max_events=10_000_000, check_every=256)
        )
        assert supervised == bare

    def test_budgets_count_from_arming_not_time_zero(self):
        engine = Engine()
        forever_advancing(engine)
        engine.schedule(400.0, engine.request_stop)
        engine.run()  # unsupervised warm-up
        assert engine.now == 400.0
        engine.attach_watchdog(Watchdog(max_cycles=500, check_every=64))
        engine.schedule(800.0, engine.request_stop)
        engine.run()  # 400 cycles since arming: within budget
        assert engine.now == 800.0
        with pytest.raises(WatchdogError, match="cycle budget"):
            engine.run()

    def test_engine_reset_disarms(self):
        engine = Engine()
        engine.attach_watchdog(Watchdog(max_events=1))
        engine.reset()
        assert engine.detach_watchdog() is None


class Ticker:
    """Reschedules itself one cycle later until ``left`` runs out."""

    def __init__(self, engine):
        self.engine = engine
        self.ticks = 0

    def tick(self, left):
        self.ticks += 1
        if left:
            self.engine.schedule_after(1.0, self.tick, left - 1)


def counting_group_handler(calls):
    """A transparent group handler for ``Ticker.tick`` that records the
    size of every group it dispatches."""

    def handler(engine, batch, i, n):
        done = 0
        while i < n:
            record = batch[i]
            cb = record[2]
            if cb is None:
                engine._cancelled -= 1
                i += 1
                continue
            if getattr(cb, "__func__", None) is not Ticker.tick:
                break
            args = record[3]
            record[2] = None
            record[3] = ()
            i += 1
            cb(*args)
            done += 1
            if engine._stop_requested:
                break
        calls.append(done)
        return i, done

    return handler


class TestSupervisedDrain:
    def test_supervised_run_takes_group_handlers(self):
        calls = []
        register_batch_handler(Ticker.tick, counting_group_handler(calls))
        try:
            engine = Engine()
            tickers = [Ticker(engine) for _ in range(3)]
            for ticker in tickers:
                engine.schedule(0.0, ticker.tick, 9)
            checks = []
            engine.attach_watchdog(Watchdog(
                max_events=1000, check_every=4,
                on_check=lambda e: checks.append(e.events_processed),
            ))
            assert engine.run() == 9.0
        finally:
            _BATCH_HANDLERS.pop(Ticker.tick)
        assert [t.ticks for t in tickers] == [10, 10, 10]
        assert calls == [3] * 10  # one group call per timestamp
        # checked at the first batch boundary past every 4 events
        assert checks == [6, 12, 18, 24, 30]

    def test_check_cadence_carries_across_drains(self):
        engine = Engine()
        checks = []
        engine.attach_watchdog(Watchdog(
            check_every=4, on_check=lambda e: checks.append(e.events_processed),
        ))
        for when in (1.0, 2.0, 3.0):
            engine.schedule(when, lambda: None)
        engine.run()
        assert checks == []
        for when in (4.0, 5.0, 6.0):
            engine.schedule(when, lambda: None)
        engine.run()
        assert checks == [4]


class TestMachineIntegration:
    def test_run_programs_detaches_after_abort(self):
        machine = CedarMachine(CedarConfig())
        shape = KERNELS["CG"]
        programs = {0: kernel_program(shape, 0, 4, prefetch=True)}
        watchdog = Watchdog(max_events=50, check_every=8)
        with pytest.raises(WatchdogError):
            machine.run_programs(programs, watchdog=watchdog)
        # the finally-block disarmed the engine: later runs are unchecked
        assert machine.engine.detach_watchdog() is None

    def test_run_programs_supplies_a_machine_fingerprint(self):
        machine = CedarMachine(CedarConfig())
        shape = KERNELS["CG"]
        watchdog = Watchdog(max_events=10_000_000)
        machine.run_programs(
            {0: kernel_program(shape, 0, 2, prefetch=True)}, watchdog=watchdog
        )
        assert watchdog.progress is not None
        remaining, fwd_words, rev_words = watchdog.progress()
        assert remaining == 0 and fwd_words > 0 and rev_words > 0
