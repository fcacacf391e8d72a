"""Unit tests for the discrete-event engine."""

import pytest

from repro.core.engine import Engine, SimulationError


def test_events_run_in_time_order():
    eng = Engine()
    seen = []
    eng.schedule(5, lambda: seen.append("b"))
    eng.schedule(1, lambda: seen.append("a"))
    eng.schedule(9, lambda: seen.append("c"))
    eng.run()
    assert seen == ["a", "b", "c"]
    assert eng.now == 9


def test_ties_break_in_fifo_order():
    eng = Engine()
    seen = []
    for tag in range(5):
        eng.schedule(3, lambda t=tag: seen.append(t))
    eng.run()
    assert seen == [0, 1, 2, 3, 4]


def test_schedule_after_is_relative():
    eng = Engine()
    times = []

    def chain():
        times.append(eng.now)
        if len(times) < 3:
            eng.schedule_after(2, chain)

    eng.schedule(1, chain)
    eng.run()
    assert times == [1, 3, 5]


def test_cannot_schedule_in_the_past():
    eng = Engine()
    eng.schedule(10, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.schedule(5, lambda: None)


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule_after(-1, lambda: None)


def test_events_processed_counter():
    eng = Engine()
    for t in range(4):
        eng.schedule(t, lambda: None)
    eng.run()
    assert eng.events_processed == 4


# -- cancellation handles --------------------------------------------------


def test_cancel_prevents_execution():
    eng = Engine()
    seen = []
    handle = eng.schedule(5, lambda: seen.append("x"))
    assert eng.cancel(handle) is True
    eng.run()
    assert seen == []
    assert eng.pending() == 0


def test_cancel_twice_returns_false():
    eng = Engine()
    handle = eng.schedule(5, lambda: None)
    assert eng.cancel(handle) is True
    assert eng.cancel(handle) is False
    eng.run()
    assert eng.pending() == 0


def test_cancel_after_run_is_a_noop():
    eng = Engine()
    seen = []
    handle = eng.schedule(5, lambda: seen.append("x"))
    eng.run()
    assert seen == ["x"]
    assert eng.cancel(handle) is False
    assert eng.pending() == 0


def test_cancel_middle_of_ties_preserves_fifo():
    eng = Engine()
    seen = []
    handles = [eng.schedule(3, lambda t=t: seen.append(t)) for t in range(5)]
    eng.cancel(handles[2])
    eng.run()
    assert seen == [0, 1, 3, 4]


def test_pending_excludes_cancelled():
    eng = Engine()
    handles = [eng.schedule(t, lambda: None) for t in range(4)]
    assert eng.pending() == 4
    eng.cancel(handles[1])
    eng.cancel(handles[3])
    assert eng.pending() == 2


# -- varargs dispatch ------------------------------------------------------


def test_callback_receives_scheduled_args():
    eng = Engine()
    seen = []
    eng.schedule(1, seen.append, "a")
    eng.schedule_after(2, lambda x, y: seen.append((x, y)), 1, 2)
    eng.run()
    assert seen == ["a", (1, 2)]


# -- out-of-order scheduling -----------------------------------------------


def test_out_of_order_schedules_interleave_correctly():
    # Descending times, then a monotone chain scheduled from inside
    # callbacks; dispatch must still be global (time, schedule order).
    eng = Engine()
    seen = []
    for t in (9, 7, 5, 3, 1):
        eng.schedule(t, lambda t=t: seen.append(t))

    def chase():
        seen.append(eng.now)
        if eng.now < 8:
            eng.schedule_after(2, chase)

    eng.schedule(0, chase)
    eng.run()
    assert seen == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]


def test_earlier_event_scheduled_later_runs_first():
    eng = Engine()
    seen = []
    eng.schedule(10, lambda: seen.append("scheduled-first"))
    eng.schedule(5, lambda: seen.append("earlier"))  # out of order
    eng.run()
    assert seen == ["earlier", "scheduled-first"]


def test_fifo_ties_survive_an_out_of_order_schedule():
    eng = Engine()
    seen = []
    eng.schedule(10, lambda: seen.append("a"))
    eng.schedule(10, lambda: seen.append("b"))
    eng.schedule(9, lambda: None)               # out of order
    eng.schedule(10, lambda: seen.append("c"))
    eng.run()
    assert seen == ["a", "b", "c"]


# -- stop / resume contract ------------------------------------------------


def test_request_stop_halts_after_current_event():
    eng = Engine()
    seen = []
    eng.schedule(1, lambda: seen.append(1))
    eng.schedule(2, lambda: (seen.append(2), eng.request_stop()))
    eng.schedule(3, lambda: seen.append(3))
    eng.run()
    assert seen == [1, 2]
    assert eng.pending() == 1
    eng.run()
    assert seen == [1, 2, 3]


def test_run_drains_everything():
    eng = Engine()
    seen = []
    for t in (4, 2, 8):
        eng.schedule(t, lambda t=t: seen.append(t))
    final = eng.run()
    assert seen == [2, 4, 8]
    assert final == 8
    assert eng.pending() == 0


def test_runs_cut_by_request_stop_compose_like_one_run():
    def build():
        eng = Engine()
        seen = []

        def chain(n):
            seen.append((eng.now, n))
            if n:
                eng.schedule_after(3, chain, n - 1)

        eng.schedule(1, chain, 5)
        eng.schedule(7, seen.append, "mid")
        return eng, seen

    eng1, seen1 = build()
    eng1.run()

    eng2, seen2 = build()
    # the stop at 7 is queued after ``mid`` and before the chain event
    # scheduled at 7 during the run: that cut leaves the chain queued.
    eng2.schedule(4, eng2.request_stop)
    eng2.schedule(7, eng2.request_stop)
    assert eng2.run() == 4
    assert eng2.run() == 7
    assert seen2[-1] == "mid"
    assert eng2.pending() == 1
    eng2.run()
    assert seen2 == seen1
    assert eng2.now == eng1.now
    assert eng2.events_processed == eng1.events_processed + 2


def test_reset_clears_queue_in_place():
    eng = Engine()
    eng.schedule(5, lambda: None)
    eng.schedule(1, eng.request_stop)
    eng.run()
    assert eng.pending() == 1
    eng.reset()
    assert eng.pending() == 0
    assert eng.now == 0.0
    seen = []
    eng.schedule(2, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [2]
