"""Engine contract fuzzing: generated programs on the engine and the oracle.

Each program schedules events over a handful of timestamps, so ties are
the norm, and gives every event a short script to run when dispatched:
absolute or zero-delay re-schedules, cancels of still-pending handles
(often in the same timestamp), a second cancel of an already-cancelled
handle, ``request_stop`` and a raising callback.  A driver then
alternates plain runs, runs cut by a ``request_stop`` event scheduled
ahead, and runs cut by a raising event scheduled ahead with top-level
schedules and cancels, catching every raise and resuming.
:class:`~repro.core.engine.Engine` and the
:class:`~tests.engine_oracle.HeapOracle` must produce the same trace:
dispatch order, ``cancel`` results, raised errors, and ``now``,
``events_processed`` and ``pending()`` after every driver step.

Only handles whose event has not yet been reclaimed are cancelled: the
engine recycles spent records, so cancelling a handle after its event
ran is undefined (see the ``repro.core.engine`` module docstring).
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.engine import Engine, SimulationError
from tests.engine_oracle import HeapOracle

#: events one program may create beyond its initial schedules.
BUDGET = 40

TIMES = st.sampled_from([0.0, 1.0, 2.0, 3.0])
DELAYS = st.sampled_from([0.0, 0.0, 1.0, 2.0])
PICK = st.integers(0, 7)

ACTION = st.one_of(
    st.tuples(st.just("after"), DELAYS),
    st.tuples(st.just("at"), DELAYS),
    st.tuples(st.just("cancel"), PICK),
    st.tuples(st.just("recancel"), PICK),
    st.tuples(st.just("stop")),
    st.tuples(st.just("raise")),
)

AHEAD = st.sampled_from([0.0, 1.0, 2.0, 3.0])

STEP = st.one_of(
    st.tuples(st.just("run")),
    st.tuples(st.just("stop_at"), AHEAD),
    st.tuples(st.just("raise"), AHEAD),
    st.tuples(st.just("schedule"), DELAYS),
    st.tuples(st.just("cancel"), PICK),
)

PROGRAMS = st.fixed_dictionaries({
    "initial": st.lists(TIMES, min_size=1, max_size=8),
    "scripts": st.lists(st.lists(ACTION, max_size=3), min_size=1, max_size=6),
    "steps": st.lists(STEP, max_size=8),
})


class Boom(Exception):
    """The deliberate failure a ``raise`` action or step throws."""


def boom():
    raise Boom("step")


def execute(eng, program):
    """Run ``program`` on ``eng``; return its full trace."""
    trace = []
    live = {}  # tag -> handle of an event neither run nor cancelled
    cancelled = {}  # tag -> (when, handle) of a cancelled event
    tags = itertools.count()
    scripts = program["scripts"]

    def add(schedule, when):
        tag = next(tags)
        if tag < BUDGET + len(program["initial"]):
            live[tag] = schedule(when, act, tag)

    def cancel(k):
        if live:
            tag = sorted(live)[k % len(live)]
            handle = live.pop(tag)
            cancelled[tag] = (handle[0], handle)
            trace.append(("cancel", tag, eng.cancel(handle)))

    def recancel(k):
        # a cancelled slot is reclaimed when its timestamp is dispatched;
        # one strictly in the future is still queued and safe to touch.
        queued = sorted(t for t, (when, _h) in cancelled.items() if when > eng.now)
        if queued:
            tag = queued[k % len(queued)]
            trace.append(("recancel", tag, eng.cancel(cancelled[tag][1])))

    def act(tag):
        del live[tag]
        trace.append(("run", eng.now, tag))
        for op, *arg in scripts[tag % len(scripts)]:
            if op == "after":
                add(eng.schedule_after, arg[0])
            elif op == "at":
                add(eng.schedule, eng.now + arg[0])
            elif op == "cancel":
                cancel(arg[0])
            elif op == "recancel":
                recancel(arg[0])
            elif op == "stop":
                eng.request_stop()
            else:
                raise Boom(tag)

    def step(op, *arg):
        try:
            if op == "run":
                eng.run()
            elif op == "stop_at":
                eng.schedule(eng.now + arg[0], eng.request_stop)
                eng.run()
            elif op == "raise":
                eng.schedule(eng.now + arg[0], boom)
                eng.run()
            elif op == "schedule":
                add(eng.schedule_after, arg[0])
            else:
                cancel(arg[0])
        except Boom as exc:
            trace.append(("boom", exc.args[0]))
        except SimulationError as exc:
            trace.append(("error", str(exc)))
        trace.append(("state", eng.now, eng.events_processed, eng.pending()))

    for when in program["initial"]:
        add(eng.schedule, when)
    for op in program["steps"]:
        step(*op)
    for _ in range(2 * BUDGET + len(program["initial"])):
        step("run")
        if eng.pending() == 0:
            break
    return trace


@settings(max_examples=300, deadline=None)
@given(PROGRAMS)
def test_engine_matches_oracle_on_generated_programs(program):
    expected = execute(HeapOracle(), program)
    assert execute(Engine(), program) == expected
    assert expected[-1][-1] == 0  # every program drains completely


def test_fuzz_programs_reach_the_adversarial_cases():
    # two hand-built programs through the interpreter.  First: a cancel,
    # a second cancel of the same handle, a mid-batch stop with a
    # zero-delay reschedule, and a scripted raise all fire.
    program = {
        "initial": [1.0, 1.0, 1.0, 2.0, 3.0],
        "scripts": [
            [("cancel", 2), ("recancel", 0)],  # tag 3, at 2.0
            [("after", 0.0), ("stop",)],
            [("raise",)],
            [],
            [],
        ],
        "steps": [("run",), ("run",), ("run",)],
    }
    expected = execute(HeapOracle(), program)
    assert execute(Engine(), program) == expected
    assert ("cancel", 3, True) in expected
    assert ("recancel", 3, False) in expected
    assert ("boom", 2) in expected
    assert expected[4] == ("state", 1.0, 2, 3)  # stopped mid-batch

    # Second, the driver ops: even tags schedule one more event a cycle
    # later.  ``stop_at`` queues its stop at 2.0 ahead of tag 2, which
    # tag 0 schedules at 2.0 during the run; ``raise`` queues its raising
    # event at 3.0 ahead of tag 3 the same way.  Both cut their timestamp
    # with one record left, requeued and dispatched by the next run.
    program = {
        "initial": [1.0, 2.0],
        "scripts": [[("after", 1.0)], []],
        "steps": [("stop_at", 2.0), ("raise", 1.0)],
    }
    expected = execute(HeapOracle(), program)
    assert execute(Engine(), program) == expected
    assert expected == [
        ("run", 1.0, 0),
        ("run", 2.0, 1),
        ("state", 2.0, 3, 1),  # stopped at 2.0, tag 2 still due at 2.0
        ("run", 2.0, 2),
        ("boom", "step"),
        ("state", 3.0, 4, 1),  # raised at 3.0, tag 3 still due at 3.0
        ("run", 3.0, 3),
        ("state", 3.0, 5, 0),
    ]
