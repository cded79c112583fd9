"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine


def test_schedule_and_run_in_order():
    engine = Engine()
    order = []
    engine.schedule(5, order.append, "b")
    engine.schedule(1, order.append, "a")
    engine.schedule(9, order.append, "c")
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 9


def test_same_cycle_events_fire_in_insertion_order():
    engine = Engine()
    order = []
    for tag in range(10):
        engine.schedule(3, order.append, tag)
    engine.run()
    assert order == list(range(10))


def test_zero_delay_event_runs_at_current_cycle():
    engine = Engine()
    seen = []

    def outer():
        engine.schedule(0, seen.append, engine.now)

    engine.schedule(4, outer)
    engine.run()
    assert seen == [4]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.schedule(-1, lambda: None)


def test_at_absolute_time():
    engine = Engine()
    seen = []
    engine.schedule(2, lambda: engine.at(10, seen.append, "x"))
    engine.run()
    assert seen == ["x"]
    assert engine.now == 10


def test_run_max_cycles_bounds_time():
    engine = Engine()

    def forever():
        engine.schedule(10, forever)

    engine.schedule(0, forever)
    engine.run(max_cycles=55)
    assert engine.now == 55
    assert engine.pending > 0


def test_events_can_cascade_within_same_cycle():
    engine = Engine()
    depth = []

    def nest(n):
        depth.append(n)
        if n < 3:
            engine.schedule(0, nest, n + 1)

    engine.schedule(7, nest, 0)
    engine.run()
    assert depth == [0, 1, 2, 3]
    assert engine.now == 7


def test_pending_counts_events():
    engine = Engine()
    engine.schedule(1, lambda: None)
    engine.schedule(2, lambda: None)
    assert engine.pending == 2
    engine.run(max_cycles=1)
    assert engine.pending == 1


def test_determinism_across_identical_runs():
    def run_once():
        engine = Engine()
        log = []
        engine.schedule(3, log.append, 1)
        engine.schedule(3, log.append, 2)
        engine.schedule(1, lambda: engine.schedule(2, log.append, 3))
        engine.run()
        return log

    assert run_once() == run_once()


def test_run_resumes_after_deadline_without_past_events():
    """Regression: a deadline-terminated run leaves queued events that a
    later run() must dispatch, not reject as scheduled in the past."""
    engine = Engine()
    fired = []

    def periodic():
        fired.append(engine.now)
        engine.schedule(10, periodic)

    engine.schedule(0, periodic)
    engine.run(max_cycles=25)
    assert engine.now == 25
    assert fired == [0, 10, 20]
    # The next event (cycle 30) is still queued; resuming runs it.
    engine.run(max_cycles=10)
    assert engine.now == 35
    assert fired == [0, 10, 20, 30]


def test_run_deadline_between_bucketed_events():
    """A deadline landing between a dispatched cycle and its queued
    next-cycle tick must not lose or double-run the tick."""
    engine = Engine()
    fired = []

    def tick():
        fired.append(engine.now)
        if engine.now < 6:
            engine.schedule(1, tick)

    engine.schedule(0, tick)
    engine.run(max_cycles=3)
    assert engine.now == 3
    assert fired == [0, 1, 2, 3]
    engine.run()
    assert fired == [0, 1, 2, 3, 4, 5, 6]


def test_run_deadline_in_the_past_is_a_noop():
    engine = Engine()
    engine.schedule(5, lambda: None)
    engine.run(max_cycles=0)
    assert engine.now == 0
    assert engine.pending == 1


def test_at_rejects_past_time_with_clear_error():
    engine = Engine()
    engine.schedule(8, lambda: None)
    engine.run()
    assert engine.now == 8
    with pytest.raises(ValueError) as exc:
        engine.at(3, lambda: None)
    assert "cycle 3" in str(exc.value)
    assert "cycle 8" in str(exc.value)


def test_at_current_time_is_allowed():
    engine = Engine()
    seen = []
    engine.schedule(5, lambda: engine.at(5, seen.append, "now"))
    engine.run()
    assert seen == ["now"]


def test_stop_ends_run_and_is_sticky():
    engine = Engine()
    log = []

    def tick(n):
        log.append(n)
        if n == 2:
            engine.stop()
        engine.schedule(1, tick, n + 1)

    engine.schedule(0, tick, 0)
    engine.run()
    # The stopping event finishes, then the loop exits with the rest
    # of the queue intact.
    assert log == [0, 1, 2]
    assert engine.stopped
    assert engine.pending == 1
    # The flag is sticky: a stopped engine's run() returns
    # immediately.
    engine.run()
    assert log == [0, 1, 2]
    assert engine.pending == 1


def test_events_dispatched_counter():
    engine = Engine()
    for delay in (0, 1, 5):
        engine.schedule(delay, lambda: None)
    engine.run()
    assert engine.events_dispatched == 3
