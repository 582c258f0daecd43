"""Tests for the discrete-event simulator kernel."""

import pytest

from repro.errors import SchedulingError
from repro.sim.engine import Simulator
from repro.sim.events import PRIORITY_KERNEL, PRIORITY_LATE, PRIORITY_NORMAL


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_events_fire_in_time_order(sim):
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_time(sim):
    times = []
    sim.schedule(1.5, lambda: times.append(sim.now))
    sim.schedule(4.25, lambda: times.append(sim.now))
    sim.run()
    assert times == [1.5, 4.25]
    assert sim.now == 4.25


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0  # clock advances to the horizon
    sim.run(until=10.0)
    assert fired == [1, 5]


def test_run_until_includes_boundary_event(sim):
    fired = []
    sim.schedule(2.0, fired.append, "x")
    sim.run(until=2.0)
    assert fired == ["x"]


def test_same_time_fifo_order(sim):
    fired = []
    for i in range(10):
        sim.schedule(1.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_priority_orders_simultaneous_events(sim):
    fired = []
    sim.schedule(1.0, fired.append, "normal", priority=PRIORITY_NORMAL)
    sim.schedule(1.0, fired.append, "late", priority=PRIORITY_LATE)
    sim.schedule(1.0, fired.append, "kernel", priority=PRIORITY_KERNEL)
    sim.run()
    assert fired == ["kernel", "normal", "late"]


def test_cancelled_event_does_not_fire(sim):
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []


def test_cancel_one_of_many(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    handle = sim.schedule(2.0, fired.append, "b")
    sim.schedule(3.0, fired.append, "c")
    handle.cancel()
    sim.run()
    assert fired == ["a", "c"]


def test_negative_delay_rejected(sim):
    with pytest.raises(SchedulingError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.schedule_at(1.0, lambda: None)


def test_schedule_at_current_time_allowed(sim):
    fired = []

    def now_event():
        sim.schedule_at(sim.now, fired.append, "nested")

    sim.schedule(1.0, now_event)
    sim.run()
    assert fired == ["nested"]


def test_events_scheduled_during_run_fire(sim):
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_clear_drops_pending_events(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.clear()
    sim.run()
    assert fired == []


def test_processed_events_counter(sim):
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    sim.run()
    assert sim.processed_events == 5


def test_run_is_not_reentrant(sim):
    def reenter():
        with pytest.raises(SchedulingError):
            sim.run()

    sim.schedule(1.0, reenter)
    sim.run()


def test_args_are_passed(sim):
    got = []
    sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, "two")
    sim.run()
    assert got == [(1, "two")]


def test_run_resumable_across_horizons(sim):
    fired = []
    for t in (1.0, 2.0, 3.0, 4.0):
        sim.schedule(t, fired.append, t)
    sim.run(until=2.5)
    assert fired == [1.0, 2.0]
    sim.run(until=3.5)
    assert fired == [1.0, 2.0, 3.0]
    sim.run()
    assert fired == [1.0, 2.0, 3.0, 4.0]


def test_event_rescheduling_pattern(sim):
    """The cancel-and-reschedule pattern protocol timers rely on."""
    fired = []
    handle = sim.schedule(5.0, fired.append, "old")
    handle.cancel()
    sim.schedule(2.0, fired.append, "new")
    sim.run()
    assert fired == ["new"]


def test_pending_events_excludes_cancelled(sim):
    a = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    a.cancel()
    # Lazy cancellation keeps the heap entry, but the live count and the
    # cancellation tally both see through it.
    assert sim.pending_events == 1
    assert sim.heap_depth == 2
    assert sim.cancelled_events == 1
    sim.run()
    assert sim.pending_events == 0
    assert sim.heap_depth == 0
    assert sim.cancelled_events == 1
    assert sim.processed_events == 1


def test_double_cancel_counted_once(sim):
    a = sim.schedule(1.0, lambda: None)
    a.cancel()
    a.cancel()
    assert sim.cancelled_events == 1
    assert sim.pending_events == 0


def test_cancel_after_fire_is_noop(sim):
    a = sim.schedule(1.0, lambda: None)
    sim.run()
    a.cancel()  # DSR cancels already-fired timers defensively
    assert sim.cancelled_events == 0
    assert sim.processed_events == 1


def test_clear_resets_cancel_accounting(sim):
    a = sim.schedule(1.0, lambda: None)
    a.cancel()
    sim.clear()
    assert sim.pending_events == 0
    assert sim.heap_depth == 0


def test_fire_interceptor_wraps_dispatch(sim):
    fired = []
    seen = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")

    def hook(event):
        seen.append(event.time)
        event.fire()

    sim.set_fire_interceptor(hook)
    sim.run()
    assert fired == ["a", "b"]
    assert seen == [1.0, 2.0]
    sim.set_fire_interceptor(None)


def test_clear_resets_cancelled_total(sim):
    a = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    a.cancel()
    assert sim.cancelled_events == 1
    sim.clear()
    # The cancelled counters describe queue state; after a clear the old
    # queue no longer exists, so the totals restart from zero.
    assert sim.cancelled_events == 0
    assert sim.pending_events == 0
    b = sim.schedule(1.0, lambda: None)
    b.cancel()
    assert sim.cancelled_events == 1


def test_clear_retains_clock_and_processed_count(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    sim.clear()
    assert sim.now == 1.0
    assert sim.processed_events == 1
