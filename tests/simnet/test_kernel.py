"""Tests for the discrete-event kernel."""

import pytest

from repro.simnet import Kernel, SimTimeoutError


class TestScheduling:
    def test_starts_at_zero(self):
        assert Kernel().now == 0.0

    def test_events_fire_in_time_order(self):
        k = Kernel()
        fired = []
        k.schedule(2.0, fired.append, "b")
        k.schedule(1.0, fired.append, "a")
        k.schedule(3.0, fired.append, "c")
        k.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        k = Kernel()
        fired = []
        for name in "abcde":
            k.schedule(1.0, fired.append, name)
        k.run_until_idle()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        k = Kernel()
        seen = []
        k.schedule(5.0, lambda: seen.append(k.now))
        k.run_until_idle()
        assert seen == [5.0]
        assert k.now == 5.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Kernel().schedule(-1, lambda: None)

    def test_schedule_at_absolute(self):
        k = Kernel()
        k.schedule(1.0, lambda: None)
        k.run_until_idle()
        k.schedule_at(5.0, lambda: None)
        k.run_until_idle()
        assert k.now == 5.0

    def test_schedule_at_past_rejected(self):
        k = Kernel()
        k.schedule(2.0, lambda: None)
        k.run_until_idle()
        with pytest.raises(ValueError):
            k.schedule_at(1.0, lambda: None)

    def test_nested_scheduling(self):
        k = Kernel()
        fired = []

        def outer():
            fired.append(("outer", k.now))
            k.schedule(1.0, lambda: fired.append(("inner", k.now)))

        k.schedule(1.0, outer)
        k.run_until_idle()
        assert fired == [("outer", 1.0), ("inner", 2.0)]

    def test_call_soon_runs_at_current_time(self):
        k = Kernel()
        fired = []
        k.schedule(1.0, lambda: k.call_soon(lambda: fired.append(k.now)))
        k.run_until_idle()
        assert fired == [1.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        k = Kernel()
        fired = []
        ev = k.schedule(1.0, fired.append, "x")
        ev.cancel()
        k.run_until_idle()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        k = Kernel()
        ev = k.schedule(1.0, lambda: None)
        k.schedule(2.0, lambda: None)
        ev.cancel()
        assert k.pending == 1


class TestRun:
    def test_run_until_stops_at_boundary(self):
        k = Kernel()
        fired = []
        k.schedule(1.0, fired.append, 1)
        k.schedule(5.0, fired.append, 5)
        n = k.run(until=2.0)
        assert n == 1
        assert fired == [1]
        assert k.now == 2.0
        k.run_until_idle()
        assert fired == [1, 5]

    def test_run_until_exact_boundary_inclusive(self):
        k = Kernel()
        fired = []
        k.schedule(2.0, fired.append, "x")
        k.run(until=2.0)
        assert fired == ["x"]

    def test_max_events_guard(self):
        k = Kernel()

        def loop():
            k.schedule(0.1, loop)

        k.schedule(0.1, loop)
        fired = k.run(max_events=50)
        assert fired == 50

    def test_events_fired_counter(self):
        k = Kernel()
        for _ in range(7):
            k.schedule(1.0, lambda: None)
        k.run_until_idle()
        assert k.events_fired == 7


class TestPumpUntil:
    def test_pump_until_predicate(self):
        k = Kernel()
        box = []
        k.schedule(3.0, box.append, "done")
        t = k.pump_until(lambda: bool(box))
        assert t == 3.0

    def test_pump_until_already_true_fires_nothing(self):
        k = Kernel()
        k.schedule(1.0, lambda: None)
        k.pump_until(lambda: True)
        assert k.events_fired == 0

    def test_pump_until_timeout(self):
        k = Kernel()
        k.schedule(10.0, lambda: None)
        with pytest.raises(SimTimeoutError):
            k.pump_until(lambda: False, timeout=5.0)
        assert k.now == 5.0

    def test_pump_until_queue_drained(self):
        k = Kernel()
        k.schedule(1.0, lambda: None)
        with pytest.raises(SimTimeoutError):
            k.pump_until(lambda: False)

    def test_pump_leaves_later_events_queued(self):
        k = Kernel()
        box = []
        k.schedule(1.0, box.append, "first")
        k.schedule(9.0, box.append, "later")
        k.pump_until(lambda: bool(box))
        assert box == ["first"]
        assert k.pending == 1


class TestWait:
    def test_wait_returns_the_result(self):
        k = Kernel()
        assert k.wait(lambda done: k.schedule(2.0, done, "ok", None)) == "ok"
        assert k.now == 2.0

    def test_wait_raises_the_operation_error(self):
        k = Kernel()
        with pytest.raises(KeyError):
            k.wait(lambda done: k.schedule(1.0, done, None, KeyError("gone")))

    def test_wait_leaves_later_events_queued(self):
        k = Kernel()
        k.schedule(9.0, lambda: None)
        k.wait(lambda done: k.schedule(1.0, done, None, None))
        assert k.pending == 1

    def test_drained_queue(self):
        k = Kernel()
        with pytest.raises(SimTimeoutError):
            k.wait(lambda done: None)
        with pytest.raises(ValueError, match="never") as raised:
            k.wait(lambda done: None, lambda: ValueError("never completed"))
        assert isinstance(raised.value.__cause__, SimTimeoutError)

    def test_own_error_is_not_taken_for_a_drain(self):
        k = Kernel()
        own = SimTimeoutError("the operation's own")
        with pytest.raises(SimTimeoutError) as raised:
            k.wait(lambda done: done(None, own), lambda: ValueError("drained"))
        assert raised.value is own


class TestEvery:
    def test_fires_each_interval_until_cancelled(self):
        k = Kernel()
        times = []
        cycle = k.every(2.0, lambda: times.append(k.now))
        k.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]
        cycle.cancel()
        assert k.pending == 0
        assert k.run() == 0

    def test_cancel_from_inside_the_callback(self):
        k = Kernel()
        ticks = []

        def tick():
            ticks.append(k.now)
            if len(ticks) == 3:
                cycle.cancel()

        cycle = k.every(1.0, tick)
        k.run()
        assert ticks == [1.0, 2.0, 3.0]
        assert k.pending == 0

    def test_callback_events_fire_before_the_next_tick(self):
        k = Kernel()
        order = []

        def tick():
            order.append("tick")
            k.schedule(1.0, order.append, "work")

        cycle = k.every(1.0, tick)
        k.run(until=2.5)
        cycle.cancel()
        assert order == ["tick", "work", "tick"]

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            Kernel().every(0.0, lambda: None)


class TestAdvance:
    def test_advance_moves_clock(self):
        k = Kernel()
        k.advance(4.0)
        assert k.now == 4.0

    def test_advance_past_pending_rejected(self):
        k = Kernel()
        k.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            k.advance(2.0)
