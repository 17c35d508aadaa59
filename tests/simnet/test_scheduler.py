"""Scheduler-semantics tests for the E13 run-queue kernel refactor.

These pin down behaviours the rest of the stack silently relies on:
same-timestamp FIFO order across both the timer heap and the run-queue,
cancellation that takes effect even from inside a same-instant callback,
a timer heap whose physical size tracks the *live* timer count, and a
live O(1) ``pending`` counter.
"""

import gc
import weakref

import pytest

from repro.simnet import Kernel


class TestSameTimestampOrder:
    def test_heap_and_call_soon_interleave_in_schedule_order(self):
        # events landing at one instant fire strictly in scheduling
        # order regardless of whether they arrived via the heap (a
        # delayed schedule) or the run-queue (call_soon at fire time)
        k = Kernel()
        fired = []
        k.schedule(1.0, fired.append, "heap-1")

        def spawn_soon():
            fired.append("spawner")
            k.call_soon(fired.append, "soon-1")
            k.schedule(0.0, fired.append, "soon-2")

        k.schedule(1.0, spawn_soon)
        k.schedule(1.0, fired.append, "heap-2")
        k.run_until_idle()
        assert fired == ["heap-1", "spawner", "heap-2", "soon-1", "soon-2"]

    def test_batched_heap_drain_preserves_seq_order(self):
        # 100 events at the same timestamp are popped as one batch; the
        # batch must come out in sequence order, not heap-internal order
        k = Kernel()
        fired = []
        for i in range(100):
            k.schedule(5.0, fired.append, i)
        k.run_until_idle()
        assert fired == list(range(100))

    def test_schedule_at_now_joins_run_queue(self):
        k = Kernel()
        fired = []

        def at_one():
            fired.append("outer")
            k.schedule_at(k.now, fired.append, "at-now")

        k.schedule(1.0, at_one)
        k.schedule(1.0, fired.append, "sibling")
        k.run_until_idle()
        assert fired == ["outer", "sibling", "at-now"]

    def test_zero_delay_never_touches_heap(self):
        k = Kernel()
        for _ in range(10):
            k.call_soon(lambda: None)
        assert k.heap_size == 0
        assert k.pending == 10


class TestCancellation:
    def test_cancel_from_same_instant_callback(self):
        # a callback cancelling a sibling scheduled for the *same*
        # timestamp must suppress it even though the sibling has already
        # been moved from the heap onto the run-queue batch
        k = Kernel()
        fired = []

        def canceller():
            fired.append("canceller")
            victim.cancel()

        k.schedule(1.0, canceller)
        victim = k.schedule(1.0, fired.append, "victim")
        k.run_until_idle()
        assert fired == ["canceller"]

    def test_cancel_is_idempotent_and_post_fire_safe(self):
        k = Kernel()
        fired = []
        ev = k.schedule(1.0, fired.append, "x")
        ev.cancel()
        ev.cancel()  # double-cancel must not corrupt the pending count
        assert k.pending == 0
        k.run_until_idle()
        assert fired == []

        ev2 = k.schedule(1.0, fired.append, "y")
        k.run_until_idle()
        ev2.cancel()  # cancelling after firing is a no-op
        assert fired == ["y"]
        assert k.pending == 0

    def test_pending_counter_is_live(self):
        k = Kernel()
        events = [k.schedule(float(i + 1), lambda: None) for i in range(50)]
        assert k.pending == 50
        for ev in events[:20]:
            ev.cancel()
        assert k.pending == 30
        k.run_until_idle()
        assert k.pending == 0

    def test_heap_stays_bounded_under_cancel_heavy_workload(self):
        # the retry-timer pattern: schedule a timeout, cancel it when
        # the response lands, repeat 10k times.  Without compaction the
        # heap grows to 10k dead entries; with it the physical size
        # stays proportional to the live set.
        k = Kernel()
        peak = 0
        live = []
        for i in range(10_000):
            ev = k.schedule(1000.0 + i * 0.001, lambda: None)
            live.append(ev)
            if len(live) > 8:
                live.pop(0).cancel()
            peak = max(peak, k.heap_size)
        assert k.pending == len(live) == 8
        # compaction keeps the heap within a small constant factor of
        # the live timer count (the 64-cancelled compaction floor plus
        # the live set, with slack for the between-compaction window)
        assert peak < 300
        assert k.heap_size < 300

    def test_cancelled_timer_releases_its_callback(self):
        # a cancelled timer stays in the heap until the next compaction;
        # what it was going to call must be freed at the cancel, by
        # reference count, not held until then (a finished exchange's
        # timeout timer used to keep the whole exchange alive, and the
        # saw-tooth of up to 64 parked timers drove the cycle collector)
        class Exchange:
            def on_timeout(self, attempt):
                pass

        k = Kernel()
        exchange = Exchange()
        gone = weakref.ref(exchange)
        ev = k.schedule(30.0, exchange.on_timeout, [1])
        del exchange
        assert gone() is not None  # the armed timer is what holds it
        gc.disable()
        try:
            ev.cancel()
            assert k.heap_size == 1  # still parked
            assert gone() is None
        finally:
            gc.enable()
        k.run_until_idle()

    def test_cancelled_heap_head_does_not_advance_clock(self):
        k = Kernel()
        fired = []
        early = k.schedule(1.0, fired.append, "early")
        k.schedule(2.0, lambda: fired.append(k.now))
        early.cancel()
        k.run_until_idle()
        assert fired == [2.0]


class TestDeterminism:
    def _run(self):
        k = Kernel()
        order = []

        def tick(name, n):
            order.append((name, k.now))
            if n > 0:
                k.schedule(0.5, tick, name, n - 1)
                k.call_soon(order.append, (name + "-soon", k.now))

        k.schedule(1.0, tick, "a", 3)
        k.schedule(1.0, tick, "b", 3)
        k.run_until_idle()
        return order

    def test_identical_runs_produce_identical_order(self):
        assert self._run() == self._run()


class TestRunSemantics:
    def test_run_until_with_only_ready_events(self):
        # run(until=...) must dispatch due-now run-queue work even when
        # the heap is empty
        k = Kernel()
        fired = []
        k.call_soon(fired.append, "x")
        k.run(until=10.0)
        assert fired == ["x"]
        assert k.now == 10.0

    def test_pump_until_sees_ready_queue(self):
        k = Kernel()
        box = []
        k.call_soon(box.append, "done")
        t = k.pump_until(lambda: bool(box))
        assert t == 0.0
