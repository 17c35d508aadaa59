"""The discrete-event kernel: a run-queue scheduler over a timer heap.

Everything time-like in the reproduction — link latency, request
timeouts, advert expiry, churn — is an event scheduled here.  The
kernel is single-threaded and deterministic: events at equal timestamps
fire in scheduling order (a monotonically increasing sequence number
breaks ties), so a seeded run always produces the same trace.

Internally the kernel is split into two structures (the E13
concurrency-core refactor):

* a **timer heap** holding future events as ``(time, seq, event)``
  tuples, so ``heapq`` orders them in C: ``seq`` is unique, so two
  entries never tie and no event is ever compared;
* a **run-queue** — a plain FIFO deque of events that are due *now*.

Zero-delay work (``call_soon``, ``schedule(0.0, ...)``) goes straight
onto the run-queue and never touches the heap, and when virtual time
advances, *every* event due at the new timestamp is popped off the heap
in one batch — so 10k peers' events landing at one instant pay one heap
drain, not 10k interleaved push/pop cycles.  Equal-time heap pops come
out in sequence order and run-queue appends happen in sequence order,
so the observable firing order is identical to the pre-refactor kernel.

Cancellation is real, not cosmetic: a cancelled timer decrements the
live ``pending`` counter immediately, and once cancelled timers
outnumber live ones the heap is compacted in place (the asyncio
strategy) — a workload that schedules and cancels retry timers by the
thousands keeps the heap at the size of its *live* timer set.  A
cancelled timer drops its callback at once, so what is parked in the
heap until then holds nothing of the exchange that armed it.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Optional

#: compact the timer heap when more than this many cancelled timers are
#: parked in it *and* they outnumber the live ones (see ``_note_cancel``)
_COMPACT_MIN_CANCELLED = 64


class SimTimeoutError(Exception):
    """Raised by :meth:`Kernel.pump_until` when the predicate does not
    become true within the allotted virtual time."""


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "fn", "args", "cancelled", "_kernel", "_fired", "_in_heap")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple, kernel: "Kernel"):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._kernel = kernel
        self._fired = False
        self._in_heap = False

    def cancel(self) -> None:
        if self.cancelled or self._fired:
            return
        self.cancelled = True
        # a cancelled timer stays parked in the heap until compaction;
        # it must not keep its callback (and the call behind it) alive
        self.fn, self.args = None, ()
        self._kernel._note_cancel(self)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time:.6f} {state}>"


class Cycle:
    """Handle for a periodic callback (:meth:`Kernel.every`);
    :meth:`cancel` stops the cycle, also from inside the callback."""

    __slots__ = ("fn", "_interval", "_kernel", "_event")

    def __init__(self, kernel: "Kernel", interval: float, fn: Callable[[], Any]):
        self.fn, self._interval, self._kernel = fn, interval, kernel
        self._event = kernel.schedule(interval, self._tick)

    def _tick(self) -> None:
        self.fn()
        if self.fn is not None:  # re-armed after: what fn scheduled fires first
            self._event = self._kernel.schedule(self._interval, self._tick)

    def cancel(self) -> None:
        self.fn = None
        self._event.cancel()


class Kernel:
    """A minimal, deterministic discrete-event simulation kernel."""

    def __init__(self) -> None:
        #: future events, a heap of (time, seq, event) entries
        self._timers: list[tuple[float, int, ScheduledEvent]] = []
        self._ready: deque[ScheduledEvent] = deque()  # due-now FIFO run-queue
        self._seq = itertools.count()
        self._now = 0.0
        self._events_fired = 0
        self._pending = 0  # live (scheduled, not fired, not cancelled)
        self._heap_cancelled = 0  # cancelled timers still parked in the heap

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events awaiting dispatch (O(1))."""
        return self._pending

    @property
    def heap_size(self) -> int:
        """Entries physically in the timer heap, cancelled included —
        the quantity the compaction policy keeps proportional to the
        *live* timer count."""
        return len(self._timers)

    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``fn(*args)`` to run *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        time = self._now + delay
        event = ScheduledEvent(time, fn, args, self)
        self._pending += 1
        if delay == 0:
            self._ready.append(event)
        else:
            event._in_heap = True
            heapq.heappush(self._timers, (time, next(self._seq), event))
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``fn(*args)`` at absolute virtual *time*."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past: {time} < {self._now}")
        event = ScheduledEvent(time, fn, args, self)
        self._pending += 1
        if time == self._now:
            self._ready.append(event)
        else:
            event._in_heap = True
            heapq.heappush(self._timers, (time, next(self._seq), event))
        return event

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule at the current instant (after already-queued same-time events)."""
        return self.schedule(0.0, fn, *args)

    # ------------------------------------------------------------------
    def _note_cancel(self, event: ScheduledEvent) -> None:
        self._pending -= 1
        # run-queue events are purged lazily at pop (the deque drains
        # every tick); heap timers are counted and compacted so a
        # cancel-heavy workload cannot grow the heap without bound
        if event._in_heap:
            self._heap_cancelled += 1
            if (
                self._heap_cancelled > _COMPACT_MIN_CANCELLED
                and self._heap_cancelled * 2 > len(self._timers)
            ):
                self._compact()

    def _compact(self) -> None:
        self._timers = [entry for entry in self._timers if not entry[2].cancelled]
        heapq.heapify(self._timers)
        self._heap_cancelled = 0

    # ------------------------------------------------------------------
    def _pop(self) -> Optional[ScheduledEvent]:
        """The next live event: off the run-queue, or else — the clock
        advanced to the next timer deadline — off the whole batch of
        timers due at that instant, moved onto the run-queue.  None when
        no live event remains."""
        ready = self._ready
        timers = self._timers
        while True:
            while ready:
                event = ready.popleft()
                if not event.cancelled:
                    return event
            while timers and timers[0][2].cancelled:
                heapq.heappop(timers)
                self._heap_cancelled -= 1
            if not timers:
                return None
            batch_time = timers[0][0]
            self._now = batch_time
            while timers and timers[0][0] == batch_time:
                event = heapq.heappop(timers)[2]
                event._in_heap = False
                if event.cancelled:
                    self._heap_cancelled -= 1
                else:
                    ready.append(event)

    def step(self) -> bool:
        """Fire the single next event.  Returns False when queue is empty."""
        event = self._pop()
        if event is None:
            return False
        event._fired = True
        self._pending -= 1
        self._events_fired += 1
        event.fn(*event.args)
        return True

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> int:
        """Run events until the queue drains or virtual time passes *until*.

        Returns the number of events fired by this call.  ``max_events``
        guards against runaway feedback loops in experiments.
        """
        fired = 0
        while fired < max_events:
            if until is not None:
                nxt = self._peek_time()
                if nxt is None or nxt > until:
                    self._now = max(self._now, until)
                    break
            if not self.step():
                break
            fired += 1
        return fired

    def every(self, interval: float, fn: Callable[[], Any]) -> Cycle:
        """Run ``fn()`` every *interval* seconds, the first time one
        interval from now, until the returned handle is cancelled."""
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        return Cycle(self, interval, fn)

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain."""
        return self.run(until=None, max_events=max_events)

    def pump_until(
        self,
        predicate: Callable[[], bool],
        timeout: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> float:
        """Fire events until *predicate()* is true.

        This is how "synchronous" operations are built on the
        event-driven core: an HTTP invocation pumps the kernel until its
        response slot fills.  Raises :class:`SimTimeoutError` if the
        queue drains or *timeout* virtual seconds elapse first.
        Returns the virtual time at which the predicate became true.
        """
        deadline = None if timeout is None else self._now + timeout
        fired = 0
        while not predicate():
            if fired >= max_events:
                raise SimTimeoutError(f"predicate not satisfied after {max_events} events")
            nxt = self._peek_time()
            if nxt is None:
                raise SimTimeoutError("event queue drained before predicate was satisfied")
            if deadline is not None and nxt > deadline:
                self._now = deadline
                raise SimTimeoutError(f"virtual timeout after {timeout}s")
            self.step()
            fired += 1
        return self._now

    def wait(
        self,
        start: Callable[[Callable[[Any, Optional[BaseException]], None]], Any],
        drained: Optional[Callable[[], BaseException]] = None,
    ) -> Any:
        """Run ``start(done)`` and fire events until ``done(result,
        error)`` is called; return *result* or raise *error* — how a
        blocking call is built on the event-driven core.  A queue that
        drains first raises :class:`SimTimeoutError`, or what *drained*
        builds, chained to it; the operation's own error is raised past
        that mapping, never taken for a drain."""
        outcome: list = []
        start(lambda result, error: outcome.append((result, error)))
        try:
            self.pump_until(outcome.__len__)
        except SimTimeoutError as exc:
            if drained is None:
                raise
            raise drained() from exc
        result, error = outcome[0]
        if error is not None:
            raise error
        return result

    def _peek_time(self) -> Optional[float]:
        ready = self._ready
        while ready and ready[0].cancelled:
            ready.popleft()
        if ready:
            return self._now
        timers = self._timers
        while timers and timers[0][2].cancelled:
            heapq.heappop(timers)
            self._heap_cancelled -= 1
        return timers[0][0] if timers else None

    def advance(self, delta: float) -> None:
        """Advance the clock with no events (only valid past queue head)."""
        target = self._now + delta
        nxt = self._peek_time()
        if nxt is not None and nxt < target:
            raise ValueError("cannot advance past pending events; use run(until=...)")
        self._now = target

    def __repr__(self) -> str:
        return f"<Kernel t={self._now:.6f} pending={self.pending}>"
