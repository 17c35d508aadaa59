"""The kernel fires in ``(time, seq)`` order, whatever the mix.

A reference model keeps every live event in a plain list and fires the
smallest ``(time, seq)`` first; random mixes of ``schedule`` /
``schedule_at`` / ``call_soon`` / ``cancel``, driven by ``run(until=)``
and ``pump_until``, must fire exactly what the model fires, each at its
own time.  Right after every cancel the heap keeps to the compaction
rule of ``test_scheduler.py``: its cancelled entries number at most the
compaction floor, or at most its live ones.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import Kernel, SimTimeoutError
from repro.simnet.kernel import _COMPACT_MIN_CANCELLED

#: quarter steps keep every sum of delays exact in binary floating point
delays = st.integers(min_value=0, max_value=12).map(lambda q: q / 4)

ops = st.one_of(
    st.tuples(st.just("schedule"), delays),
    st.tuples(st.just("schedule_at"), delays),
    st.tuples(st.just("call_soon"), st.just(0.0)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("run"), delays),
    st.tuples(st.just("pump"), st.integers(min_value=1, max_value=4)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(ops, min_size=1, max_size=80), st.integers(min_value=0, max_value=150))
def test_fires_in_time_seq_order(mix, crowd):
    k = Kernel()
    live: list[tuple[float, int]] = []  # the model: live events' keys
    handles = []
    fired: list[tuple[float, int]] = []

    def fire(key):
        assert k.now == key[0]
        fired.append(key)

    def schedule(op, delay):
        # the model numbers events in scheduling order: equal times fire so
        key = (k.now + delay, len(handles))
        if op == "schedule":
            handle = k.schedule(delay, fire, key)
        elif op == "schedule_at":
            handle = k.schedule_at(key[0], fire, key)
        else:
            handle = k.call_soon(fire, key)
        live.append(key)
        handles.append((key, handle))

    def cancel(index):
        key, handle = handles[index % len(handles)]
        handle.cancel()
        if key in live:
            live.remove(key)
        in_heap = sum(1 for time, _ in live if time > k.now)
        dead = k.heap_size - in_heap
        assert dead <= _COMPACT_MIN_CANCELLED or dead <= in_heap

    def take(due):
        for key in due:
            live.remove(key)
        return due

    # a far-future crowd of timers, most of them cancelled, so that the
    # heap crosses the compaction floor
    for i in range(crowd):
        schedule("schedule", 1000.0 + i)
    for i in range(crowd):
        if i % 5:
            cancel(i)

    for op, arg in mix:
        start = len(fired)
        if op in ("schedule", "schedule_at", "call_soon"):
            schedule(op, arg)
        elif op == "cancel":
            if handles:
                cancel(arg)
        elif op == "run":
            until = k.now + arg
            expected = take(sorted(key for key in live if key[0] <= until))
            k.run(until=until)
            assert fired[start:] == expected
            assert k.now == until
        else:  # pump until *arg* more events have fired
            expected = take(sorted(live)[:arg])
            try:
                k.pump_until(lambda: len(fired) >= start + arg)
            except SimTimeoutError:
                assert len(expected) < arg  # the queue drained first
            assert fired[start:] == expected
        assert k.pending == len(live)

    expected = take(sorted(live))
    start = len(fired)
    k.run()
    assert fired[start:] == expected
    assert fired == sorted(fired)
    assert k.pending == 0
