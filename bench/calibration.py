"""Reading the speed of the machine while the benchmark runs.

This sandbox shares its two cores: the same pure-Python work takes
anything from 0.8x to 1.2x its usual time, in phases that last seconds
to tens of seconds — far more than the 10 % a regression bound allows,
and too slow to average out in a run of a few seconds.  So every timed
window is bracketed by a small fixed kernel, and wall-clock times are
scaled by ``NOMINAL_S / (kernel time then)``: they read as they would on
a machine that runs the kernel in exactly ``NOMINAL_S``.  Over 3 s
segments of ``echo_http`` and ``pipelined_http`` that takes the scatter
(standard deviation / mean) from 6-7 % to 2.4 %.

The kernel is interpreter- and allocator-bound like the program (string
scanning, slicing, small dicts and tuples) but shares no code with it,
so a change under ``src/`` cannot move it.  It must never change: every
calibrated number ever recorded is in its units.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: about what the kernel takes on this sandbox (Python 3.11) between
#: two windows of a workload; the value only fixes the unit
NOMINAL_S = 0.0026

_TEXT = (
    "<a:item xmlns:a='urn:x' id='%d'><b>some text &amp; more</b><c k='v'>%d</c></a:item>" * 480
) % tuple(range(960))


def kernel() -> int:
    """Scan ``_TEXT`` into (tag, attributes, preceding text) records."""
    out = []
    pos = 0
    find = _TEXT.find
    while True:
        lt = find("<", pos)
        if lt < 0:
            break
        gt = find(">", lt)
        parts = _TEXT[lt + 1 : gt].split()
        attrs = {}
        for part in parts[1:]:
            key, _, value = part.partition("=")
            attrs[key] = value.strip("'")
        out.append((parts[0] if parts else "", attrs, _TEXT[pos:lt]))
        pos = gt + 1
    return len(out)


def kernel_seconds(runs: int = 2) -> float:
    """The median time of *runs* kernel runs, about 7 ms in all.  The
    machine's speed flutters from one millisecond to the next, so a
    reading has to last a few: 1 ms readings left three times the
    scatter in the scaled results."""
    times = []
    for _ in range(runs):
        started = perf_counter()
        kernel()
        times.append(perf_counter() - started)
    return statistics.median(times)


def speed(kernel_s: float) -> float:
    """How fast the machine is running: 1.0 at nominal, 0.8 when the
    kernel takes 1.25x as long.  Multiply a measured time by it."""
    return NOMINAL_S / kernel_s
