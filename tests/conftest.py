"""Suite-wide hygiene fixtures.

Trace-context propagation (E17) is a process-global switch with an
ambient context stack — ``set_propagation(True)`` turns it on for
the whole process.  Every test therefore gets the switch and the
stack restored afterwards, so a test that enables propagation cannot
leak header emission into its neighbours.
"""

import pytest

from repro.observability import tracecontext


@pytest.fixture(autouse=True)
def _reset_trace_propagation():
    yield
    tracecontext.reset()
