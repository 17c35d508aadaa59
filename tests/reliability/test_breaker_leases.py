"""Half-open probe leases: crashed callers must not wedge the breaker.

`allow()` in half-open hands out a probe *lease* that is normally
released by the matching ``record_success``/``record_failure``.  A
caller that dies mid-probe never reports, and without a timeout that
leaked lease would pin the breaker in half-open (all further calls
rejected) forever.  Leases therefore self-expire after
``HALF_OPEN_LEASE_TIMEOUT``.
"""

import pytest

from repro.reliability import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
)
import repro.reliability.breaker as breaker_module
from repro.simnet import Kernel


@pytest.fixture
def make_breaker(monkeypatch):
    """A breaker that opens after two failures, with the module's
    half-open probe count and lease timeout set for the test."""

    def make(half_open_max=1, half_open_lease_timeout=10.0):
        monkeypatch.setattr(breaker_module, "HALF_OPEN_MAX", half_open_max)
        monkeypatch.setattr(breaker_module, "HALF_OPEN_LEASE_TIMEOUT", half_open_lease_timeout)
        kernel = Kernel()
        config = BreakerConfig(window=8, failure_threshold=0.5, min_calls=2, open_timeout=5.0)
        return kernel, CircuitBreaker(config, clock=lambda: kernel.now)

    return make


def advance(kernel, dt):
    kernel.schedule(dt, lambda: None)
    kernel.run()


def trip_to_half_open(kernel, breaker):
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == OPEN
    advance(kernel, breaker.config.open_timeout + 0.001)
    assert breaker.allow()  # transitions to half-open, takes the lease
    assert breaker.state == HALF_OPEN
    return breaker


class TestLeaseLifecycle:
    def test_lease_holds_probe_slot(self, make_breaker):
        kernel, breaker = make_breaker(half_open_max=1)
        trip_to_half_open(kernel, breaker)
        assert breaker.half_open_inflight == 1
        assert not breaker.allow()  # slot taken, within lease timeout

    def test_outcome_report_releases_lease(self, make_breaker):
        kernel, breaker = make_breaker(half_open_max=1)
        trip_to_half_open(kernel, breaker)
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.half_open_inflight == 0
        assert breaker.leases_expired == 0

    def test_silent_caller_lease_expires(self, make_breaker):
        """The regression: allow() then *never* report.  After the lease
        timeout a fresh probe must be admitted — the breaker is not
        wedged by the crashed caller."""
        kernel, breaker = make_breaker(
            half_open_max=1, half_open_lease_timeout=10.0
        )
        trip_to_half_open(kernel, breaker)
        # caller crashes here: no record_success / record_failure

        advance(kernel, 9.0)
        assert not breaker.allow()  # lease still live at t+9

        advance(kernel, 1.5)  # past the 10 s lease timeout
        assert breaker.half_open_inflight == 0
        assert breaker.allow()  # new probe admitted
        assert breaker.leases_expired == 1
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_multiple_leaked_leases_all_expire(self, make_breaker):
        kernel, breaker = make_breaker(
            half_open_max=3, half_open_lease_timeout=4.0
        )
        trip_to_half_open(kernel, breaker)
        assert breaker.allow()
        assert breaker.allow()
        assert breaker.half_open_inflight == 3
        assert not breaker.allow()  # all three slots leased

        advance(kernel, 4.5)
        assert breaker.half_open_inflight == 0
        assert breaker.leases_expired == 3
        assert breaker.allow()

    def test_expiry_is_per_lease_not_batch(self, make_breaker):
        kernel, breaker = make_breaker(
            half_open_max=2, half_open_lease_timeout=5.0
        )
        trip_to_half_open(kernel, breaker)  # lease #1 at t=5.001
        advance(kernel, 3.0)
        assert breaker.allow()  # lease #2 three seconds later
        advance(kernel, 2.5)  # t: lease #1 expired, #2 still live
        assert breaker.half_open_inflight == 1
        assert breaker.leases_expired == 1

    def test_reopen_clears_outstanding_leases(self, make_breaker):
        kernel, breaker = make_breaker(half_open_max=2)
        trip_to_half_open(kernel, breaker)
        assert breaker.allow()
        breaker.record_failure()  # probe failed → back to OPEN
        assert breaker.state == OPEN
        advance(kernel, breaker.config.open_timeout + 0.001)
        assert breaker.allow()  # fresh half-open round, fresh slots
        assert breaker.state == HALF_OPEN
        assert breaker.half_open_inflight == 1
