"""Unit tests for the circuit breaker state machine under virtual time."""

from repro.reliability import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
    CircuitBreakerRegistry,
)
from repro.simnet import Kernel


def make_breaker(kernel=None, **overrides):
    kernel = kernel or Kernel()
    config = BreakerConfig(
        window=overrides.pop("window", 8),
        failure_threshold=overrides.pop("failure_threshold", 0.5),
        min_calls=overrides.pop("min_calls", 4),
        open_timeout=overrides.pop("open_timeout", 5.0),
    )
    return kernel, CircuitBreaker(config, clock=lambda: kernel.now)


class TestClosedToOpen:
    def test_stays_closed_below_min_calls(self):
        _, breaker = make_breaker(min_calls=4)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CLOSED

    def test_opens_at_failure_threshold(self):
        _, breaker = make_breaker(min_calls=4, failure_threshold=0.5)
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # 1/3 failures, below threshold
        breaker.record_failure()
        breaker.record_failure()  # 3/5 >= 0.5 and >= min_calls
        assert breaker.state == OPEN

    def test_window_slides(self):
        _, breaker = make_breaker(window=4, min_calls=4)
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.failure_rate == 1.0


class TestOpenBehaviour:
    def test_open_sheds_calls_and_counts(self):
        _, breaker = make_breaker(min_calls=2, failure_threshold=0.5)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.rejected == 2

    def test_half_open_after_timeout(self):
        kernel, breaker = make_breaker(min_calls=2, open_timeout=5.0)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        kernel.schedule(6.0, lambda: None)
        kernel.run_until_idle()
        assert breaker.allow()  # probe admitted
        assert breaker.state == HALF_OPEN

    def test_half_open_limits_concurrent_probes(self):
        kernel, breaker = make_breaker(min_calls=2, open_timeout=1.0)
        breaker.record_failure()
        breaker.record_failure()
        kernel.schedule(2.0, lambda: None)
        kernel.run_until_idle()
        assert breaker.allow()
        assert not breaker.allow()  # second probe shed


class TestHalfOpenResolution:
    def _open_then_half_open(self):
        kernel, breaker = make_breaker(min_calls=2, open_timeout=1.0)
        breaker.record_failure()
        breaker.record_failure()
        kernel.schedule(2.0, lambda: None)
        kernel.run_until_idle()
        assert breaker.allow()
        assert breaker.state == HALF_OPEN
        return kernel, breaker

    def test_probe_success_closes(self):
        _, breaker = self._open_then_half_open()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.failure_rate == 0.0  # window reset on close

    def test_probe_failure_reopens(self):
        _, breaker = self._open_then_half_open()
        breaker.record_failure()
        assert breaker.state == OPEN

    def test_transitions_recorded_with_times(self):
        kernel, breaker = self._open_then_half_open()
        breaker.record_success()
        states = [state for _, state in breaker.transitions]
        assert states == [OPEN, HALF_OPEN, CLOSED]
        times = [t for t, _ in breaker.transitions]
        assert times == sorted(times)


class TestRegistry:
    def test_one_breaker_per_endpoint(self):
        kernel = Kernel()
        registry = CircuitBreakerRegistry(clock=lambda: kernel.now)
        a1 = registry.for_endpoint("p2ps://prov/Svc")
        a2 = registry.for_endpoint("p2ps://prov/Svc")
        b = registry.for_endpoint("http://other:80/svc")
        assert a1 is a2 and a1 is not b
        assert len(registry) == 2
        assert registry.get("missing") is None

    def test_transition_callback_carries_endpoint_key(self):
        kernel = Kernel()
        seen = []
        registry = CircuitBreakerRegistry(
            clock=lambda: kernel.now,
            on_transition=lambda key, old, new: seen.append((key, old, new)),
        )
        breaker = registry.for_endpoint("p2ps://x/Y", BreakerConfig(min_calls=2))
        breaker.record_failure()
        breaker.record_failure()
        assert seen == [("p2ps://x/Y", CLOSED, OPEN)]

    def test_holds_its_cap(self):
        from repro.reliability.breaker import BREAKERS_CAP

        kernel = Kernel()
        registry = CircuitBreakerRegistry(clock=lambda: kernel.now)
        for i in range(10_000):
            registry.for_endpoint(f"http://n{i}:80/svc")
        assert len(registry) <= BREAKERS_CAP
        # the newest endpoints are the ones kept
        assert registry.get("http://n9999:80/svc") is not None
