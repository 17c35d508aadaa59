"""Per-endpoint circuit breakers: shed load from dead peers.

On an unreliable substrate a dead provider soaks up full retry
schedules from every caller — exactly the load amplification the
paper's P2P robustness argument (§II/§VI) warns about.  A breaker
watches the recent outcome window per endpoint and, once the failure
rate crosses the threshold, fails calls *fast* (no frames sent) until
an ``open_timeout`` has passed; then a limited number of half-open
probes decide whether to close again.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.caching import SoftTable
from repro.reliability.policy import BreakerConfig, ReliabilityError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: concurrent probes allowed while half-open
HALF_OPEN_MAX = 1
#: a half-open probe slot taken by :meth:`CircuitBreaker.allow` is
#: reclaimed after this many seconds if the caller never reports an
#: outcome (crashed caller), so the breaker cannot wedge half-open
HALF_OPEN_LEASE_TIMEOUT = 30.0


class CircuitOpenError(ReliabilityError):
    """Fail-fast: the endpoint's breaker is open, no attempt was made."""


class CircuitBreaker:
    """Closed → open → half-open → {closed, open} state machine.

    Driven entirely by the caller-supplied *clock* (the simnet kernel's
    virtual time), so transitions are deterministic and testable.
    """

    def __init__(
        self,
        config: Optional[BreakerConfig] = None,
        clock: Optional[Callable[[], float]] = None,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ):
        self.config = config or BreakerConfig()
        self._clock = clock or (lambda: 0.0)
        self.on_transition = on_transition
        self.state = CLOSED
        self._outcomes: deque[bool] = deque(maxlen=self.config.window)
        self._opened_at = 0.0
        #: expiry times of outstanding half-open probe leases.  A lease
        #: is taken by :meth:`allow` and released by the next outcome
        #: report; a caller that never reports (crash, lost completion)
        #: leaks its lease, so leases self-expire after
        #: ``HALF_OPEN_LEASE_TIMEOUT`` instead of wedging the
        #: breaker in half-open forever.
        self._half_open_leases: list[float] = []
        self.leases_expired = 0  #: probe slots reclaimed from silent callers
        self.rejected = 0  #: calls shed while open
        self.transitions: list[tuple[float, str]] = []

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self._clock()

    def _move(self, state: str) -> None:
        if state == self.state:
            return
        old, self.state = self.state, state
        self.transitions.append((self._now(), state))
        if state == OPEN:
            self._opened_at = self._now()
        if state == HALF_OPEN:
            self._half_open_leases.clear()
        if state == CLOSED:
            self._outcomes.clear()
        if self.on_transition is not None:
            self.on_transition(old, state)

    @property
    def failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return 1.0 - sum(self._outcomes) / len(self._outcomes)

    def _prune_leases(self) -> None:
        now = self._now()
        alive = [expiry for expiry in self._half_open_leases if expiry > now]
        self.leases_expired += len(self._half_open_leases) - len(alive)
        self._half_open_leases = alive

    def _release_lease(self) -> None:
        if self._half_open_leases:
            self._half_open_leases.pop(0)

    @property
    def half_open_inflight(self) -> int:
        """Unexpired probe leases currently outstanding."""
        self._prune_leases()
        return len(self._half_open_leases)

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May a call proceed right now?  (Counts shed calls.)"""
        if self.state == OPEN:
            if self._now() - self._opened_at >= self.config.open_timeout:
                self._move(HALF_OPEN)
            else:
                self.rejected += 1
                return False
        if self.state == HALF_OPEN:
            self._prune_leases()
            if len(self._half_open_leases) >= HALF_OPEN_MAX:
                self.rejected += 1
                return False
            self._half_open_leases.append(self._now() + HALF_OPEN_LEASE_TIMEOUT)
        return True

    def record_success(self) -> None:
        if self.state == HALF_OPEN:
            self._release_lease()
            self._move(CLOSED)
        self._outcomes.append(True)

    def record_failure(self) -> None:
        if self.state == HALF_OPEN:
            self._release_lease()
            self._move(OPEN)
            return
        self._outcomes.append(False)
        if (
            self.state == CLOSED
            and len(self._outcomes) >= self.config.min_calls
            and self.failure_rate >= self.config.failure_threshold
        ):
            self._move(OPEN)

    def __repr__(self) -> str:
        return (
            f"<CircuitBreaker {self.state} rate={self.failure_rate:.2f} "
            f"rejected={self.rejected}>"
        )


#: breakers a registry keeps, least recently used forgotten first
BREAKERS_CAP = 4096


class CircuitBreakerRegistry:
    """endpoint key → breaker, shared by all calls through one invoker."""

    def __init__(
        self,
        clock: Callable[[], float],
        on_transition: Optional[Callable[[str, str, str], None]] = None,
    ):
        self._clock = clock
        self._on_transition = on_transition
        self._breakers = SoftTable(BREAKERS_CAP)

    def for_endpoint(self, key: str, config: Optional[BreakerConfig] = None) -> CircuitBreaker:
        breaker = self._breakers.get(key)
        if breaker is None:
            callback = None
            if self._on_transition is not None:
                on_transition = self._on_transition

                def callback(old: str, new: str, _key: str = key) -> None:
                    on_transition(_key, old, new)

            breaker = CircuitBreaker(config, clock=self._clock, on_transition=callback)
            self._breakers.put(key, breaker)
        return breaker

    def get(self, key: str) -> Optional[CircuitBreaker]:
        return self._breakers.peek(key)

    def __len__(self) -> int:
        return len(self._breakers)
