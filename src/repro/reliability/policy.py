"""Reliability policy objects: retry schedules, deadlines, bundles.

The paper's event model assumes networks where "components ... are
notified when and if responses are returned" (§III) — *if* is the
operative word.  A :class:`RetryPolicy` turns one attempt into a
bounded, backed-off schedule of attempts; a :class:`Deadline` caps the
total virtual time a logical invocation may consume across all of
them; a :class:`ReliabilityPolicy` bundles both with the
acknowledgement and circuit-breaker switches the bindings understand.

Everything is deterministic: jitter comes from a seeded generator, so
a seeded simulation run always produces the same retransmission
schedule.  The generator is built on the first jittered delay, so a
policy that never backs off (``naive()``, ``max_attempts=1``) builds
none, and a jittered one checks its seed before any timer runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Type

from repro.simnet.rng import check_seed, default_rng


class ReliabilityError(Exception):
    """Base class for reliability-layer failures."""


class DeadlineExceededError(ReliabilityError):
    """The invocation's total time budget lapsed before completion."""


class RetryPolicy:
    """Exponential backoff with seeded jitter.

    Attempt *k* (0-based) that fails is followed, when retryable, by a
    wait of ``min(base_delay * multiplier**k, max_delay)`` stretched by
    a seeded jitter factor in ``[1 - jitter, 1 + jitter]``.  With
    ``base_delay=0`` the policy degenerates to immediate retransmission.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.05,
        multiplier: float = 2.0,
        max_delay: float = 2.0,
        jitter: float = 0.1,
        seed: int = 0,
        retry_on: Optional[Tuple[Type[BaseException], ...]] = None,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.seed = check_seed(seed) if jitter else seed
        #: exception types that justify another attempt; None means the
        #: caller's default classification applies.
        self.retry_on = retry_on
        self._rng = None

    def delay(self, attempt: int) -> float:
        """Backoff delay after failed attempt *attempt* (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        raw = min(self.base_delay * (self.multiplier ** attempt), self.max_delay)
        if raw <= 0 or self.jitter == 0:
            return max(raw, 0.0)
        if self._rng is None:
            self._rng = default_rng(self.seed)
        factor = 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return raw * factor

    def schedule(self) -> list[float]:
        """The full backoff schedule (one delay per possible retry)."""
        return [self.delay(k) for k in range(self.max_attempts - 1)]

    def retryable(self, error: BaseException) -> bool:
        """Whether *error* justifies another attempt under this policy.

        Without an explicit ``retry_on`` filter, transport-level trouble
        is retried but application-level SOAP faults are not — the
        provider *did* answer, it just said no, and a retransmitted
        request would only be deduplicated into the same fault.  The
        one fault exception is ``Server.Busy``: the provider explicitly
        did *not* execute, so retrying (after its retry-after hint) is
        always safe.
        """
        from repro.soap.faults import ServerBusyFault, SoapFault
        from repro.transport.base import TransportBusyError

        if isinstance(error, (ServerBusyFault, TransportBusyError)):
            return True
        if self.retry_on is not None:
            return isinstance(error, self.retry_on)
        return not isinstance(error, SoapFault)

    def reset(self) -> None:
        """Re-seed the jitter stream (restores determinism for reruns)."""
        self._rng = None

    def __repr__(self) -> str:
        return (
            f"<RetryPolicy attempts={self.max_attempts} "
            f"base={self.base_delay}s x{self.multiplier} cap={self.max_delay}s>"
        )


class RoundRetry(RetryPolicy):
    """Rounds over a fixed set of targets, for a caller that moves each
    attempt to the next one (failover across endpoints).

    Each of *rounds* rounds is *per_round* back-to-back attempts; a
    round that fails whole waits *backoff* seconds before the next.
    Every error is retried: the caller ends the call itself on an
    answer no other target would change.
    """

    def __init__(self, per_round: int, rounds: int, backoff: float):
        super().__init__(max_attempts=per_round * rounds, base_delay=0.0, jitter=0.0)
        self.per_round = per_round
        self.backoff = backoff

    def delay(self, attempt: int) -> float:
        return self.backoff if (attempt + 1) % self.per_round == 0 else 0.0

    def retryable(self, error: BaseException) -> bool:
        return True

    def rounds_walked(self, attempts: int) -> int:
        """The rounds *attempts* attempts have started."""
        return -(-attempts // self.per_round)


class Deadline:
    """A total-time budget across all attempts of one invocation.

    Started against the simulation clock at the first attempt; the
    executor refuses to start further attempts once the budget is
    spent, and trims per-attempt timeouts to the remaining budget.
    """

    def __init__(self, budget: float):
        if budget <= 0:
            raise ValueError("deadline budget must be positive")
        self.budget = budget
        self._started_at: Optional[float] = None

    def start(self, now: float) -> "Deadline":
        if self._started_at is None:
            self._started_at = now
        return self

    @property
    def started(self) -> bool:
        return self._started_at is not None

    def remaining(self, now: float) -> float:
        if self._started_at is None:
            return self.budget
        return max(0.0, self._started_at + self.budget - now)

    def expired(self, now: float) -> bool:
        return self.remaining(now) <= 0.0

    def __repr__(self) -> str:
        state = f"started@{self._started_at}" if self.started else "unstarted"
        return f"<Deadline {self.budget}s {state}>"


@dataclass
class BreakerConfig:
    """Tunables for one :class:`~repro.reliability.breaker.CircuitBreaker`."""

    window: int = 16            #: sliding window of recent call outcomes
    failure_threshold: float = 0.5  #: open when failure rate >= this ...
    min_calls: int = 4          #: ... and at least this many calls observed
    open_timeout: float = 5.0   #: seconds open before probing (half-open)


@dataclass
class ReliabilityPolicy:
    """The bundle an invocation node consults for one logical call.

    ``retry`` drives the attempt schedule; ``deadline`` (seconds)
    bounds total time across attempts; ``ack`` requests explicit
    acknowledgement frames for one-way pipe sends; ``breaker``
    (a :class:`BreakerConfig`) sheds load from endpoints whose recent
    failure rate crossed the threshold.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    deadline: Optional[float] = None
    ack: bool = False
    breaker: Optional[BreakerConfig] = None

    def new_deadline(self) -> Optional[Deadline]:
        return Deadline(self.deadline) if self.deadline is not None else None

    # ------------------------------------------------------------------
    # canonical bundles
    # ------------------------------------------------------------------
    @classmethod
    def naive(cls) -> "ReliabilityPolicy":
        """One attempt, no ack, no breaker — the pre-reliability client."""
        return cls(retry=RetryPolicy(max_attempts=1))

    @classmethod
    def standard_default(cls) -> "ReliabilityPolicy":
        """Standard-binding default: retry connection-level errors only.

        HTTP holds a connection open, so a timed-out exchange may have
        executed server-side; only errors raised before the request left
        (down/unroutable source, refused connections) are retried
        unconditionally.
        """
        from repro.simnet.network import NetworkError

        return cls(
            retry=RetryPolicy(
                max_attempts=3, base_delay=0.025, multiplier=2.0,
                max_delay=0.5, jitter=0.1, retry_on=(NetworkError,),
            )
        )

    @classmethod
    def p2ps_default(cls) -> "ReliabilityPolicy":
        """P2PS-binding default: retransmission over fire-and-forget pipes.

        Pipes give no delivery signal, so lapsed attempt timers trigger
        retransmission of the same MessageID; the provider-side dedup
        window makes that safe for non-idempotent operations.  Explicit
        acks remain opt-in (``assured()``) because bare one-way sends
        must not grow a reply channel.
        """
        return cls(retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0))

    @classmethod
    def assured(cls, attempts: int = 6, seed: int = 0) -> "ReliabilityPolicy":
        """Retry + ack + breaker: the full WS-ReliableMessaging-lite bundle."""
        return cls(
            retry=RetryPolicy(
                max_attempts=attempts, base_delay=0.05, multiplier=2.0,
                max_delay=1.0, jitter=0.1, seed=seed,
            ),
            ack=True,
            breaker=BreakerConfig(),
        )
