"""The attempt driver: one logical call over many physical attempts.

:class:`ReliableCall` owns the control flow the policies describe —
consult the endpoint's breaker, run an attempt, classify the failure,
wait out the backoff on the simulation kernel, try again, and give up
when attempts or the deadline budget run out.  It is the only retry
loop in the program and is transport-neutral: the caller supplies an
``attempt`` callable that performs one physical try and reports back
through a completion callback, which is exactly the shape of both
``Transport.send`` and a pipe send-plus-timer — or, for failover, a
whole call to the next endpoint in health order, under a
:class:`~repro.reliability.policy.RoundRetry` schedule.

The breaker sees one logical call: one ``allow()`` before the first
attempt and one recorded outcome at the end.  Retransmissions of a call
that eventually succeeds are the policy doing its job, not evidence
that the endpoint is dead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.reliability.breaker import CircuitBreaker, CircuitOpenError
from repro.reliability.policy import (
    Deadline,
    DeadlineExceededError,
    ReliabilityPolicy,
)

#: attempt(on_done, attempt_no, remaining_budget): perform one physical
#: try; call on_done(result, error) when it concludes.
AttemptFn = Callable[[Callable[[Any, Optional[Exception]], None], int, Optional[float]], None]
#: final completion callback: (result, error).
DoneFn = Callable[[Any, Optional[Exception]], None]


class ReliableCall:
    """Drives one logical invocation to completion under a policy."""

    def __init__(
        self,
        kernel,
        policy: ReliabilityPolicy,
        attempt: AttemptFn,
        callback: DoneFn,
        breaker: Optional[CircuitBreaker] = None,
        on_retry: Optional[Callable[[int, float, Exception], None]] = None,
        describe: str = "call",
    ):
        self._kernel = kernel
        self.policy = policy
        self._attempt = attempt
        self._callback = callback
        self._breaker = breaker
        self._on_retry = on_retry
        self._describe = describe
        self._deadline: Optional[Deadline] = policy.new_deadline()
        self.attempts_made = 0
        self._finished = False
        self._retry_event = None  # pending backoff timer, if any

    # ------------------------------------------------------------------
    def start(self) -> "ReliableCall":
        breaker = self._breaker
        if breaker is not None and not breaker.allow():
            self._breaker = None  # shed: no lease was taken, nothing to record
            self.finish(
                None,
                CircuitOpenError(
                    f"circuit open for {self._describe}: shedding call "
                    f"(recent failure rate {breaker.failure_rate:.0%})"
                ),
            )
            return self
        if self._deadline is not None:
            self._deadline.start(self._kernel.now)
        self._run_attempt()
        return self

    def finish(self, result: Any, error: Optional[Exception]) -> None:
        """Conclude the call now, whatever the schedule still allows."""
        if self._finished:
            return
        self._finished = True
        # a concluded call must not leave its backoff timer armed: the
        # cancel releases the kernel's heap slot immediately (E13), so
        # retry-heavy workloads do not accumulate dead timers
        if self._retry_event is not None:
            self._retry_event.cancel()
            self._retry_event = None
        if self._breaker is not None:
            if error is None:
                self._breaker.record_success()
            else:
                self._breaker.record_failure()
        # the caller's closures usually hold this call: let go of them so
        # a concluded exchange is freed by reference count, not left as a
        # cycle for a later collector pass
        callback = self._callback
        self._callback = self._attempt = self._on_retry = None
        callback(result, error)

    def reply(self, result: Any, error: Optional[Exception]) -> None:
        """An answer to the call itself, whichever send provoked it.

        A late reply that lands during a backoff still completes the
        call (and cancels the timer); an error answer is classified by
        the policy like any failed attempt.
        """
        if self._finished:
            return
        if error is None:
            self.finish(result, None)
            return
        retry = self.policy.retry
        if self.attempts_made >= retry.max_attempts or not retry.retryable(error):
            self.finish(None, error)
            return
        if self._retry_event is not None:
            return  # already backing off towards the next attempt
        delay = retry.delay(self.attempts_made - 1)
        budget = self._remaining_budget()
        if budget is not None and delay >= budget:
            self.finish(
                None,
                DeadlineExceededError(
                    f"deadline of {self._deadline.budget}s leaves no room to "
                    f"retry {self._describe} after {self.attempts_made} "
                    f"attempt(s): {error}"
                ),
            )
            return
        if self._on_retry is not None:
            self._on_retry(self.attempts_made + 1, delay, error)
        self._retry_event = self._kernel.schedule(delay, self._run_attempt)

    def _remaining_budget(self) -> Optional[float]:
        if self._deadline is None:
            return None
        return self._deadline.remaining(self._kernel.now)

    # ------------------------------------------------------------------
    def _run_attempt(self) -> None:
        self._retry_event = None
        budget = self._remaining_budget()
        if budget is not None and budget <= 0:
            self.finish(
                None,
                DeadlineExceededError(
                    f"deadline of {self._deadline.budget}s exhausted before "
                    f"attempt {self.attempts_made + 1} of {self._describe}"
                ),
            )
            return
        attempt_no = self.attempts_made
        self.attempts_made += 1

        def on_done(result: Any, error: Optional[Exception]) -> None:
            # only the outstanding attempt reports; one that already
            # concluded (or was overtaken by the next) is stale
            if attempt_no == self.attempts_made - 1 and self._retry_event is None:
                self.reply(result, error)

        try:
            self._attempt(on_done, attempt_no, budget)
        except Exception as exc:  # noqa: BLE001 - attempt boundary
            on_done(None, exc)


@dataclass
class OnewayStatus:
    """Live status of one acknowledged one-way send.

    Returned immediately by ``invoke_oneway`` when acks are requested;
    fields fill in as the simulation advances.
    """

    message_id: str
    acked: bool = False
    attempts: int = 0
    acked_at: Optional[float] = None
    error: Optional[Exception] = None
    _listeners: list = field(default_factory=list, repr=False)

    @property
    def done(self) -> bool:
        return self.acked or self.error is not None

    def on_done(self, fn: Callable[["OnewayStatus"], None]) -> None:
        if self.done:
            fn(self)
        else:
            self._listeners.append(fn)

    def _conclude(self) -> None:
        listeners, self._listeners = self._listeners, []
        for fn in listeners:
            fn(self)
