"""Unit tests for the ReliableCall attempt driver on the virtual kernel."""

import pytest

from repro.reliability import (
    BreakerConfig,
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    OnewayStatus,
    ReliabilityPolicy,
    ReliableCall,
    RetryPolicy,
)
from repro.simnet import Kernel


def run_call(kernel, policy, attempt, breaker=None, on_retry=None):
    box = {}

    def callback(result, error):
        box["result"], box["error"] = result, error

    ReliableCall(kernel, policy, attempt, callback, breaker=breaker, on_retry=on_retry).start()
    kernel.run_until_idle()
    return box


class TestRetryFlow:
    def test_success_first_attempt(self):
        kernel = Kernel()
        policy = ReliabilityPolicy(retry=RetryPolicy(max_attempts=3, jitter=0.0))
        box = run_call(kernel, policy, lambda done, n, b: done("ok", None))
        assert box == {"result": "ok", "error": None}

    def test_retries_until_success(self):
        kernel = Kernel()
        calls = []

        def attempt(done, attempt_no, budget):
            calls.append(attempt_no)
            if attempt_no < 2:
                done(None, ConnectionError("flaky"))
            else:
                done("ok", None)

        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=5, base_delay=0.1, jitter=0.0)
        )
        box = run_call(kernel, policy, attempt)
        assert box["result"] == "ok"
        assert calls == [0, 1, 2]
        # two backoffs: 0.1 + 0.2
        assert kernel.now == pytest.approx(0.3)

    def test_attempts_exhausted_returns_last_error(self):
        kernel = Kernel()
        boom = ConnectionError("still down")
        policy = ReliabilityPolicy(retry=RetryPolicy(max_attempts=3, jitter=0.0))
        box = run_call(kernel, policy, lambda done, n, b: done(None, boom))
        assert box["error"] is boom

    def test_non_retryable_error_fails_immediately(self):
        kernel = Kernel()
        calls = []

        def attempt(done, attempt_no, budget):
            calls.append(attempt_no)
            done(None, ValueError("bad input"))

        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=5, retry_on=(ConnectionError,))
        )
        box = run_call(kernel, policy, attempt)
        assert isinstance(box["error"], ValueError)
        assert calls == [0]

    def test_raising_attempt_is_treated_as_failure(self):
        kernel = Kernel()

        def attempt(done, attempt_no, budget):
            raise ConnectionError("sync boom")

        policy = ReliabilityPolicy(retry=RetryPolicy(max_attempts=2, jitter=0.0))
        box = run_call(kernel, policy, attempt)
        assert isinstance(box["error"], ConnectionError)

    def test_on_retry_hook_fires_per_retransmit(self):
        kernel = Kernel()
        retries = []
        policy = ReliabilityPolicy(retry=RetryPolicy(max_attempts=3, jitter=0.0))
        run_call(
            kernel, policy,
            lambda done, n, b: done(None, ConnectionError("x")),
            on_retry=lambda n, delay, err: retries.append((n, delay)),
        )
        assert [n for n, _ in retries] == [2, 3]


class TestDeadline:
    def test_deadline_cuts_off_retry_schedule(self):
        kernel = Kernel()
        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=10, base_delay=1.0, multiplier=1.0, jitter=0.0),
            deadline=2.5,
        )
        calls = []

        def attempt(done, attempt_no, budget):
            calls.append(attempt_no)
            done(None, ConnectionError("down"))

        box = run_call(kernel, policy, attempt)
        assert isinstance(box["error"], DeadlineExceededError)
        assert len(calls) < 10
        assert kernel.now <= 2.5

    def test_budget_passed_to_attempts_shrinks(self):
        kernel = Kernel()
        budgets = []
        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=1.0, multiplier=1.0, jitter=0.0),
            deadline=10.0,
        )

        def attempt(done, attempt_no, budget):
            budgets.append(budget)
            done(None, ConnectionError("down"))

        run_call(kernel, policy, attempt)
        assert budgets[0] == pytest.approx(10.0)
        assert budgets == sorted(budgets, reverse=True)


class TestBreakerIntegration:
    def test_open_breaker_fails_fast(self):
        kernel = Kernel()
        breaker = CircuitBreaker(
            BreakerConfig(min_calls=2), clock=lambda: kernel.now
        )
        breaker.record_failure()
        breaker.record_failure()
        policy = ReliabilityPolicy(retry=RetryPolicy(max_attempts=3))
        called = []
        box = run_call(
            kernel, policy, lambda done, n, b: called.append(n), breaker=breaker
        )
        assert isinstance(box["error"], CircuitOpenError)
        assert called == []  # no frame ever sent

    def test_breaker_records_one_outcome_per_call(self):
        """Retransmissions inside one call are the policy at work, not
        evidence against the endpoint: the breaker is asked once and
        told once, however many attempts the call made."""
        kernel = Kernel()
        breaker = CircuitBreaker(
            BreakerConfig(min_calls=3, failure_threshold=0.5), clock=lambda: kernel.now
        )
        policy = ReliabilityPolicy(retry=RetryPolicy(max_attempts=3, jitter=0.0))

        def failing_call():
            return run_call(
                kernel, policy, lambda done, n, b: done(None, ConnectionError("x")),
                breaker=breaker,
            )

        failing_call()
        assert breaker.state == "closed"  # 3 failed attempts, 1 failed call
        failing_call()
        failing_call()
        assert breaker.state == "open"  # 3 failed calls tripped it

    def test_call_recovered_by_retry_counts_as_success(self):
        kernel = Kernel()
        breaker = CircuitBreaker(
            BreakerConfig(min_calls=1, failure_threshold=0.5), clock=lambda: kernel.now
        )
        policy = ReliabilityPolicy(retry=RetryPolicy(max_attempts=3, jitter=0.0))

        def attempt(done, attempt_no, budget):
            done(*(("ok", None) if attempt_no else (None, ConnectionError("x"))))

        assert run_call(kernel, policy, attempt, breaker=breaker)["result"] == "ok"
        assert breaker.state == "closed"
        assert breaker.failure_rate == 0.0


class TestCallLevelReply:
    """``reply`` is for an answer that belongs to the call rather than to
    one send — a frame on a per-call reply pipe."""

    def _silent_call(self, kernel, policy, box):
        """A started call whose attempts never conclude on their own;
        each attempt's ``on_done`` is kept in ``box["dones"]``."""
        box["dones"] = []

        def attempt(on_done, attempt_no, budget):
            box["dones"].append(on_done)

        def callback(result, error):
            box["result"], box["error"] = result, error

        return ReliableCall(kernel, policy, attempt, callback).start()

    def test_late_reply_during_backoff_completes_and_cancels_timer(self):
        kernel = Kernel()
        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0)
        )
        box = {}
        call = self._silent_call(kernel, policy, box)
        box["dones"][0](None, ConnectionError("timer lapsed"))  # -> backoff
        assert kernel.pending == 1
        call.reply("late", None)
        assert box["result"] == "late"
        assert kernel.pending == 0  # the backoff timer did not outlive the call
        kernel.run_until_idle()
        assert call.attempts_made == 1

    def test_error_reply_is_classified_by_the_policy(self):
        kernel = Kernel()
        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=2, jitter=0.0, retry_on=(ConnectionError,))
        )
        box = {}
        call = self._silent_call(kernel, policy, box)
        call.reply(None, ConnectionError("busy"))  # retryable: next attempt
        kernel.run_until_idle()
        assert call.attempts_made == 2 and "error" not in box
        call.reply(None, ValueError("no"))  # final
        assert isinstance(box["error"], ValueError)

    def test_stale_attempt_cannot_conclude_the_next_one(self):
        kernel = Kernel()
        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        )
        box = {}
        call = self._silent_call(kernel, policy, box)
        box["dones"][0](None, ConnectionError("first"))
        kernel.run_until_idle()
        box["dones"][0](None, ConnectionError("first, again"))  # stale
        assert "error" not in box and call.attempts_made == 2


class TestOnewayStatus:
    def test_starts_pending(self):
        status = OnewayStatus(message_id="urn:uuid:1")
        assert not status.done
        assert not status.acked

    def test_listener_fires_on_conclude(self):
        status = OnewayStatus(message_id="urn:uuid:1")
        seen = []
        status.on_done(seen.append)
        status.acked = True
        status._conclude()
        assert seen == [status]

    def test_listener_fires_immediately_if_already_done(self):
        status = OnewayStatus(message_id="urn:uuid:1")
        status.error = RuntimeError("gone")
        seen = []
        status.on_done(seen.append)
        assert seen == [status]
        assert status.done
