"""Unit tests for RetryPolicy backoff schedules and Deadline budgets."""

import pytest

from repro.reliability import (
    BreakerConfig,
    Deadline,
    DeadlineExceededError,
    ReliabilityPolicy,
    RetryPolicy,
)
from repro.simnet.network import NetworkError
from repro.soap.faults import FaultCode, SoapFault
from repro.transport.base import TransportTimeoutError


class TestRetryPolicyBackoff:
    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=10.0, jitter=0.0
        )
        assert policy.schedule() == pytest.approx([0.1, 0.2, 0.4, 0.8])

    def test_delay_capped_at_max_delay(self):
        policy = RetryPolicy(
            max_attempts=8, base_delay=0.5, multiplier=4.0, max_delay=2.0, jitter=0.0
        )
        assert max(policy.schedule()) <= 2.0
        assert policy.delay(7) == pytest.approx(2.0)

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(
            max_attempts=50, base_delay=0.1, multiplier=1.0, jitter=0.25, seed=7
        )
        for delay in policy.schedule():
            assert 0.1 * 0.75 <= delay <= 0.1 * 1.25

    def test_jitter_deterministic_per_seed(self):
        a = RetryPolicy(max_attempts=6, jitter=0.3, seed=42).schedule()
        b = RetryPolicy(max_attempts=6, jitter=0.3, seed=42).schedule()
        c = RetryPolicy(max_attempts=6, jitter=0.3, seed=43).schedule()
        assert a == b
        assert a != c

    def test_reset_restores_jitter_stream(self):
        policy = RetryPolicy(max_attempts=4, jitter=0.3, seed=9)
        first = policy.schedule()
        policy.reset()
        assert policy.schedule() == first

    def test_zero_base_delay_degenerates_to_immediate(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0)
        assert policy.schedule() == [0.0, 0.0, 0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)

    def test_a_jittered_policy_checks_its_seed_at_construction(self):
        # the first jittered delay runs inside a retransmit timer: a bad
        # seed must fail where the policy is written, not there
        with pytest.raises(ValueError):
            RetryPolicy(jitter=0.2, seed=-1)
        with pytest.raises(TypeError):
            RetryPolicy(jitter=0.2, seed=1.5)
        # without jitter the seed is never drawn from, so it is not checked
        assert RetryPolicy(jitter=0.0, seed=-1).schedule() == pytest.approx([0.05, 0.1])


class TestRetryClassification:
    def test_default_retries_transport_errors_not_faults(self):
        policy = RetryPolicy()
        assert policy.retryable(TransportTimeoutError("late"))
        assert policy.retryable(NetworkError("no route"))
        assert not policy.retryable(SoapFault(FaultCode.CLIENT, "bad args"))

    def test_explicit_retry_on_filter_wins(self):
        policy = RetryPolicy(retry_on=(NetworkError,))
        assert policy.retryable(NetworkError("no route"))
        assert not policy.retryable(TransportTimeoutError("late"))
        assert not policy.retryable(RuntimeError("anything else"))


class TestDeadline:
    def test_budget_counts_down_from_start(self):
        deadline = Deadline(5.0)
        assert deadline.remaining(100.0) == 5.0  # unstarted: full budget
        deadline.start(10.0)
        assert deadline.remaining(12.0) == pytest.approx(3.0)
        assert not deadline.expired(14.9)
        assert deadline.expired(15.0)

    def test_start_is_idempotent(self):
        deadline = Deadline(2.0)
        deadline.start(1.0)
        deadline.start(50.0)  # ignored
        assert deadline.remaining(2.0) == pytest.approx(1.0)

    def test_positive_budget_required(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


class TestPolicyBundles:
    def test_naive_is_single_attempt(self):
        policy = ReliabilityPolicy.naive()
        assert policy.retry.max_attempts == 1
        assert not policy.ack
        assert policy.breaker is None

    def test_standard_default_retries_connect_errors_only(self):
        policy = ReliabilityPolicy.standard_default()
        assert policy.retry.retryable(NetworkError("down"))
        assert not policy.retry.retryable(TransportTimeoutError("late"))

    def test_p2ps_default_retransmits_without_ack(self):
        policy = ReliabilityPolicy.p2ps_default()
        assert policy.retry.max_attempts > 1
        assert not policy.ack

    def test_assured_bundles_everything(self):
        policy = ReliabilityPolicy.assured(attempts=4)
        assert policy.retry.max_attempts == 4
        assert policy.ack
        assert isinstance(policy.breaker, BreakerConfig)
        assert policy.new_deadline() is None
        policy.deadline = 10.0
        deadline = policy.new_deadline()
        assert deadline is not None and deadline.budget == 10.0

    def test_deadline_error_is_reliability_error(self):
        from repro.reliability import ReliabilityError

        assert issubclass(DeadlineExceededError, ReliabilityError)
