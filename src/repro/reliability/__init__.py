"""WS-ReliableMessaging-lite: retries, acks, dedup, deadlines, breakers.

The paper builds WSPeer for networks where "components ... are
notified when and if responses are returned" (§III).  This package
supplies the *if*: bounded retransmission with exponential backoff
(:mod:`~repro.reliability.policy`), acknowledgement frames over
fire-and-forget P2PS pipes (:mod:`~repro.reliability.ack`),
provider-side duplicate suppression keyed on ``wsa:MessageID``
(:mod:`~repro.reliability.dedup`), per-endpoint circuit breakers that
shed load from dead peers (:mod:`~repro.reliability.breaker`), and the
attempt driver that ties them together
(:mod:`~repro.reliability.executor`).

Both bindings consume it through
:class:`~repro.reliability.policy.ReliabilityPolicy` bundles passed to
``invoke`` / ``invoke_async`` / ``invoke_oneway`` or installed as
binding defaults.
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".ack": (
        "ACK_ACTION", "RM_NS", "ack_relates_to", "ack_requested", "build_ack", "is_ack",
        "mark_ack_requested",
    ),
    ".breaker": (
        "CLOSED", "HALF_OPEN", "OPEN", "CircuitBreaker", "CircuitBreakerRegistry",
        "CircuitOpenError",
    ),
    ".dedup": ("DedupWindow",),
    ".executor": ("OnewayStatus", "ReliableCall"),
    ".policy": (
        "BreakerConfig", "Deadline", "DeadlineExceededError", "ReliabilityError",
        "ReliabilityPolicy", "RetryPolicy", "RoundRetry",
    ),
})
