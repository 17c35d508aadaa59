"""Supervision and failover: a multi-endpoint handle as one HA service.

The paper's discovery model hands a consumer a :class:`ServiceHandle`
whose EndpointReferences may span bindings (HTTP, HTTPG, P2PS pipes)
and peers.  This package supervises those endpoints so the handle
behaves like one highly available service:

:mod:`repro.supervision.health`
    :class:`HealthMonitor` — exponentially-decayed per-endpoint health
    scores from passive signals (invocation outcomes, ``Server.Busy``
    sheds, latency, breaker state) and optional active probes; emits
    dead/alive verdicts that locators use to drop poisoned EPRs.
:mod:`repro.supervision.failover`
    :class:`FailoverExecutor` — ranks a handle's endpoints by health
    and walks the ranking on retryable failures, including
    cross-binding failover, reusing one ``wsa:MessageID`` so
    provider-side dedup keeps execution at-most-once;
    :func:`attach_failover` puts one over a peer's invocation.
:mod:`repro.supervision.admission`
    :class:`AdmissionController` — provider-side leaky-bucket load
    shedding; overload answers with a ``Server.Busy`` fault carrying a
    retry-after hint instead of queueing unboundedly.
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".admission": ("AdmissionController",),
    ".failover": (
        "BUSY", "FAILOVER", "FINAL", "FailoverExecutor", "attach_failover",
        "classify_error",
    ),
    ".health": ("ALIVE", "DEAD", "EndpointHealth", "HealthMonitor"),
})
