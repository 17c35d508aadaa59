"""Client-side failover: one logical call across many endpoints.

The :class:`FailoverExecutor` sits above the per-endpoint reliability
machinery (:mod:`repro.reliability` retries *within* an endpoint) and
makes a multi-EPR :class:`ServiceHandle` behave like one highly
available service: endpoints are ranked by the
:class:`~repro.supervision.health.HealthMonitor`, attempts walk the
ranking, and retryable faults — timeouts, unreachable nodes, open
breakers, ``Server.Busy`` sheds — trigger failover to the next
endpoint, including *cross-binding* failover from an ``http://`` EPR
to a ``p2ps://`` pipe and back.  This is the paper's §III promise
("the application does not have to care where or how the service has
been located") extended to *whether the first place answers*.

Every attempt of one logical call carries the same ``wsa:MessageID``,
so provider-side dedup windows keep execution at-most-once even when
the client gives up on one binding mid-flight and the original request
later arrives anyway.

The executor keeps only what is failover: it ranks endpoints, records
their health and fires the ``failover`` events.  The attempts are one
:class:`~repro.reliability.executor.ReliableCall` — the program's only
retry loop — under a :class:`~repro.reliability.policy.RoundRetry`
schedule (:data:`ROUNDS` passes, :data:`ROUND_BACKOFF` between them)
and a :data:`DEADLINE`; each attempt runs the endpoint's own
``ReliableCall`` under the caller's policy.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.errors import InvocationError
from repro.core.events import EventSource
from repro.core.handle import ServiceHandle
from repro.core.invocation import InvokeCallback
from repro.observability import metrics as obs_metrics
from repro.observability.tracecontext import (
    activate as trace_activate,
    begin_send as trace_begin_send,
    event_fields as trace_event_fields,
)
from repro.reliability import (
    CircuitOpenError,
    ReliabilityPolicy,
    ReliableCall,
    RoundRetry,
)
from repro.replication.errors import ReplicaLagError, StateDivergedError
from repro.soap.faults import ReplicaLagFault, ServerBusyFault, SoapFault
from repro.supervision.health import HealthMonitor
from repro.transport.base import TransportBusyError
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import new_message_id

#: verdicts from :func:`classify_error`
FINAL = "final"  # application fault: failing over would not help
BUSY = "busy"  # endpoint shed us: back off there, try elsewhere
FAILOVER = "failover"  # endpoint unreachable/slow: try the next one

#: passes over the ranked endpoints one call may make; each round
#: re-ranks, so a node that recovered mid-call is retried before the
#: call gives up
ROUNDS = 2
#: virtual seconds between rounds (lets busy cooldowns lapse and
#: restarted peers come back before the next sweep)
ROUND_BACKOFF = 0.5
#: total budget of one call across every endpoint and round; an attempt
#: timeout past it is trimmed to what is left
DEADLINE = 30.0


def classify_error(error: Exception) -> str:
    """Decide whether *error* ends the call or moves it elsewhere.

    Application-level SOAP faults are *final* — the service executed
    and said no; another replica would say the same.  The one
    exception is ``Server.Busy`` — and its transport-level twin, an
    HTTP 503 from a bounded connection queue — which is an explicit
    "try another endpoint" signal.  Everything else — network errors, node-down,
    transport failures, attempt timeouts, exhausted per-endpoint
    retries, open circuit breakers — is failover-eligible.
    """
    if isinstance(error, (ServerBusyFault, TransportBusyError)):
        return BUSY
    if isinstance(error, (ReplicaLagFault, ReplicaLagError)):
        # the replica did not execute — the session's history lives on
        # a more caught-up member, so move the call there (E15)
        return FAILOVER
    if isinstance(error, StateDivergedError):
        # every member is equally suspect; redirecting would silently
        # pick a side of the conflict
        return FINAL
    if isinstance(error, SoapFault):
        return FINAL
    return FAILOVER


class FailoverExecutor(EventSource):
    """Invokes through the healthiest endpoint, failing over on error.

    Register one invoker per URI scheme (``http``/``httpg`` usually
    share an :class:`~repro.core.invocation.HttpInvocation`; ``p2ps``
    gets the :class:`~repro.core.invocation.P2psInvocation`), then call
    ``invoke``/``invoke_async`` with a multi-endpoint handle.  Health
    signals feed back automatically: successes, failures and busy
    sheds from real traffic are exactly the passive telemetry the
    monitor scores.
    """

    def __init__(
        self,
        kernel,
        health: Optional[HealthMonitor] = None,
        parent: Optional[EventSource] = None,
    ):
        super().__init__("failover", parent)
        self._kernel_ref = kernel
        self.health = health if health is not None else HealthMonitor(
            clock=lambda: kernel.now
        )
        self._invokers: dict[str, Any] = {}
        self.failovers = 0  # endpoint switches across all calls
        #: replication directory (E15); see :meth:`attach_replication`
        self._replication = None
        self.handoffs = 0  # stateful-session redirects to a replica

    # -- wiring ------------------------------------------------------------
    def register_invoker(self, scheme: str, invocation) -> None:
        """Route *scheme* endpoints through *invocation* (any object
        with the ``invoke_async(handle, operation, args, callback,
        timeout, policy=, endpoint=, message_id=)`` contract)."""
        self._invokers[scheme.lower()] = invocation

    def attach_replication(self, directory) -> None:
        """Consult *directory* when planning (replica-aware failover).

        *directory* is any object with ``caught_up(address) ->
        Optional[int]`` — typically a
        :class:`~repro.replication.group.ReplicationGroup`.  Among
        endpoints of equal health standing, planning then prefers the
        member holding the most applied state, so a redirected stateful
        session lands where its history already lives.
        """
        self._replication = directory

    @property
    def schemes(self) -> list[str]:
        return sorted(self._invokers)

    # -- endpoint planning -------------------------------------------------
    @staticmethod
    def _scheme_of(endpoint: EndpointReference) -> str:
        scheme, _, _ = endpoint.address.partition("://")
        return scheme.lower()

    def candidate_endpoints(
        self, handle: ServiceHandle, operation: str
    ) -> list[EndpointReference]:
        """Every EPR of *handle* this executor can actually invoke:
        request/response endpoints for any registered transport scheme,
        plus p2ps pipe endpoints whose pipe serves *operation*."""
        return [
            endpoint for endpoint in handle.endpoints
            if (scheme := self._scheme_of(endpoint)) in self._invokers
            and (scheme != "p2ps" or endpoint.property_text("PipeName") == operation)
        ]

    def _plan_queue(
        self, candidates: list[EndpointReference]
    ) -> list[EndpointReference]:
        """Health-ranked order, refined by replication caught-up scores.

        The stable sort preserves the health ranking among endpoints of
        the same liveness class; within a class, members holding more
        applied state come first and non-member endpoints keep their
        health-ranked position (score ``-1`` sorts after any member).
        """
        queue = self.health.rank(candidates)
        if self._replication is None:
            return queue
        scores = {
            e.address: self._replication.caught_up(e.address) for e in queue
        }
        if not any(score is not None for score in scores.values()):
            return queue
        queue.sort(
            key=lambda e: (
                self.health.is_dead(e.address),
                -(scores[e.address] if scores[e.address] is not None else -1),
            )
        )
        return queue

    # -- invocation --------------------------------------------------------
    def invoke_async(
        self,
        handle: ServiceHandle,
        operation: str,
        args: dict[str, Any],
        callback: InvokeCallback,
        timeout: Optional[float] = None,
        policy: Optional[ReliabilityPolicy] = None,
    ) -> None:
        candidates = self.candidate_endpoints(handle, operation)
        if not candidates:
            callback(
                None,
                InvocationError(
                    f"service {handle.name!r} has no endpoint this executor "
                    f"can reach (schemes {self.schemes})"
                ),
            )
            return

        # One MessageID for the whole logical call: every endpoint and
        # every round retransmits the same identity, so provider dedup
        # keeps execution at-most-once across failover.
        message_id = new_message_id()
        # One trace span for the whole logical call, captured *now* while
        # the caller's ambient context (if any) is still active: attempts
        # run from async completion callbacks, so each re-activates this
        # context and mints a sibling attempt span under it — one trace
        # across every endpoint and round, exactly like the MessageID.
        call_trace = trace_begin_send()
        about = dict(service=handle.name, operation=operation,
                     message_id=message_id, **trace_event_fields(call_trace))
        rounds = RoundRetry(len(candidates), ROUNDS, ROUND_BACKOFF)
        queue: list[EndpointReference] = []
        previous: Optional[str] = None  # the endpoint tried last ...
        last_error: Optional[Exception] = None  # ... and how it failed

        def finish(result: Any, error: Optional[Exception]) -> None:
            if error is not None:
                obs_metrics.inc("failover.exhausted")
                self.fire_client(
                    "failover-exhausted", attempts=call.attempts_made,
                    rounds=rounds.rounds_walked(call.attempts_made),
                    reason=str(error), **about,
                )
            callback(result, error)

        def attempt(on_done, attempt_no: int, remaining: float) -> None:
            nonlocal previous
            if attempt_no % rounds.per_round == 0:
                # a round starts: re-rank on what we know now
                queue[:] = self._plan_queue(candidates)
            endpoint = queue.pop(0)
            address = endpoint.address
            if previous is not None and previous != address:
                self.failovers += 1
                obs_metrics.inc("failover.hops")
                self.fire_client(
                    "failover", from_endpoint=previous, to_endpoint=address,
                    reason=str(last_error), **about,
                )
                caught_up = (
                    self._replication.caught_up(address)
                    if self._replication is not None else None
                )
                if caught_up is not None:
                    # a stateful session is moving to a replication
                    # member: annotate the span tree and count the
                    # handoff (the same MessageID keeps it at-most-once)
                    self.handoffs += 1
                    obs_metrics.inc("replication.handoffs")
                    self.fire_client(
                        "session-handoff", from_endpoint=previous,
                        to_endpoint=address, caught_up=caught_up, **about,
                    )
            previous = address
            sent_at = self._kernel_ref.now

            def on_reply(result: Any, error: Optional[Exception]) -> None:
                nonlocal last_error
                if error is None:
                    self.health.record_success(address, latency=self._kernel_ref.now - sent_at)
                    on_done(result, None)
                    return
                last_error = error
                verdict = classify_error(error)
                if verdict == FINAL:
                    call.finish(None, error)
                    return
                if verdict == BUSY:
                    self.health.record_busy(address, retry_after=error.retry_after)
                elif isinstance(error, (ReplicaLagFault, ReplicaLagError)):
                    # the member answered — it is alive, just behind;
                    # treat like a shed, not a failure, so its health
                    # score survives the redirect
                    self.health.record_busy(
                        address, retry_after=getattr(error, "retry_after", 0.0)
                    )
                elif not isinstance(error, CircuitOpenError):
                    # (an open breaker already holds the failure history;
                    # a shed local decision is no fresh remote failure)
                    self.health.record_failure(address)
                on_done(None, error)

            try:
                with trace_activate(call_trace):
                    self._invokers[self._scheme_of(endpoint)].invoke_async(
                        handle, operation, args, on_reply,
                        remaining if timeout is None else min(timeout, remaining),
                        policy=policy, endpoint=endpoint, message_id=message_id,
                    )
            except Exception as exc:  # noqa: BLE001 - invoker boundary
                on_reply(None, exc)

        call = ReliableCall(
            self._kernel_ref, ReliabilityPolicy(retry=rounds, deadline=DEADLINE),
            attempt, finish, describe=f"failover of {operation!r}",
        )
        call.start()

    def invoke(
        self,
        handle: ServiceHandle,
        operation: str,
        args: Optional[dict[str, Any]] = None,
        timeout: Optional[float] = 5.0,
        policy: Optional[ReliabilityPolicy] = None,
        **kwargs: Any,
    ) -> Any:
        """Synchronous failover invocation: pump virtual time until done."""
        all_args = dict(args or {})
        all_args.update(kwargs)
        return self._kernel_ref.wait(
            lambda done: self.invoke_async(
                handle, operation, all_args, done, timeout, policy=policy
            ),
            lambda: InvocationError(
                f"failover invocation of {operation!r} never completed"
            ),
        )


def attach_failover(peer, extra_invokers: Optional[dict] = None) -> FailoverExecutor:
    """Supervise *peer*'s multi-endpoint handles: health-ranked
    invocation with cross-endpoint (and, with *extra_invokers*,
    cross-binding) failover.

    Wires a :class:`FailoverExecutor` over the peer's active invocation
    node, attaches its circuit breakers to the health ranking, and
    feeds dead/alive verdicts into the locator (so stale EPRs stop
    being handed out) and the HTTP pool (so dead endpoints lose their
    connections).  *extra_invokers* maps additional URI schemes to
    invocation nodes (e.g. ``{"p2ps": p2ps_invocation}`` on an
    HTTP-bound peer).  Returns the executor, also kept as
    ``peer.failover``.
    """
    health = HealthMonitor(clock=peer._clock)
    executor = FailoverExecutor(peer.node.network.kernel, health, parent=peer.client)
    invocation = peer.client.invocation
    for scheme in invocation.schemes:
        executor.register_invoker(scheme, invocation)
    for scheme, invoker in (extra_invokers or {}).items():
        executor.register_invoker(scheme, invoker)
    health.attach_breakers(invocation.breakers)
    if peer.client.locator is not None:
        peer.client.locator.watch_health(health)
    peer.http_pool.attach_health(health)
    peer.failover = executor
    return executor
