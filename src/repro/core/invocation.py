"""Invocations: the client side of the exchange.

"Although WSPeer allows synchronous discovery and invocation, it is
essentially an asynchronous, event driven system in which components
subscribe to events and are notified when and if responses are returned
from remote services" (§III).  Every call — request/response, bare
one-way, acknowledged one-way, on either binding — runs the one staged
pipeline of :meth:`Invocation._run`:

1. **resolve** the endpoint (binding: :meth:`Invocation._resolve`);
2. **open the last hop** (binding: :meth:`Invocation._open_hop`);
3. **build the wire once** — MAPs, trace context, request template or
   envelope — so every retransmit carries the same ``wsa:MessageID`` and
   provider-side dedup keeps execution at-most-once;
4. :class:`~repro.reliability.ReliableCall` **drives the attempts** under
   the call's :class:`~repro.reliability.ReliabilityPolicy` (an explicit
   ``policy=``, else the node's ``default_policy``, else ``naive()``);
5. the hop **sends**: ``hop.send(wire, on_reply, timeout)``;
6. the reply is **decoded**, and errors go back through the policy;
7. one **finish** closes the hop, fires events and metrics, and calls back.

A binding supplies only steps 1 and 2.  Synchronous ``invoke`` pumps the
simulation kernel until the callback fires, exactly how HTTP's held-open
connection behaves.

:class:`HttpInvocation`
    SOAP POST to an ``http://`` (or, with an :class:`HttpgTransport`
    supplied, ``httpg://``) endpoint; the hop is ``Transport.send``.
:class:`P2psInvocation`
    The consumer flow of Fig. 5; the hop is the provider's operation
    pipe plus one reply (or ack) pipe per call and a per-attempt timer.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro._exports import exports
from repro.core.errors import InvocationError
from repro.core.events import EventSource
from repro.observability import metrics as obs_metrics
from repro.core.handle import ServiceHandle
from repro.reliability import (
    CircuitBreakerRegistry,
    OnewayStatus,
    ReliabilityPolicy,
    ReliableCall,
    ack_relates_to,
    mark_ack_requested,
)
from repro.observability.tracecontext import (
    begin_send as trace_begin_send,
    event_fields as trace_event_fields,
)
from repro.simnet.network import Node
from repro.soap.attachments import MULTIPART_CONTENT_TYPE
from repro.soap.encoding import StructRegistry
from repro.soap.envelope import SoapEnvelope
from repro.soap.rpc import build_rpc_request, extract_rpc_result
from repro.soap.stubs import DynamicStubBuilder
from repro.transport.base import Transport
from repro.transport.http import HttpTransport
from repro.transport.uri import parse_uri_cached
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import (
    MessageAddressingProperties,
    new_message_id,
    request_templates,
)
from repro.wsdl.stubspec import stub_spec_cached

_, __getattr__, __dir__ = exports(
    __name__, {".p2psmap": ("P2psInvocation", "_pipe_target")}
)

#: Completion callback: (result, error) — exactly one is non-None,
#: except for void results where both may be None.
InvokeCallback = Callable[[Any, Optional[Exception]], None]

#: one attempt, shared: with nothing to retry its jitter stream is never read
_NAIVE = ReliabilityPolicy.naive()


class Invocation(EventSource):
    """Base invocation node of the interface tree: the whole pipeline.

    A binding subclass answers :attr:`schemes`, :meth:`_resolve` and
    :meth:`_open_hop`.  A hop offers ``action`` (the ``wsa:Action``),
    ``reply_to`` (the EPR answers should go to, or None),
    ``send(wire, on_reply, timeout)`` — one physical attempt, reporting
    ``on_reply(body, error)`` — and ``close()``.
    """

    #: URI schemes this node can send to
    schemes: tuple[str, ...] = ()

    def __init__(
        self,
        kernel,
        parent: Optional[EventSource] = None,
        default_policy: Optional[ReliabilityPolicy] = None,
    ):
        super().__init__("invocation", parent)
        self._kernel = kernel
        self.registry = StructRegistry()
        #: binding-supplied reliability defaults; an explicit ``policy=``
        #: argument on any call overrides this.
        self.default_policy = default_policy
        self._breakers: Optional[CircuitBreakerRegistry] = None

    def _now(self) -> float:
        return self._kernel.now

    @property
    def breakers(self) -> CircuitBreakerRegistry:
        """Per-endpoint circuit breakers shared by this node's calls."""
        if self._breakers is None:
            self._breakers = CircuitBreakerRegistry(
                clock=self._now, on_transition=self._on_breaker_transition
            )
        return self._breakers

    def _on_breaker_transition(self, endpoint: str, old: str, new: str) -> None:
        obs_metrics.inc("breaker.transitions." + new)
        self.fire_client(f"circuit-{new}", endpoint=endpoint, previous=old)

    # -- what a binding supplies -------------------------------------------
    def _resolve(
        self, handle: ServiceHandle, operation: str
    ) -> EndpointReference:  # pragma: no cover - abstract
        """The endpoint of *handle* this binding sends *operation* to;
        raises :class:`InvocationError` when the handle offers none."""
        raise NotImplementedError

    def _open_hop(
        self, endpoint: EndpointReference, operation: str, reply: Optional[str]
    ):  # pragma: no cover - abstract
        """Open the last hop to *endpoint*.  *reply* names the return
        channel the call wants (``"reply"``, ``"ack"``) or is None for a
        bare one-way; transports that answer on the connection ignore it."""
        raise NotImplementedError

    # -- the pipeline ------------------------------------------------------
    def _run(
        self,
        handle: ServiceHandle,
        operation: str,
        args: dict[str, Any],
        callback: InvokeCallback,
        timeout: Optional[float],
        policy: Optional[ReliabilityPolicy],
        endpoint: Optional[EndpointReference] = None,
        message_id: Optional[str] = None,
        oneway: bool = False,
        status: Optional[OnewayStatus] = None,
    ) -> None:
        """One logical call.  *oneway* switches to the ``oneway-*`` names
        and expects no result; *status*, the live record of an
        acknowledged one-way, additionally requests and awaits an ack."""
        if policy is None:
            policy = self.default_policy or _NAIVE
        ack = status is not None
        reply = "ack" if ack else None if oneway else "reply"
        try:
            if endpoint is None:
                endpoint = self._resolve(handle, operation)
            hop = self._open_hop(endpoint, operation, reply)
        except InvocationError as exc:
            callback(None, exc)
            return
        except Exception as exc:  # noqa: BLE001 - resolution/mapping boundary
            callback(None, InvocationError(f"cannot reach provider: {exc}"))
            return

        # One wire for every attempt: retries reuse the MessageID so the
        # provider's dedup window suppresses duplicate execution.  A
        # caller-supplied message_id extends the same guarantee across
        # endpoints — the failover executor keeps one identity per
        # logical call no matter where each attempt lands.
        maps = MessageAddressingProperties(
            to=endpoint.address,
            action=hop.action,
            reply_to=hop.reply_to,
            message_id=message_id if message_id is not None else new_message_id(),
        )
        # The trace context is captured when the wire is built, so every
        # retransmit carries the same span identity; a fresh call with
        # the same MessageID (failover hop) mints a sibling span.
        trace_ctx = trace_begin_send()
        if trace_ctx is not None:
            maps.trace_context = trace_ctx.encoded()
        try:
            # an AckRequested header is not part of any request template
            wire = None if ack else request_templates.render(
                maps, handle.namespace, operation, args, target=endpoint
            )
            if wire is None:
                envelope = build_rpc_request(handle.namespace, operation, args, self.registry)
                maps.apply_to(envelope, target=endpoint)
                if ack:
                    mark_ack_requested(envelope)
                # attachments (E16) make this a multipart byte wire
                wire = envelope.to_wire_message()
        except BaseException:
            hop.close()  # the call never started: give back its reply pipe
            raise

        about = {"service": handle.name, "operation": operation,
                 "message_id": maps.message_id}

        def decode(body) -> Any:
            if reply is None:
                return None  # bare one-way: the send was the whole exchange
            frame = SoapEnvelope.from_wire_message(body or "")
            if not ack:
                return extract_rpc_result(frame, self.registry)  # raises SoapFault
            if ack_relates_to(frame) != maps.message_id:
                raise InvocationError(
                    f"frame on the ack pipe does not acknowledge {maps.message_id}"
                )
            return None

        def attempt(on_done, attempt_no: int, budget: Optional[float]) -> None:
            def on_reply(body, error: Optional[Exception]) -> None:
                if error is not None:
                    on_done(None, error)  # this send failed
                    return
                # an answer belongs to the call, whichever send provoked it
                try:
                    result = decode(body)
                except Exception as exc:  # noqa: BLE001 - includes SoapFault
                    call.reply(None, exc)
                else:
                    call.reply(result, None)

            try:
                hop.send(
                    wire, on_reply,
                    timeout if budget is None
                    else budget if timeout is None else min(timeout, budget),
                )
            except InvocationError as exc:  # the hop cannot send: nothing to retry
                call.finish(None, exc)

        def on_retry(next_attempt: int, delay: float, error: Exception) -> None:
            obs_metrics.inc("client.retransmits")
            self.fire_client(
                "retransmit", attempt=next_attempt, delay=delay,
                reason=str(error), **about,
            )

        def finish(result: Any, error: Optional[Exception]) -> None:
            hop.close()
            if ack:
                status.attempts = call.attempts_made
            if error is not None and oneway:
                obs_metrics.inc("client.oneway_failed")
                self.fire_client("oneway-failed", reason=str(error), **about)
            elif error is not None:
                obs_metrics.inc("client.failures")
                self.fire_client("invoke-failed", reason=str(error), **about)
            elif ack:
                obs_metrics.inc("client.oneway_acked")
                obs_metrics.observe("client.ack_latency", self._now() - started)
                self.fire_client("oneway-acked", attempts=call.attempts_made, **about)
            elif not oneway:
                obs_metrics.inc("client.responses")
                obs_metrics.observe("client.latency", self._now() - started)
                self.fire_client("response-received", **about)
            callback(result, error)

        call = ReliableCall(
            self._kernel, policy, attempt, finish,
            breaker=(
                self.breakers.for_endpoint(endpoint.address, policy.breaker)
                if policy.breaker is not None else None
            ),
            on_retry=on_retry,
            describe=f"{endpoint.address}#{operation}",
        )
        started = self._now()
        if oneway:
            obs_metrics.inc("client.oneway_sent")
            self.fire_client(
                "oneway-sent", endpoint=endpoint.address, ack_requested=ack,
                **about, **trace_event_fields(trace_ctx),
            )
        else:
            obs_metrics.inc("client.requests")
            self.fire_client(
                "request-sent", endpoint=endpoint.address,
                **about, **trace_event_fields(trace_ctx),
            )
        call.start()

    # -- public entry points -----------------------------------------------
    def invoke_async(
        self,
        handle: ServiceHandle,
        operation: str,
        args: dict[str, Any],
        callback: InvokeCallback,
        timeout: Optional[float] = None,
        policy: Optional[ReliabilityPolicy] = None,
        endpoint: Optional[EndpointReference] = None,
        message_id: Optional[str] = None,
    ) -> None:
        """Request/response invocation; *callback* fires exactly once."""
        self._run(
            handle, operation, args, callback, timeout, policy, endpoint, message_id
        )

    def invoke(
        self,
        handle: ServiceHandle,
        operation: str,
        args: Optional[dict[str, Any]] = None,
        timeout: Optional[float] = 30.0,
        policy: Optional[ReliabilityPolicy] = None,
        **kwargs: Any,
    ) -> Any:
        """Synchronous invocation: pump virtual time until completion."""
        all_args = dict(args or {})
        all_args.update(kwargs)
        return self._kernel.wait(
            lambda done: self.invoke_async(
                handle, operation, all_args, done, timeout, policy=policy
            ),
            lambda: InvocationError(f"invocation of {operation!r} never completed"),
        )

    def invoke_oneway(
        self,
        handle: ServiceHandle,
        operation: str,
        args: Optional[dict[str, Any]] = None,
        policy: Optional[ReliabilityPolicy] = None,
        timeout: Optional[float] = None,
        **kwargs: Any,
    ) -> Optional[OnewayStatus]:
        """Notification-style invocation: send and do not wait.

        Default implementation dispatches asynchronously and discards
        the completion; transports with genuinely one-way wires (P2PS
        pipes) override this to skip creating a reply channel at all —
        unless the reliability policy requests acknowledgements, in
        which case an ack pipe is opened and an :class:`OnewayStatus`
        is returned for callers who care whether delivery happened.
        """
        all_args = dict(args or {})
        all_args.update(kwargs)
        self.invoke_async(
            handle, operation, all_args, lambda result, error: None,
            timeout, policy=policy,
        )
        return None

    def create_stub(
        self,
        handle: ServiceHandle,
        timeout: Optional[float] = 30.0,
        policy: Optional[ReliabilityPolicy] = None,
    ) -> Any:
        """Build a dynamic proxy whose methods invoke through this node.

        The WSPeer way: "generating stubs directly to bytes, bypassing
        source generation and compilation" (§IV-A).
        """
        spec = stub_spec_cached(handle.wsdl)

        def invoke_fn(op: str, args: dict[str, Any]) -> Any:
            return self.invoke(handle, op, args, timeout=timeout, policy=policy)

        return DynamicStubBuilder().build(spec, invoke_fn)


class _HttpHop:
    """Last hop over a request/response transport.  The held-open
    connection is the return channel and the transport times each
    exchange itself, so there is nothing to close."""

    reply_to = None

    def __init__(self, transport: Transport, uri, action: str):
        self._transport = transport
        self._uri = uri
        self.action = action

    def send(self, wire, on_reply, timeout: Optional[float]) -> None:
        headers = {"SOAPAction": self.action}
        if isinstance(wire, bytes):
            headers["Content-Type"] = MULTIPART_CONTENT_TYPE
        self._transport.send(self._uri, wire, headers, on_reply, timeout=timeout)

    def close(self) -> None:
        pass


class HttpInvocation(Invocation):
    """SOAP over request/response transports (HTTP and HTTPG)."""

    def __init__(
        self,
        node: Node,
        parent: Optional[EventSource] = None,
        extra_transports: Optional[list[Transport]] = None,
        default_policy: Optional[ReliabilityPolicy] = None,
        pool=None,
    ):
        super().__init__(node.network.kernel, parent, default_policy=default_policy)
        self.node = node
        #: *pool* (see :class:`~repro.transport.http.HttpClient`) is the
        #: peer's: retries and failover hops reuse its warm connections
        self._transports: dict[str, Transport] = {"http": HttpTransport(node, pool=pool)}
        for transport in extra_transports or []:
            self._transports[transport.scheme] = transport

    @property
    def schemes(self) -> tuple[str, ...]:
        return tuple(self._transports)

    def _resolve(self, handle: ServiceHandle, operation: str) -> EndpointReference:
        for scheme in self._transports:
            endpoint = handle.endpoint_for_scheme(scheme)
            if endpoint is not None:
                return endpoint
        raise InvocationError(
            f"service {handle.name!r} has no endpoint for schemes "
            f"{sorted(self._transports)}"
        )

    def _open_hop(
        self, endpoint: EndpointReference, operation: str, reply: Optional[str]
    ) -> _HttpHop:
        uri = parse_uri_cached(endpoint.address)
        transport = self._transports.get(uri.scheme)
        if transport is None:
            raise InvocationError(
                f"no transport for scheme {uri.scheme!r} (endpoint {endpoint.address})"
            )
        # Action names the WSDL operation: address + ``#operation``
        return _HttpHop(transport, uri, f"{endpoint.address}#{operation}")
