"""The lightweight hosting container.

"WSPeer reverses the power relationship between the deployed component
and the environment used for deploying and exposing it, in effect
allowing the component to become its own container" (§III).  Concretely:

- :meth:`LightweightContainer.deploy` takes a *live object* (or a
  prepared :class:`ServiceObject` with per-operation targets), generates
  its WSDL, and wires a dispatcher — at runtime, no restart, no archive;
- the owning application can set an ``interceptor`` that sees every
  request *before* the messaging engine and may answer it directly; when
  it declines (returns None) the engine dispatches as usual;
- every request and response fires a ServerMessageEvent, so a listener
  on the tree root observes traffic "either side of being processed by
  the underlying messaging system".

The container also owns the one server-side message path,
:meth:`LightweightContainer.serve` — wire in, wire out, the same stages
for every binding:

1. **decode** the payload; garbage fires ``malformed-request``, bumps
   ``server.malformed_requests`` and is answered with a ``Client`` fault;
2. read the **addressing properties** once;
3. ``request-received``;
4. **dedup lookup** in the service's one :class:`DedupWindow`: a hit
   fires ``duplicate-suppressed`` and the retained wire goes out again
   verbatim — never parsed, never re-encoded;
5. **interceptor**, unknown service, **admission**, **replication
   guard** — each may answer instead of the engine, and none of their
   answers is retained;
6. **acknowledge** an ack-requested one-way (only now: a shed request is
   not acked, so its sender retransmits);
7. **handler chain + dispatch**;
8. stamp the binding's **reply MAPs**, **encode once**, **retain** that
   wire, hand it to replication;
9. ``response-sent``; the same wire **leaves**.

:meth:`~LightweightContainer.process_request` is stages 3–9 at the
envelope level.  A deployer supplies only how a request arrives, which
reply MAPs the answer carries, and how it leaves.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.errors import DeploymentError
from repro.core.events import EventSource
from repro.observability import metrics as obs_metrics
from repro.observability.tracecontext import (
    activate as trace_activate,
    decode as trace_decode,
    event_fields as trace_event_fields,
    propagation_enabled as trace_propagation_enabled,
    raw_context_of,
)
from repro.reliability import DedupWindow, ack_requested, build_ack
from repro.soap.encoding import StructRegistry
from repro.soap.envelope import SoapEnvelope, wire_carries_fault
from repro.soap.faults import FaultCode, ServerBusyFault, SoapFault
from repro.soap.handlers import HandlerChain, MessageContext, MustUnderstandHandler
from repro.soap.rpc import RpcDispatcher, ServiceObject
from repro.wsa.epr import EndpointReference, WsaError
from repro.wsa.headers import MessageAddressingProperties, message_id_of
from repro.wsdl.generator import generate_wsdl, wsdl_wire
from repro.wsdl.model import SOAP_HTTP_TRANSPORT, WsdlDefinition
from repro.xmlkit import ns

#: An interceptor sees (service name, request envelope) and may return a
#: complete response envelope to bypass the engine, or None to decline.
Interceptor = Callable[[str, SoapEnvelope], Optional[SoapEnvelope]]


class DeployedService:
    """One deployed service: live object(s) + description + dispatcher."""

    def __init__(
        self,
        service: ServiceObject,
        registry: Optional[StructRegistry] = None,
        transport: Optional[str] = None,
    ):
        self.service = service
        self.registry = registry or StructRegistry()
        self.dispatcher = RpcDispatcher(service, self.registry)
        self.chain = HandlerChain([MustUnderstandHandler({ns.WSA})])
        self.endpoints: list[EndpointReference] = []
        self.transport = transport
        self.requests_processed = 0
        #: at-most-once execution: retransmitted requests (same
        #: ``wsa:MessageID``) replay the retained response instead of
        #: re-running the operation — essential for non-idempotent
        #: stateful services under client-side retry policies.
        self.dedup = DedupWindow()
        self.duplicates_suppressed = 0
        #: set by :class:`~repro.replication.group.ReplicationGroup`
        #: when this deployment joins a replication group (E15); the
        #: container then guards dispatch (lag/divergence) and ships a
        #: versioned delta after every state-changing execution
        self.replication = None
        self._wsdl_locations: dict[str, str] = {}

    @property
    def name(self) -> str:
        return self.service.name

    @property
    def namespace(self) -> str:
        return self.service.namespace

    def add_endpoint(self, epr: EndpointReference, port_name: str = "") -> None:
        self.endpoints.append(epr)
        self._wsdl_locations[port_name or f"{self.name}Port{len(self.endpoints)}"] = (
            epr.address
        )

    def wsdl(self) -> WsdlDefinition:
        """The current interface description (reflects live endpoints
        and declares any registered struct types in <wsdl:types>)."""
        return generate_wsdl(self.service, self._wsdl_locations, self._transport_uri(), self.registry)

    def wsdl_wire(self) -> str:
        """``wsdl().to_wire()``, rendered from this service's class."""
        return wsdl_wire(self.service, self._wsdl_locations, self._transport_uri(), self.registry)

    def _transport_uri(self) -> str:
        return self.transport or SOAP_HTTP_TRANSPORT

    # -- session-state API (E15) ---------------------------------------
    def _member(self):
        if self.replication is None:
            raise DeploymentError(
                f"service {self.name!r} is not replicated; call "
                "ReplicationGroup.establish first"
            )
        return self.replication

    def get_state(self, session: Optional[str] = None) -> dict:
        """The replicated state of one session (default session when
        *session* is omitted)."""
        from repro.replication.state import DEFAULT_SESSION

        return self._member().store.get_state(session or DEFAULT_SESSION)

    def apply_delta(self, delta) -> str:
        """Apply a :class:`~repro.replication.state.StateDelta` to this
        member in-process; returns the store verdict (``applied`` /
        ``duplicate`` / ``buffered`` / ``diverged``)."""
        return self._member().apply_delta_local(delta)

    def snapshot(self, session: Optional[str] = None):
        """A :class:`~repro.replication.state.StateSnapshot` of one
        session at this member's high-water mark."""
        from repro.replication.state import DEFAULT_SESSION

        return self._member().store.snapshot(session or DEFAULT_SESSION)

    def __repr__(self) -> str:
        return f"<DeployedService {self.name} endpoints={len(self.endpoints)}>"


class LightweightContainer(EventSource):
    """Holds the deployed services of one WSPeer server side."""

    def __init__(self, parent: Optional[EventSource] = None, clock=None):
        super().__init__("container", parent)
        self._clock = clock or (lambda: 0.0)
        self._services: dict[str, DeployedService] = {}
        self.interceptor: Optional[Interceptor] = None
        #: optional load shedding; see :meth:`set_admission_control`
        self.admission = None
        self.requests_shed = 0

    def _now(self) -> float:
        return self._clock()

    def set_admission_control(
        self,
        capacity: Optional[float] = 8.0,
        drain_rate: float = 50.0,
        controller=None,
    ):
        """Bound this container's pending-request queue.

        Once set, requests arriving with the queue at capacity are
        answered with a ``Server.Busy`` fault carrying a retry-after
        hint instead of being dispatched — the overloaded provider
        stays responsive and steers clients to other endpoints.  Pass
        ``controller=None, capacity=None`` to disable shedding again.
        """
        if controller is None and capacity is not None:
            from repro.supervision.admission import AdmissionController

            controller = AdmissionController(
                capacity=capacity, drain_rate=drain_rate, clock=self._clock
            )
        self.admission = controller
        return controller

    # ------------------------------------------------------------------
    def deploy(
        self,
        source: Any,
        name: Optional[str] = None,
        namespace: Optional[str] = None,
        include: Optional[list[str]] = None,
        registry: Optional[StructRegistry] = None,
        transport: Optional[str] = None,
    ) -> DeployedService:
        """Deploy *source* — a live object or a :class:`ServiceObject`.

        For a plain object, its public methods become the operations;
        pass a prepared :class:`ServiceObject` to map operations onto
        several stateful objects.
        """
        if isinstance(source, ServiceObject):
            service = source
        else:
            if name is None:
                name = type(source).__name__
            service = ServiceObject.from_instance(
                name, source, namespace or f"urn:wspeer:{name}", include=include
            )
        if service.name in self._services:
            raise DeploymentError(f"service {service.name!r} already deployed")
        if not service.operations:
            raise DeploymentError(f"service {service.name!r} has no operations")
        deployed = DeployedService(service, registry, transport=transport)
        self._services[service.name] = deployed
        self.fire_deployment(
            "deployed", service=service.name, operations=service.operation_names
        )
        return deployed

    def undeploy(self, name: str) -> DeployedService:
        deployed = self._services.pop(name, None)
        if deployed is None:
            raise DeploymentError(f"no deployed service named {name!r}")
        self.fire_deployment("undeployed", service=name)
        return deployed

    def get(self, name: str) -> Optional[DeployedService]:
        return self._services.get(name)

    def require(self, name: str) -> DeployedService:
        deployed = self._services.get(name)
        if deployed is None:
            raise DeploymentError(f"no deployed service named {name!r}")
        return deployed

    # ------------------------------------------------------------------
    # the hosting pipeline: wire in, wire out
    # ------------------------------------------------------------------
    def accept(self, service_name: str, payload) -> MessageContext:
        """Stages 1–2: decode *payload* (text, or multipart bytes) and
        read its addressing properties — once; every later stage takes
        them from the context.  Garbage from hostile or broken peers must
        never crash the provider: it is counted, reported, and answered
        with a ``Client`` fault on a context that has no ``request``."""
        try:
            request = SoapEnvelope.from_wire_message(payload)
        except Exception as exc:  # noqa: BLE001 - wire boundary
            reason = f"{type(exc).__name__}: {exc}"
            obs_metrics.inc("server.malformed_requests")
            self.fire_server("malformed-request", service=service_name, reason=reason)
            context = MessageContext(None, service_name)
            self._encode(
                context, SoapEnvelope.for_fault(SoapFault(FaultCode.CLIENT, reason))
            )
            return context
        context = MessageContext(request, service_name)
        try:
            context.maps = MessageAddressingProperties.extract_from(request)
            context.message_id = context.maps.message_id
        except WsaError:
            # not fully addressed: no reply can be routed, but a
            # MessageID alone still buys duplicate suppression
            context.message_id = message_id_of(request)
        return context

    def serve(
        self, service_name: str, payload, reply_maps=None, send=None
    ) -> MessageContext:
        """The server-side message path of every binding (stages 1–9).

        The deployer calls this when a request arrives and says which
        addressing properties the answer carries (*reply_maps*, a pure
        function of the request's) and how it leaves: through
        ``send(epr, wire)`` to the request's ReplyTo, or — no *send* —
        on the open connection, read off the returned context.
        """
        context = self.accept(service_name, payload)
        if context.request is None:
            return context  # no ReplyTo to route by: only a connection can answer
        maps = context.maps
        if maps is not None:
            if reply_maps is not None:
                context.reply_maps = reply_maps(maps)
            if send is not None:
                context.send, context.reply_to = send, maps.reply_to
        self.process_request(service_name, context.request, context)
        if context.reply_to is not None:
            try:
                send(context.reply_to, context.wire)
            except Exception as exc:  # noqa: BLE001 - binding boundary
                # an unroutable ReplyTo, or the node dying mid-dispatch
                # (an injected crash): the answer is lost, visibly
                self.fire_server(
                    "reply-undeliverable", service=service_name, reason=str(exc)
                )
        return context

    def process_request(
        self,
        service_name: str,
        request: SoapEnvelope,
        context: Optional[MessageContext] = None,
    ) -> Optional[SoapEnvelope]:
        """Stages 3–9, the envelope-level core of :meth:`serve`: the app
        sees the raw request (``request-received``), :meth:`_answer`
        produces the one encoded answer, the app sees it on its way out
        (``response-sent``).

        Called with an envelope alone it returns the response envelope
        (a replay is decoded from the retained wire for it);
        :meth:`serve` passes its *context* and reads the answer there.
        """
        direct = context is None
        if direct:
            context = MessageContext(request, service_name)
            context.message_id = message_id_of(request)
        operation = context.operation = (
            request.body_name.local if request.body_name is not None else ""
        )
        message_id = context.message_id
        # E17: continue the caller's trace.  The server span becomes the
        # ambient context for the whole (synchronous) processing window,
        # so anything the handler sends from inside it — replication
        # delta ships above all — is stamped as a child of this span and
        # the client's tree links up across nodes.  The incoming context
        # is the one the MAPs read, when the request was addressed.
        server_trace = None
        if trace_propagation_enabled():
            maps = context.maps
            raw = raw_context_of(request) if maps is None else maps.trace_context
            incoming_trace = trace_decode(raw) if raw else None
            if incoming_trace is not None:
                server_trace = incoming_trace.child()
        trace_fields = trace_event_fields(server_trace)
        obs_metrics.inc("server.requests")
        self.fire_server(
            "request-received",
            service=service_name,
            operation=operation,
            envelope=request,
            message_id=message_id,
            **trace_fields,
        )
        if server_trace is None:
            self._answer(context)
        else:
            with trace_activate(server_trace):
                self._answer(context)
        if context.fault:
            obs_metrics.inc("server.faults")
        self.fire_server(
            "response-sent",
            service=service_name,
            operation=operation,
            fault=context.fault,
            envelope=context.response,
            message_id=message_id,
            **trace_fields,
        )
        if direct and context.response is None:
            context.response = SoapEnvelope.from_wire_message(context.wire)
        return context.response

    def _answer(self, context: MessageContext) -> None:
        """Produce the answer to *context*: each stage either answers
        and returns, or falls through to the next.  Only an executed
        operation's answer is retained; Busy, lag and intercepted
        answers describe provider state, so a retransmission must get a
        fresh decision, never a replay of them."""
        service_name, operation = context.service_name, context.operation
        request, message_id = context.request, context.message_id
        about = {
            "service": service_name, "operation": operation, "message_id": message_id,
        }
        deployed = self._services.get(service_name)

        # at-most-once: a MessageID answered before is not re-executed;
        # the retained wire (maybe multipart bytes, E16) goes out again
        # verbatim — or, for an acknowledged one-way, a fresh ack does
        if deployed is not None and message_id is not None:
            retained = deployed.dedup.get(message_id)
            if retained is not None:
                deployed.duplicates_suppressed += 1
                obs_metrics.inc("server.duplicates_suppressed")
                self.fire_server("duplicate-suppressed", **about)
                self._acknowledge(context)
                context.wire = retained
                context.fault = wire_carries_fault(retained)
                return

        if self.interceptor is not None:
            response = self.interceptor(service_name, request)
            if response is not None:
                obs_metrics.inc("server.intercepted")
                self.fire_server("request-intercepted", **about)
                self._acknowledge(context)
                self._encode(context, response)
                return

        if deployed is None:
            self._encode(
                context,
                SoapEnvelope.for_fault(
                    SoapFault(
                        FaultCode.CLIENT, f"no deployed service named {service_name!r}"
                    )
                ),
            )
            return

        if self.admission is not None:
            admitted, retry_after = self.admission.try_admit()
            if not admitted:
                # shed before any dispatch work — and before the ack: a
                # saturated provider answers cheaply and promises nothing
                self.requests_shed += 1
                obs_metrics.inc("server.requests_shed")
                self.fire_server("request-shed", retry_after=retry_after, **about)
                self._encode(
                    context,
                    SoapEnvelope.for_fault(
                        ServerBusyFault(
                            f"service {service_name!r} is at capacity",
                            retry_after=retry_after,
                        )
                    ),
                )
                return

        # a replication member refuses sessions it cannot serve safely
        # (delta-stream gap or divergence) with a failover-eligible fault
        if deployed.replication is not None:
            guard = deployed.replication.guard_request(request, operation)
            if guard is not None:
                self._encode(context, guard)
                return

        self._acknowledge(context)
        deployed.requests_processed += 1
        obs_metrics.inc("server.dispatched")
        response = deployed.chain.run(
            context, lambda ctx: deployed.dispatcher.dispatch(ctx.request)
        )
        self._encode(context, response)
        if message_id is not None:
            deployed.dedup.remember(message_id, context.wire)
        if deployed.replication is not None:
            deployed.replication.after_execute(
                request, context.wire, message_id, operation
            )

    @staticmethod
    def _encode(context: MessageContext, response: SoapEnvelope) -> None:
        """Stamp the binding's reply MAPs and encode — once: the same
        wire is retained, replicated and shipped."""
        if context.reply_maps is not None:
            context.reply_maps.apply_to(response)
        context.response = response
        context.fault = response.is_fault
        context.wire = response.to_wire_message()

    def _acknowledge(self, context: MessageContext) -> None:
        """WS-RM-lite: acknowledge an ack-requested request down its
        ReplyTo.  Runs once the request is accepted (or recognised as a
        duplicate of one that was), so a shed request is never acked and
        the sender's policy retransmits it; from then on the request is
        one-way — the ack is the only return traffic."""
        reply_to, message_id = context.reply_to, context.message_id
        if reply_to is None or message_id is None or not ack_requested(context.request):
            return
        context.reply_to = None
        try:
            context.send(reply_to, build_ack(message_id, reply_to.address).to_wire())
        except Exception as exc:  # noqa: BLE001 - ack delivery best-effort
            self.fire_server(
                "ack-undeliverable", service=context.service_name, reason=str(exc)
            )
            return
        self.fire_server("ack-sent", service=context.service_name, message_id=message_id)
