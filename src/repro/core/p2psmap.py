"""The P2PS binding's stack (§IV-B): the PipeAdvertisement ⇄
EndpointReference mapping and the four components built on it.

The paper's serialisation rules, implemented verbatim:

1. The EPR ``Address`` is ``p2ps://<peer-id>/<service-name>`` — peer id
   plus the name of the ServiceAdvertisement the pipe belongs to; for a
   pipe with no service (a reply channel) just ``p2ps://<peer-id>``.
2. The EPR ``ReferenceProperties`` carry the other advert fields,
   including the pipe name (and id/type, which the advert needs to be
   reconstructible).
3. On a SOAP invocation, ``To`` ← the Address URI and ``Action`` ← the
   Address URI plus a fragment naming the pipe; the
   ReferenceProperties are copied directly into the SOAP header.

:class:`P2psServiceDeployer`, :class:`P2psServicePublisher`,
:class:`P2psServiceLocator` and :class:`P2psInvocation` live here, beside
the mapping they run on every message, so that the P2PS stack loads with
a :class:`~repro.core.binding.P2psBinding` and a standard peer never
loads it.  :mod:`~repro.core.deployer`, :mod:`~repro.core.publisher`,
:mod:`~repro.core.locator` and :mod:`~repro.core.invocation` serve them
under their old names.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from repro.caching import ArtifactCache
from repro.core.deployer import DEFINITION_PIPE_NAME, ServiceDeployer
from repro.core.errors import DeploymentError, DiscoveryError, InvocationError
from repro.core.events import EventSource
from repro.core.handle import ServiceHandle
from repro.core.hosting import DeployedService, LightweightContainer
from repro.core.invocation import _NAIVE, Invocation
from repro.core.locator import OnComplete, OnFound, ServiceLocator
from repro.core.publisher import ServicePublisher
from repro.core.query import P2PSServiceQuery, ServiceQuery
from repro.p2ps.advertisements import (
    AdvertError,
    PipeAdvertisement,
    ServiceAdvertisement,
)
from repro.p2ps.peer import Peer
from repro.p2ps.pipes import PipeError
from repro.p2ps.query import AdvertQuery
from repro.reliability import OnewayStatus, ReliabilityPolicy
from repro.simnet.network import NetworkError
from repro.soap.envelope import SoapEnvelope
from repro.wsa.epr import EndpointReference, WsaError
from repro.wsa.headers import MessageAddressingProperties, new_message_id
from repro.wsa.p2psuri import make_p2ps_uri, parse_p2ps_uri
from repro.wsdl.model import SOAP_P2PS_TRANSPORT
from repro.wsdl.parser import parse_wsdl_cached
from repro.xmlkit import ns

#: the struct of leaves every pipe EPR carries: ``p2ps:PipeId``,
#: ``p2ps:PipeName``, ``p2ps:PipeType``, each declaring its prefix
_PIPE_SHAPE = tuple(
    ((ns.P2PS, local, "p2ps"), (("p2ps", ns.P2PS),))
    for local in ("PipeId", "PipeName", "PipeType")
)


def epr_from_pipe(advert: PipeAdvertisement) -> EndpointReference:
    """Serialise a pipe advertisement to an EndpointReference (value-
    backed: no element is built unless someone reads its properties)."""
    address = make_p2ps_uri(advert.peer_id, advert.service_name)
    return EndpointReference.from_texts(
        address, _PIPE_SHAPE, [advert.pipe_id, advert.name, advert.pipe_type]
    )


def pipe_from_epr(epr: EndpointReference) -> PipeAdvertisement:
    """Reconstruct the pipe advertisement from an EndpointReference;
    a value-backed one is read without growing it."""
    address = parse_p2ps_uri(epr.address)
    pipe_id = epr.property_text("PipeId")
    pipe_name = epr.property_text("PipeName")
    pipe_type = epr.property_text("PipeType", "input")
    if not pipe_id:
        raise WsaError(f"EPR {epr.address} carries no PipeId reference property")
    try:
        return PipeAdvertisement(
            pipe_id, pipe_name, address.peer_id, pipe_type, address.service_name
        )
    except AdvertError as exc:
        raise WsaError(f"EPR does not map to a pipe: {exc}") from exc


def action_for_pipe(advert: PipeAdvertisement) -> str:
    """The wsa:Action for invoking down *advert*: address + #pipe-name."""
    return make_p2ps_uri(advert.peer_id, advert.service_name, advert.name)


class P2psServiceDeployer(ServiceDeployer):
    """SOAP-over-pipes endpoints: one pipe per operation + definition pipe."""

    def __init__(
        self,
        peer: Peer,
        container: LightweightContainer,
        parent: Optional[EventSource] = None,
    ):
        super().__init__(container, parent)
        self.peer = peer
        self.adverts: dict[str, ServiceAdvertisement] = {}
        self._pipe_ids: dict[str, list[str]] = {}

    def deploy(self, deployed: DeployedService) -> None:
        name = deployed.name
        deployed.transport = SOAP_P2PS_TRANSPORT
        pipe_ids: list[str] = []

        def on_request(payload, meta: dict) -> None:
            self.container.serve(name, payload, self._reply_maps, self._send)

        def on_definition_request(payload, meta: dict) -> None:
            # definition pipe protocol: a SOAP request whose ReplyTo names
            # the pipe to stream the WSDL text back down
            maps = self.container.accept(name, payload).maps
            if maps is None or maps.reply_to is None:
                return
            try:
                self._send(maps.reply_to, deployed.wsdl().to_wire())
            except (WsaError, PipeError, NetworkError) as exc:
                self.fire_server("reply-undeliverable", service=name, reason=str(exc))

        for op_name in deployed.service.operation_names:
            _, advert = self.peer.create_input_pipe(
                op_name, service_name=name, listener=on_request
            )
            pipe_ids.append(advert.pipe_id)
            deployed.add_endpoint(epr_from_pipe(advert), port_name=f"{name}-{op_name}")

        _, def_advert = self.peer.create_input_pipe(
            DEFINITION_PIPE_NAME, service_name=name, listener=on_definition_request
        )
        pipe_ids.append(def_advert.pipe_id)

        advert = ServiceAdvertisement(
            name,
            self.peer.id,
            pipes=[
                self.peer.cache.get(f"pipe:{pid}")  # type: ignore[misc]
                for pid in pipe_ids
            ],
            definition_pipe=DEFINITION_PIPE_NAME,
            attributes={"namespace": deployed.namespace},
        )
        self.adverts[name] = advert
        self._pipe_ids[name] = pipe_ids
        self.fire_deployment(
            "pipes-opened", service=name, pipes=len(pipe_ids),
            address=make_p2ps_uri(self.peer.id, name),
        )

    def undeploy(self, deployed: DeployedService) -> None:
        name = deployed.name
        for pipe_id in self._pipe_ids.pop(name, []):
            self.peer.close_input_pipe(pipe_id)
        self.adverts.pop(name, None)
        self.fire_deployment("pipes-closed", service=name)

    def advert_for(self, name: str) -> ServiceAdvertisement:
        advert = self.adverts.get(name)
        if advert is None:
            raise DeploymentError(f"service {name!r} is not deployed over P2PS")
        return advert

    # -- what this binding supplies to the hosting pipeline (Fig. 6) -------
    @staticmethod
    def _reply_maps(
        maps: MessageAddressingProperties,
    ) -> Optional[MessageAddressingProperties]:
        """Correlate the answer with its request (steps 5/6)."""
        if maps.reply_to is None:
            return None  # one-way invocation: nothing to return
        return MessageAddressingProperties(
            to=maps.reply_to.address,
            action=f"{maps.action}Response",
            relates_to=maps.message_id,
        )

    def _send(self, reply_to: EndpointReference, wire) -> None:
        """Convert the ReplyTo endpoint reference to a pipe advertisement,
        request the return pipe and send *wire* down it (steps 2/4/6)."""
        out_pipe = self.peer.open_output_pipe(pipe_from_epr(reply_to))
        self.peer.send_down_pipe(out_pipe, wire)


class P2psServicePublisher(ServicePublisher):
    """Broadcasts the service advertisement into the peer group."""

    def __init__(
        self,
        peer: Peer,
        deployer: P2psServiceDeployer,
        parent: Optional[EventSource] = None,
    ):
        super().__init__(lambda: peer.network.kernel.now, parent)
        self.peer = peer
        self.deployer = deployer

    def publish(self, deployed: DeployedService, **kwargs) -> None:
        advert = self.deployer.advert_for(deployed.name)
        self.peer.publish(advert)
        self.fire_publish(
            "published", service=deployed.name, via="p2ps",
            advert=advert.key(), pipes=len(advert.pipes),
        )

    def withdraw(self, deployed: DeployedService) -> None:
        advert = self.deployer.adverts.get(deployed.name)
        if advert is not None:
            self.peer.cache.remove(advert.key())
        self.fire_publish("withdrawn", service=deployed.name, via="p2ps")


class P2psServiceLocator(ServiceLocator):
    """Discovers ServiceAdvertisements in the peer group."""

    def __init__(self, peer: Peer, parent: Optional[EventSource] = None):
        super().__init__(peer.network.kernel, parent)
        self.peer = peer

    def locate_async(
        self, query: ServiceQuery, on_found: OnFound, on_complete: OnComplete = None,
        *, expect: int = 1, timeout: float = 10.0,
    ) -> None:
        """Flood the query; fetch each advert's definition as it arrives.

        Arrival closes once *expect* adverts have arrived (with the rest
        of the batch that brought the last one) or *timeout* has passed;
        later adverts are ignored.  It completes when arrival is closed
        and every definition fetch started has settled.
        """
        kernel = self._kernel
        p2ps = isinstance(query, P2PSServiceQuery)
        advert_query = AdvertQuery(
            "service", query.name_pattern, query.attributes if p2ps else {}
        )
        self.fire_discovery("query-issued", query=query.describe(), via="p2ps")
        #: closed: kernel.events_fired when arrival closed (None: open)
        state: dict[str, Any] = {"adverts": 0, "fetching": 0, "found": 0, "closed": None}

        def close() -> None:
            timer.cancel()
            self.peer.end_query(handle.query_id)
            state["closed"] = kernel.events_fired
            settle()

        def settle() -> None:
            if state["closed"] is not None and not state["fetching"]:
                self._complete(query, on_complete, state["found"])

        def on_advert(advert: ServiceAdvertisement) -> None:
            if state["closed"] not in (None, kernel.events_fired):
                return
            state["adverts"] += 1
            state["fetching"] += 1
            # in an event of its own, once the batch that brought it (and
            # the peer adverts that locate its provider) is in
            kernel.call_soon(self._fetch_definition, advert, timeout,
                             partial(on_definition, advert))
            if state["closed"] is None and state["adverts"] >= expect:
                close()

        def on_definition(advert: ServiceAdvertisement, wsdl_text, error) -> None:
            state["fetching"] -= 1
            if error is not None:
                self.fire_discovery("service-skipped", service=advert.name,
                                    reason=f"definition fetch failed: {error}")
            elif self._found(ServiceHandle(
                advert.name, parse_wsdl_cached(wsdl_text),
                [epr_from_pipe(pipe) for pipe in advert.pipes
                 if pipe.name != advert.definition_pipe],
                source="p2ps", attributes=dict(advert.attributes),
            ), on_found, via="p2ps", provider=advert.peer_id):
                state["found"] += 1
            settle()

        timer = kernel.schedule(timeout, close)
        handle = self.peer.discover(advert_query, ttl=query.ttl if p2ps else None)
        handle.on_result(on_advert)

    def _fetch_definition(
        self, advert: ServiceAdvertisement, timeout: float,
        done: Callable[[Optional[str], Optional[Exception]], None],
    ) -> None:
        """Pull the WSDL through the definition pipe (§IV-B).

        Sends a header-only SOAP request with a fresh reply pipe as
        ReplyTo; *done(text, error)* fires once.  The answer and the
        *timeout* timer race: the first cancels the timer and closes the
        reply pipe.
        """
        definition = advert.pipe_named(advert.definition_pipe or DEFINITION_PIPE_NAME)
        if definition is None:
            done(None, DiscoveryError(f"advert {advert.name!r} has no definition pipe"))
            return
        try:
            out_pipe = self.peer.open_output_pipe(definition)
        except PipeError as exc:  # a provider never heard from
            done(None, exc)
            return
        reply_pipe, reply_advert = self.peer.create_input_pipe("reply-definition")

        def settle(text: Optional[str], error: Optional[Exception]) -> None:
            timer.cancel()
            self.peer.close_input_pipe(reply_advert.pipe_id)
            done(text, error)

        reply_pipe.add_listener(lambda payload, meta: settle(payload, None))
        timer = self._kernel.schedule(timeout, settle, None, DiscoveryError(
            f"definition pipe of {advert.name!r} did not answer"
        ))
        request = SoapEnvelope()
        maps = MessageAddressingProperties(
            to=epr_from_pipe(definition).address,
            action=f"{epr_from_pipe(definition).address}#{DEFINITION_PIPE_NAME}",
            reply_to=epr_from_pipe(reply_advert),
            message_id=new_message_id(),
        )
        maps.apply_to(request)
        try:
            self.peer.send_down_pipe(out_pipe, request.to_wire())
        except PipeError as exc:  # the local node is down
            settle(None, exc)


#: a pipe EPR's (address, property shape, *property texts) -> its
#: (PipeAdvertisement, wsa:Action); a WsaError is not cached
_pipe_targets = ArtifactCache("p2ps-targets", max_entries=256)


def _pipe_target(endpoint: EndpointReference) -> tuple:
    """The pipe *endpoint* names and the ``wsa:Action`` to send down it,
    mapped once per struct of leaves (any other EPR every time)."""
    leaves = endpoint.leaves()
    key = None if leaves is None else (endpoint.address, leaves[0], *leaves[1])
    found = None if key is None else _pipe_targets.get(key)
    if found is None:
        target = pipe_from_epr(endpoint)
        found = (target, action_for_pipe(target))
        if key is not None:
            _pipe_targets.put(key, found)
    return found


class _PipeHop:
    """Last hop over P2PS pipes — the consumer flow of Fig. 5.

    Step 1: request an input pipe and its advertisement; 2/3: serialise
    the advert to the WS-Addressing ``ReplyTo`` of the request; 4: listen
    on it; 5: send SOAP down the provider's pipe.  A bare one-way skips
    1–4, so the provider does not answer (Fig. 6 short-circuits).  Pipes
    are one-way and give no delivery signal: each send arms a timer that
    reports silence as that attempt's error.
    """

    reply_to = None

    def __init__(
        self, peer: Peer, endpoint: EndpointReference, operation: str,
        reply: Optional[str],
    ):
        self._peer = peer
        self._whom = (endpoint.address, operation)
        target, self.action = _pipe_target(endpoint)
        # resolved per call, never cached: a peer that moved is found
        # again on the next call
        self._out = peer.open_output_pipe(target)
        self._in_id: Optional[str] = None
        self._timer = None
        self._on_reply = None
        self._sends = 0
        if reply is not None:
            pipe, advert = peer.create_input_pipe(f"{reply}-{operation}")
            pipe.add_listener(lambda payload, meta: self._on_reply(payload, None))
            self._in_id = advert.pipe_id
            self.reply_to = epr_from_pipe(advert)

    def send(self, wire, on_reply, timeout: Optional[float]) -> None:
        self._disarm()
        self._on_reply = on_reply
        self._sends += 1
        try:
            self._peer.send_down_pipe(self._out, wire)
        except PipeError as exc:  # the local node is down
            raise InvocationError(str(exc)) from exc
        if self.reply_to is None:
            on_reply(None, None)  # nothing comes back: sent is done
        elif timeout is not None:
            self._timer = self._peer.network.kernel.schedule(
                timeout, self._silence, on_reply, timeout
            )

    def _silence(self, on_reply, timeout: float) -> None:
        address, operation = self._whom
        on_reply(None, InvocationError(
            f"no response from {address} for {operation!r} after {self._sends} "
            f"attempt(s) of {timeout}s"
        ))

    def _disarm(self) -> None:
        if self._timer is not None:
            self._timer.cancel()  # a no-op once the timer has fired

    def close(self) -> None:
        self._disarm()
        if self._in_id is not None:
            self._peer.close_input_pipe(self._in_id)


class P2psInvocation(Invocation):
    """SOAP over P2PS pipes.

    Reliability here is retransmission: when an attempt's timer lapses
    the same request (same MessageID) is re-sent after the policy's
    backoff; the provider suppresses duplicate execution and replays its
    retained response, so retries are safe even for non-idempotent
    operations.
    """

    schemes = ("p2ps",)

    def __init__(
        self,
        peer: Peer,
        parent: Optional[EventSource] = None,
        default_policy: Optional[ReliabilityPolicy] = None,
    ):
        super().__init__(peer.network.kernel, parent, default_policy=default_policy)
        self.peer = peer

    def _resolve(self, handle: ServiceHandle, operation: str) -> EndpointReference:
        for endpoint in handle.endpoints:
            if not endpoint.address.startswith("p2ps://"):
                continue
            if endpoint.property_text("PipeName") == operation:
                return endpoint
        raise InvocationError(
            f"service {handle.name!r} has no p2ps pipe for operation {operation!r}"
        )

    def _open_hop(
        self, endpoint: EndpointReference, operation: str, reply: Optional[str]
    ) -> _PipeHop:
        return _PipeHop(self.peer, endpoint, operation, reply)

    def invoke_oneway(
        self,
        handle: ServiceHandle,
        operation: str,
        args: Optional[dict[str, Any]] = None,
        policy: Optional[ReliabilityPolicy] = None,
        timeout: Optional[float] = None,
        **kwargs: Any,
    ) -> Optional[OnewayStatus]:
        """True one-way: no reply pipe is created and no ReplyTo header
        is sent, so the provider does not answer.  Nothing is awaited,
        so a failure to send raises here.

        With an acknowledgement-requesting policy (``policy.ack``), the
        WS-RM-lite handshake runs instead: an ack pipe is opened, the
        request carries ``rm:AckRequested`` and is retransmitted (same
        MessageID) until the provider's ack frame arrives or attempts
        run out; the returned :class:`OnewayStatus` tracks the outcome,
        errors included.  Acks are opt-in per call or per policy — a
        bare oneway stays a single fire-and-forget frame.
        """
        all_args = dict(args or {})
        all_args.update(kwargs)
        if policy is None:
            policy = self.default_policy or _NAIVE
        if not policy.ack:
            outcome: list[Optional[Exception]] = []
            self._run(
                handle, operation, all_args,
                lambda result, error: outcome.append(error),
                timeout, policy, oneway=True,
            )
            if outcome and outcome[0] is not None:
                raise outcome[0]
            return None
        status = OnewayStatus(message_id=new_message_id())

        def conclude(result: Any, error: Optional[Exception]) -> None:
            if error is None:
                status.acked = True
                status.acked_at = self._now()
            else:
                status.error = error
            status._conclude()

        self._run(
            handle, operation, all_args, conclude,
            timeout if timeout is not None else 1.0, policy,
            message_id=status.message_id, oneway=True, status=status,
        )
        return status
