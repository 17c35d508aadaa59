"""ServiceDeployers: make a deployed service addressable on a network.

"On the server side, deploying a service involves taking a code source,
generating a service interface description from it ..., and creating an
addressable endpoint which can be used to connect to the source" (§III).
The container does the first two and owns the whole message path
(:meth:`~repro.core.hosting.LightweightContainer.serve`); a deployer
does the third and supplies only what differs between bindings — how a
request arrives, which reply MAPs the answer carries, how it leaves:

:class:`HttpServiceDeployer`
    Over a request/response :class:`~repro.transport.base.Transport`
    (HTTP, or HTTPG when handed an authenticated one).  Launches the
    server *on first deploy* ("the HTTP server is only launched once the
    application has deployed a service", §IV-A), listens on
    ``/services/<Name>`` for SOAP POSTs and ``/services/<Name>.wsdl``
    for interface retrieval.  Answers carry no reply MAPs and leave on
    the open connection: 500 for a fault, 200 otherwise.
:class:`P2psServiceDeployer`
    Creates one input pipe per operation plus the *definition pipe*
    (§IV-B), and assembles the ServiceAdvertisement for publication.
    Answers carry ``To`` / ``Action`` / ``RelatesTo`` and leave down the
    pipe the request's ReplyTo names (Fig. 6); without one, nothing
    returns.
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import DeploymentError
from repro.core.events import EventSource
from repro.core.hosting import DeployedService, LightweightContainer
from repro.core.p2psmap import epr_from_pipe, pipe_from_epr
from repro.p2ps.advertisements import ServiceAdvertisement
from repro.p2ps.peer import Peer
from repro.p2ps.pipes import PipeError
from repro.simnet.network import NetworkError, Node
from repro.soap.attachments import MULTIPART_CONTENT_TYPE
from repro.transport.http import HttpServer, HttpTransport
from repro.transport.uri import Uri
from repro.wsa.epr import EndpointReference, WsaError
from repro.wsa.headers import MessageAddressingProperties
from repro.wsa.p2psuri import make_p2ps_uri
from repro.wsdl.model import (
    SOAP_HTTP_TRANSPORT,
    SOAP_HTTPG_TRANSPORT,
    SOAP_P2PS_TRANSPORT,
)

DEFINITION_PIPE_NAME = "definition"

_WSDL_TRANSPORTS = {"http": SOAP_HTTP_TRANSPORT, "httpg": SOAP_HTTPG_TRANSPORT}


class ServiceDeployer(EventSource):
    """Base deployer: subclasses open endpoints for deployed services."""

    def __init__(self, container: LightweightContainer, parent: Optional[EventSource] = None):
        super().__init__("deployer", parent)
        self.container = container

    def _now(self) -> float:
        return self.container._now()

    def deploy(self, deployed: DeployedService) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def undeploy(self, deployed: DeployedService) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class HttpServiceDeployer(ServiceDeployer):
    """SOAP endpoints under ``/services/`` of a request/response
    transport: plain HTTP by default, authenticated when *transport* is
    an :class:`~repro.transport.httpg.HttpgTransport` (every request —
    the WSDL route included — must then present a CA-verified credential
    before the container sees it)."""

    def __init__(
        self,
        node: Node,
        container: LightweightContainer,
        port: Optional[int] = None,
        parent: Optional[EventSource] = None,
        transport: Optional[HttpTransport] = None,
    ):
        super().__init__(container, parent)
        self.node = node
        self.transport = transport if transport is not None else HttpTransport(node)
        self.port = port if port is not None else self.transport.default_port

    @property
    def server(self) -> HttpServer:
        return self.transport.server_for(self.port)

    def endpoint_uri(self, name: str) -> str:
        return f"{self.transport.scheme}://{self.node.id}:{self.port}/services/{name}"

    def wsdl_uri(self, name: str) -> str:
        return self.endpoint_uri(name) + ".wsdl"

    def deploy(self, deployed: DeployedService) -> None:
        name = deployed.name
        scheme = self.transport.scheme
        deployed.transport = _WSDL_TRANSPORTS[scheme]
        launching = not self.server.started  # no standing container

        def soap_handler(body, headers: dict) -> tuple:
            answer = self.container.serve(name, body)
            out_headers = {"X-Status": "500"} if answer.fault else {}
            if isinstance(answer.wire, bytes):
                out_headers["Content-Type"] = MULTIPART_CONTENT_TYPE
            return answer.wire, out_headers

        def wsdl_handler(body, headers: dict) -> tuple:
            return deployed.wsdl().to_wire(), {"Content-Type": "text/xml"}

        self.transport.listen(Uri.parse(self.endpoint_uri(name)), soap_handler)
        self.transport.listen(Uri.parse(self.wsdl_uri(name)), wsdl_handler)
        if launching:
            self.fire_deployment("http-server-launched", node=self.node.id, port=self.port)
        deployed.add_endpoint(
            EndpointReference(self.endpoint_uri(name)),
            port_name=f"{name}{scheme.capitalize()}Port",
        )
        self.fire_deployment("endpoint-opened", service=name, address=self.endpoint_uri(name))

    def undeploy(self, deployed: DeployedService) -> None:
        name = deployed.name
        self.transport.stop_listening(Uri.parse(self.endpoint_uri(name)))
        self.transport.stop_listening(Uri.parse(self.wsdl_uri(name)))
        self.fire_deployment("endpoint-closed", service=name)
        if not self.server.started:
            self.fire_deployment("http-server-stopped", node=self.node.id)


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
