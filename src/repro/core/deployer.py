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

from repro._exports import exports
from repro.core.events import EventSource
from repro.core.hosting import DeployedService, LightweightContainer
from repro.simnet.network import Node
from repro.soap.attachments import MULTIPART_CONTENT_TYPE
from repro.transport.http import HttpServer, HttpTransport
from repro.transport.uri import Uri
from repro.wsa.epr import EndpointReference
from repro.wsdl.model import SOAP_HTTP_TRANSPORT, SOAP_HTTPG_TRANSPORT

_, __getattr__, __dir__ = exports(__name__, {".p2psmap": ("P2psServiceDeployer",)})

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
        #: the two route URIs of each deployed service, by name
        self._routes: dict[str, tuple[Uri, Uri]] = {}

    @property
    def server(self) -> HttpServer:
        return self.transport.server_for(self.port)

    def endpoint_uri(self, name: str) -> str:
        return f"{self.transport.scheme}://{self.node.id}:{self.port}/services/{name}"

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
            return deployed.wsdl_wire(), {"Content-Type": "text/xml"}

        address = self.endpoint_uri(name)
        soap = Uri.parse(address)
        # both routes are built once and stopped by these objects
        self._routes[name] = routes = (soap, Uri(soap.scheme, soap.host, soap.port, soap.path + ".wsdl"))
        self.transport.listen(routes[0], soap_handler)
        self.transport.listen(routes[1], wsdl_handler)
        if launching:
            self.fire_deployment("http-server-launched", node=self.node.id, port=self.port)
        deployed.add_endpoint(EndpointReference(address), port_name=f"{name}{scheme.capitalize()}Port")
        self.fire_deployment("endpoint-opened", service=name, address=address)

    def undeploy(self, deployed: DeployedService) -> None:
        name = deployed.name
        for route in self._routes.pop(name, ()):
            self.transport.stop_listening(route)
        self.fire_deployment("endpoint-closed", service=name)
        if not self.server.started:
            self.fire_deployment("http-server-stopped", node=self.node.id)
