"""ServicePublishers: make deployed services findable.

"Publishing the service involves making the service endpoint and/or its
interface description available to the network in some way" (§III).

:class:`UddiServicePublisher`
    Registers the service, its access point, and the WSDL location in a
    UDDI registry — mirroring the client-side UDDI locator (§IV-A).
:class:`P2psServicePublisher`
    Broadcasts the ServiceAdvertisement assembled at deployment into
    the peer group (§IV-B).
"""

from __future__ import annotations

from typing import Optional

from repro._exports import exports
from repro.core.errors import DeploymentError
from repro.core.events import EventSource
from repro.core.hosting import DeployedService
from repro.simnet.network import Node
from repro.transport.base import TransportError

_, __getattr__, __dir__ = exports(__name__, {".p2psmap": ("P2psServicePublisher",)})


class ServicePublisher(EventSource):
    """Base publisher node of the interface tree."""

    def __init__(self, clock, parent: Optional[EventSource] = None):
        super().__init__("publisher", parent)
        self._clock = clock

    def _now(self) -> float:
        return self._clock()

    def publish(self, deployed: DeployedService, **kwargs) -> None:  # pragma: no cover
        raise NotImplementedError


class UddiServicePublisher(ServicePublisher):
    """Publishes endpoint + WSDL URL to a UDDI registry.

    One exchange each way: a batched ``save_service`` publishes, and
    the serviceKey it answers with is kept, so a withdraw is one
    ``delete_service`` by key (by business and name if the key was
    never seen)."""

    def __init__(
        self,
        node: Node,
        registry_uri: str,
        business_name: str = "WSPeer",
        parent: Optional[EventSource] = None,
        pool=None,
    ):
        from repro.uddi.client import UddiClient

        super().__init__(lambda: node.network.kernel.now, parent)
        self.node = node
        self.business_name = business_name
        self.uddi = UddiClient(node, registry_uri, pool=pool)
        #: service name -> the serviceKey its last publish was handed
        self._keys: dict[str, str] = {}

    def publish(
        self,
        deployed: DeployedService,
        categories: Optional[list[dict]] = None,
        description: str = "",
        **kwargs,
    ) -> None:
        http_endpoint = next(
            (e for e in deployed.endpoints if e.address.startswith(("http://", "httpg://"))),
            None,
        )
        if http_endpoint is None:
            raise DeploymentError(
                f"service {deployed.name!r} has no HTTP endpoint to publish to UDDI"
            )
        wsdl_url = http_endpoint.address + ".wsdl"
        try:
            record = self.uddi.publish_service(
                self.business_name,
                deployed.name,
                http_endpoint.address,
                wsdl_url=wsdl_url,
                description=description,
                categories=categories,
            )
        except TransportError as exc:
            self.fire_publish("publish-failed", service=deployed.name, reason=str(exc))
            raise DeploymentError(f"UDDI publication failed: {exc}") from exc
        self._keys[deployed.name] = record["service"]["serviceKey"]
        self.fire_publish(
            "published", service=deployed.name, via="uddi",
            access_point=http_endpoint.address, wsdl=wsdl_url,
        )

    def withdraw(self, deployed: DeployedService) -> None:
        key = self._keys.pop(deployed.name, None)
        if key is not None:
            self.uddi.call("delete_service", service_key=key)
        else:
            self.uddi.call(
                "delete_service", name=deployed.name, business_name=self.business_name
            )
        self.fire_publish("withdrawn", service=deployed.name, via="uddi")
