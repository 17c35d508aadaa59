"""Locator/publisher adapters: the plane behind the classic interfaces.

Application code never sees the ring, the replicas or the cache — it
calls ``wspeer.locate`` / ``wspeer.publish`` exactly as before.  These
adapters subclass the same :class:`~repro.core.locator.ServiceLocator`
/ :class:`~repro.core.publisher.ServicePublisher` bases the standard
binding uses, so they slot into the interface tree via
``register_locator`` / ``register_publisher`` (the paper's "insert
variations into the tree at any level").
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import DeploymentError
from repro.core.events import EventSource
from repro.core.handle import ServiceHandle
from repro.core.hosting import DeployedService
from repro.core.locator import OnComplete, OnFound, ServiceLocator
from repro.core.publisher import ServicePublisher
from repro.core.query import ServiceQuery, UDDIServiceQuery
from repro.discovery.client import DiscoveryClient, DiscoveryError, ResolvedService
from repro.wsa.epr import EndpointReference
from repro.wsdl.parser import parse_wsdl_cached


class DistributedUddiLocator(ServiceLocator):
    """Locates through the discovery plane (cache → replicas → repair)."""

    def __init__(
        self,
        discovery: DiscoveryClient,
        parent: Optional[EventSource] = None,
    ):
        super().__init__(discovery.node.network.kernel, parent)
        self.discovery = discovery
        discovery.on_event = self.fire_discovery

    # -- endpoint staleness: quarantine also evicts from the cache -----
    def mark_endpoint_dead(self, address: str) -> None:
        super().mark_endpoint_dead(address)
        self.discovery.cache.invalidate_endpoint(address)

    def locate_async(
        self, query: ServiceQuery, on_found: OnFound, on_complete: OnComplete = None,
        *, expect: int = 1, timeout: float = 10.0,
    ) -> None:
        """One :meth:`DiscoveryClient.resolve_async`; a cache hit
        completes without any frame.  The plane answers in one sweep, so
        *expect* and *timeout* do not apply."""
        categories = query.categories if isinstance(query, UDDIServiceQuery) else []
        self.fire_discovery("query-issued", query=query.describe(), via="discovery")

        def on_resolved(items: list[ResolvedService], error) -> None:
            if error is not None:
                self._fail(on_complete, "discovery plane unreachable", error)
                return
            found = 0
            for item in items:
                if not item.wsdl_text:
                    self.fire_discovery(
                        "service-skipped", service=item.name, reason="no wsdl in record"
                    )
                    continue
                handle = ServiceHandle(
                    item.name, parse_wsdl_cached(item.wsdl_text),
                    [EndpointReference(address) for address in item.endpoints],
                    source="uddi",
                )
                via = "discovery-cache" if item.from_cache else "discovery"
                found += self._found(handle, on_found, via=via)
            self._complete(query, on_complete, found)

        self.discovery.resolve_async(query.name_pattern, on_resolved, categories)


class DistributedUddiPublisher(ServicePublisher):
    """Publishes into the plane: home shard + replicas + gossip."""

    def __init__(
        self,
        discovery: DiscoveryClient,
        business_name: str = "WSPeer",
        lease_ttl: Optional[float] = None,
        parent: Optional[EventSource] = None,
    ):
        super().__init__(lambda: discovery.node.network.kernel.now, parent)
        self.discovery = discovery
        self.business_name = business_name
        #: default registration lease applied to every publish
        self.lease_ttl = lease_ttl

    def publish(
        self,
        deployed: DeployedService,
        categories: Optional[list[dict]] = None,
        description: str = "",
        ttl: Optional[float] = None,
        **kwargs,
    ) -> None:
        http_endpoint = next(
            (e for e in deployed.endpoints
             if e.address.startswith(("http://", "httpg://"))),
            None,
        )
        if http_endpoint is None:
            raise DeploymentError(
                f"service {deployed.name!r} has no HTTP endpoint to publish"
            )
        wsdl_url = http_endpoint.address + ".wsdl"
        try:
            record = self.discovery.publish(
                self.business_name,
                deployed.name,
                http_endpoint.address,
                wsdl_url=wsdl_url,
                description=description,
                categories=categories,
                ttl=ttl if ttl is not None else self.lease_ttl,
            )
        except DiscoveryError as exc:
            self.fire_publish("publish-failed", service=deployed.name, reason=str(exc))
            raise DeploymentError(f"discovery publication failed: {exc}") from exc
        self.fire_publish(
            "published", service=deployed.name, via="discovery",
            access_point=http_endpoint.address, wsdl=wsdl_url,
            replicas=self.discovery.replicas_for(deployed.name),
            revision=int(record.get("revision", 1)),
        )

    def withdraw(self, deployed: DeployedService) -> None:
        self.discovery.withdraw(deployed.name)
        self.fire_publish("withdrawn", service=deployed.name, via="discovery")
