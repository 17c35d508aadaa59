"""ServiceLocators: find services and fetch their descriptions.

"On the client side, locating a service involves retrieving the
endpoint of the service and possibly its interface description as well"
(§III).  Two implementations:

:class:`UddiServiceLocator`
    Queries a UDDI registry (the "UDDI conversant component"), then
    fetches the WSDL over HTTP from the provider's ``.wsdl`` route.
:class:`P2psServiceLocator`
    Floods an attribute-based query into the peer group, converts the
    returned ServiceAdvertisements into handles with per-operation pipe
    EPRs, and retrieves the WSDL through the *definition pipe*.

Both produce :class:`~repro.core.handle.ServiceHandle` objects, so the
application never touches wire formats.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro._exports import exports
from repro.core.errors import DiscoveryError
from repro.core.events import EventSource
from repro.core.handle import ServiceHandle
from repro.core.query import ServiceQuery, UDDIServiceQuery
from repro.simnet.network import Node
from repro.transport.base import TransportError
from repro.transport.http import HttpClient, HttpRequest
from repro.transport.uri import Uri
from repro.wsa.epr import EndpointReference
from repro.wsdl.parser import parse_wsdl_cached

_, __getattr__, __dir__ = exports(__name__, {".p2psmap": ("P2psServiceLocator",)})


def _get(uri: Uri) -> HttpRequest:
    return HttpRequest("GET", "/" + uri.path)


class ServiceLocator(EventSource):
    """Base locator node of the interface tree."""

    def __init__(self, clock, parent: Optional[EventSource] = None):
        super().__init__("locator", parent)
        self._clock = clock
        #: endpoint addresses known to be dead — dropped from every
        #: handle this locator returns until a later alive verdict.
        #: Discovery caches go stale the moment a provider leaves (the
        #: paper's transient peers); supervision verdicts are the
        #: freshness signal.
        self._quarantine: set[str] = set()

    def _now(self) -> float:
        return self._clock()

    # -- endpoint staleness ------------------------------------------------
    @property
    def quarantined(self) -> frozenset[str]:
        return frozenset(self._quarantine)

    def mark_endpoint_dead(self, address: str) -> None:
        if address not in self._quarantine:
            self._quarantine.add(address)
            self.fire_discovery("endpoint-quarantined", endpoint=address)

    def mark_endpoint_alive(self, address: str) -> None:
        if address in self._quarantine:
            self._quarantine.discard(address)
            self.fire_discovery("endpoint-restored", endpoint=address)

    def watch_health(self, monitor) -> None:
        """Feed a :class:`~repro.supervision.health.HealthMonitor`'s
        dead/alive verdicts into this locator's quarantine."""
        from repro.supervision.health import DEAD

        def on_verdict(address: str, verdict: str) -> None:
            if verdict == DEAD:
                self.mark_endpoint_dead(address)
            else:
                self.mark_endpoint_alive(address)

        monitor.add_verdict_listener(on_verdict)

    def _filter_quarantined(
        self, handle: Optional[ServiceHandle]
    ) -> Optional[ServiceHandle]:
        """Strip quarantined EPRs from *handle*; None when none remain."""
        if handle is None or not self._quarantine:
            return handle
        for endpoint in list(handle.endpoints):
            if endpoint.address in self._quarantine:
                handle.drop_endpoint(endpoint.address)
        if not handle.endpoints:
            self.fire_discovery(
                "service-skipped", service=handle.name,
                reason="all endpoints quarantined",
            )
            return None
        return handle

    def locate(
        self, query: ServiceQuery, timeout: float = 10.0, expect: int = 1
    ) -> list[ServiceHandle]:  # pragma: no cover - abstract
        raise NotImplementedError


class UddiServiceLocator(ServiceLocator):
    """Searches a UDDI registry, then pulls WSDL from the provider."""

    def __init__(
        self,
        node: Node,
        registry_uri: str,
        parent: Optional[EventSource] = None,
        timeout: float = 30.0,
        pool=None,
    ):
        from repro.uddi.client import UddiClient

        super().__init__(lambda: node.network.kernel.now, parent)
        self.node = node
        self.http = HttpClient(node, timeout, pool=pool)
        self.uddi = UddiClient(node, registry_uri, timeout, pool=self.http.pool)

    def locate(
        self, query: ServiceQuery, timeout: float = 10.0, expect: int = 1
    ) -> list[ServiceHandle]:
        categories = query.categories if isinstance(query, UDDIServiceQuery) else []
        self.fire_discovery("query-issued", query=query.describe(), via="uddi")
        try:
            records = self.uddi.find_service_records(query.name_pattern, categories)
        except TransportError as exc:
            self.fire_discovery("query-failed", reason=str(exc))
            raise DiscoveryError(f"UDDI registry unreachable: {exc}") from exc
        handles: list[ServiceHandle] = []
        for record in records:
            usable = self._usable(record)
            if usable is None:
                continue
            name, endpoints, uri = usable
            try:
                response = self.http.request(uri.host, uri.port or 80, _get(uri))
                if not response.ok:
                    raise TransportError(f"GET {uri} -> {response.status}")
            except TransportError as exc:
                self.fire_discovery("service-skipped", service=name,
                                    reason=f"wsdl fetch failed: {exc}")
                continue
            handle = self._handle(name, endpoints, response.body, "uddi")
            if handle is not None:
                handles.append(handle)
        if not handles:
            self.fire_discovery("query-empty", query=query.describe())
        return handles

    def _usable(self, record: dict) -> Optional[tuple[str, list[EndpointReference], Uri]]:
        """(name, endpoints, WSDL location) of a find_service_records hit, or
        None when it has no binding or no wsdlSpec tModel to fetch."""
        service = record["service"]
        endpoints = [EndpointReference(b["accessPoint"]) for b in service["bindingTemplates"]]
        if not endpoints:
            return None
        wsdl_url = next((t["overviewURL"] for t in record["tModels"] if t["overviewURL"]), "")
        if not wsdl_url:
            self.fire_discovery("service-skipped", service=service["name"],
                                reason="no wsdlSpec tModel")
            return None
        return service["name"], endpoints, Uri.parse(wsdl_url)

    def _handle(
        self, name: str, endpoints: list[EndpointReference], wsdl_text: str, via: str
    ) -> Optional[ServiceHandle]:
        handle = self._filter_quarantined(
            ServiceHandle(name, parse_wsdl_cached(wsdl_text), endpoints, source="uddi")
        )
        if handle is not None:
            self.fire_discovery(
                "service-found", service=name, via=via,
                endpoints=[e.address for e in handle.endpoints],
            )
        return handle

    # ------------------------------------------------------------------
    def locate_async(
        self,
        query: ServiceQuery,
        on_found: Callable[[ServiceHandle], None],
        on_complete: Optional[Callable[[int, Optional[Exception]], None]] = None,
    ) -> None:
        """Event-driven UDDI discovery: no call in the chain blocks.

        One find_service_records, then a WSDL GET per usable service,
        entirely through callbacks; *on_found* fires per usable service
        as its WSDL lands, *on_complete(count, error)* once the whole
        sweep settles.
        """
        categories = query.categories if isinstance(query, UDDIServiceQuery) else []
        self.fire_discovery("query-issued", query=query.describe(), via="uddi-async")
        state = {"outstanding": 0, "found": 0}

        def settle() -> None:
            if state["outstanding"] == 0:
                if state["found"] == 0:
                    self.fire_discovery("query-empty", query=query.describe())
                if on_complete is not None:
                    on_complete(state["found"], None)

        def fetch(name, endpoints, uri) -> None:
            def on_wsdl(response, error) -> None:
                state["outstanding"] -= 1
                if error is not None or not response.ok:
                    self.fire_discovery("service-skipped", service=name,
                                        reason="wsdl fetch failed")
                else:
                    handle = self._handle(name, endpoints, response.body, "uddi-async")
                    if handle is not None:
                        state["found"] += 1
                        on_found(handle)
                settle()

            self.http.request_async(uri.host, uri.port or 80, _get(uri), on_wsdl)

        def on_records(records, error) -> None:
            if error is not None:
                self.fire_discovery("query-failed", reason=str(error))
                if on_complete is not None:
                    on_complete(0, error)
                return
            usable = [u for u in map(self._usable, records) if u is not None]
            state["outstanding"] = len(usable)
            if not usable:
                settle()
            for item in usable:
                fetch(*item)

        self.uddi.call_async(
            "find_service_records", on_records,
            name_pattern=query.name_pattern, category_bag=categories,
        )
