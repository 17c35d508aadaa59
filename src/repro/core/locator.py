"""ServiceLocators: find services and fetch their descriptions.

"On the client side, locating a service involves retrieving the
endpoint of the service and possibly its interface description as well"
(§III).  Discovery is event-driven, as the paper's core is: a locator
defines only :meth:`ServiceLocator.locate_async`, which notifies
*on_found* per service and *on_complete* once, and the blocking
:meth:`ServiceLocator.locate` pumps virtual time over it.  Two
implementations live here:

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

from functools import partial
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


#: ``on_found(handle)``: one usable service, as it resolves
OnFound = Callable[[ServiceHandle], None]
#: ``on_complete(count, error)``: once, after the last ``on_found``
OnComplete = Optional[Callable[[int, Optional[Exception]], None]]


class ServiceLocator(EventSource):
    """Base locator node of the interface tree.

    A subclass defines discovery once, event-driven, in
    :meth:`locate_async`; the blocking :meth:`locate` pumps the kernel
    over it.
    """

    def __init__(self, kernel, parent: Optional[EventSource] = None):
        super().__init__("locator", parent)
        self._kernel = kernel
        #: endpoint addresses known to be dead — dropped from every
        #: handle this locator returns until a later alive verdict.
        #: Discovery caches go stale the moment a provider leaves (the
        #: paper's transient peers); supervision verdicts are the
        #: freshness signal.
        self._quarantine: set[str] = set()

    def _now(self) -> float:
        return self._kernel.now

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
    ) -> list[ServiceHandle]:
        """Blocking discovery: pump virtual time until :meth:`locate_async`
        completes, then return its handles or raise the error it reported."""
        handles: list[ServiceHandle] = []
        self._kernel.wait(lambda done: self.locate_async(
            query, handles.append, done, expect=expect, timeout=timeout,
        ))
        return handles

    def locate_async(
        self, query: ServiceQuery, on_found: OnFound, on_complete: OnComplete = None,
        *, expect: int = 1, timeout: float = 10.0,
    ) -> None:  # pragma: no cover - abstract
        """Start discovery; nothing in it blocks.  *on_complete* reports
        the number found, or the :class:`DiscoveryError` that ended the
        query.  A locator that hears of services over time (P2PS)
        completes once *expect* have been heard of or *timeout* virtual
        seconds have passed."""
        raise NotImplementedError

    def _found(self, handle: ServiceHandle, on_found: OnFound, **detail) -> bool:
        """Hand *handle* over unless quarantine leaves it no endpoint."""
        if self._filter_quarantined(handle) is None:
            return False
        self.fire_discovery(
            "service-found", service=handle.name,
            endpoints=[e.address for e in handle.endpoints], **detail,
        )
        on_found(handle)
        return True

    def _complete(self, query: ServiceQuery, on_complete: OnComplete, found: int) -> None:
        if not found:
            self.fire_discovery("query-empty", query=query.describe())
        if on_complete is not None:
            on_complete(found, None)

    def _fail(self, on_complete: OnComplete, message: str, error: Exception) -> None:
        """Report *error* as the DiscoveryError ``message: error``."""
        self.fire_discovery("query-failed", reason=str(error))
        if on_complete is not None:
            failure = DiscoveryError(f"{message}: {error}")
            failure.__cause__ = error
            on_complete(0, failure)


class UddiServiceLocator(ServiceLocator):
    """Searches a UDDI registry, then pulls WSDL from the provider."""

    def __init__(
        self,
        node: Node,
        registry_uri: str,
        parent: Optional[EventSource] = None,
        pool=None,
    ):
        from repro.uddi.client import UddiClient

        super().__init__(node.network.kernel, parent)
        self.node = node
        self.http = HttpClient(node, pool=pool)
        self.uddi = UddiClient(node, registry_uri, pool=self.http.pool)

    def locate_async(
        self, query: ServiceQuery, on_found: OnFound, on_complete: OnComplete = None,
        *, expect: int = 1, timeout: float = 10.0,
    ) -> None:
        """One find_service_records, then every usable hit's WSDL GET at
        once.  The registry names every hit in one answer and the HTTP
        client times each exchange: *expect* and *timeout* do not apply."""
        categories = query.categories if isinstance(query, UDDIServiceQuery) else []
        self.fire_discovery("query-issued", query=query.describe(), via="uddi")
        state = {"outstanding": 0, "found": 0}

        def on_wsdl(name, endpoints, uri, response, error) -> None:
            state["outstanding"] -= 1
            if error is None and not response.ok:
                error = TransportError(f"GET {uri} -> {response.status}")
            if error is not None:
                self.fire_discovery("service-skipped", service=name,
                                    reason=f"wsdl fetch failed: {error}")
            elif self._found(ServiceHandle(
                name, parse_wsdl_cached(response.body), endpoints, source="uddi"
            ), on_found, via="uddi"):
                state["found"] += 1
            if state["outstanding"] == 0:
                self._complete(query, on_complete, state["found"])

        def on_records(records, error) -> None:
            if error is not None:
                self._fail(on_complete, "UDDI registry unreachable", error)
                return
            usable = [u for u in map(self._usable, records) if u is not None]
            state["outstanding"] = len(usable)
            if not usable:
                self._complete(query, on_complete, 0)
            for name, endpoints, uri in usable:
                self.http.request_async(
                    uri.host, uri.port or 80, HttpRequest("GET", "/" + uri.path),
                    partial(on_wsdl, name, endpoints, uri),
                )

        self.uddi.call_async(
            "find_service_records", on_records,
            name_pattern=query.name_pattern, category_bag=categories, max_rows=0,
        )

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
