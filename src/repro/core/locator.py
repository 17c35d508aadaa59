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

from repro.core.deployer import DEFINITION_PIPE_NAME
from repro.core.errors import DiscoveryError
from repro.core.events import EventSource
from repro.core.handle import ServiceHandle
from repro.core.p2psmap import epr_from_pipe
from repro.core.query import P2PSServiceQuery, ServiceQuery, UDDIServiceQuery
from repro.p2ps.advertisements import ServiceAdvertisement
from repro.p2ps.peer import Peer
from repro.p2ps.query import AdvertQuery
from repro.simnet.kernel import SimTimeoutError
from repro.simnet.network import Node
from repro.soap.envelope import SoapEnvelope
from repro.transport.base import TransportError
from repro.transport.http import HttpClient, HttpRequest
from repro.transport.uri import Uri
from repro.uddi.client import UddiClient
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageAddressingProperties, new_message_id
from repro.wsdl.parser import parse_wsdl_cached


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


class P2psServiceLocator(ServiceLocator):
    """Discovers ServiceAdvertisements in the peer group."""

    def __init__(self, peer: Peer, parent: Optional[EventSource] = None):
        super().__init__(lambda: peer.network.kernel.now, parent)
        self.peer = peer

    def locate(
        self, query: ServiceQuery, timeout: float = 10.0, expect: int = 1
    ) -> list[ServiceHandle]:
        attributes = query.attributes if isinstance(query, P2PSServiceQuery) else {}
        ttl = query.ttl if isinstance(query, P2PSServiceQuery) else None
        advert_query = AdvertQuery("service", query.name_pattern, attributes)
        self.fire_discovery("query-issued", query=query.describe(), via="p2ps")
        handle = self.peer.discover(advert_query, ttl=ttl)
        adverts = handle.wait_for(expect, timeout=timeout)
        handles = []
        for advert in adverts:
            if isinstance(advert, ServiceAdvertisement):
                service_handle = self._handle_from_advert(advert, timeout)
                if service_handle is not None:
                    handles.append(service_handle)
                    self.fire_discovery(
                        "service-found", service=advert.name, via="p2ps",
                        provider=advert.peer_id,
                    )
        if not handles:
            self.fire_discovery("query-empty", query=query.describe())
        return handles

    def locate_async(
        self,
        query: ServiceQuery,
        on_found: Callable[[ServiceHandle], None],
        timeout: float = 10.0,
    ) -> None:
        """Event-driven variant: *on_found* fires per discovered service."""
        attributes = query.attributes if isinstance(query, P2PSServiceQuery) else {}
        advert_query = AdvertQuery("service", query.name_pattern, attributes)
        self.fire_discovery("query-issued", query=query.describe(), via="p2ps")
        handle = self.peer.discover(advert_query)

        def on_advert(advert):  # type: ignore[no-untyped-def]
            if isinstance(advert, ServiceAdvertisement):
                service_handle = self._handle_from_advert(advert, timeout)
                if service_handle is not None:
                    self.fire_discovery(
                        "service-found", service=advert.name, via="p2ps",
                        provider=advert.peer_id,
                    )
                    on_found(service_handle)

        handle.on_result(on_advert)

    # ------------------------------------------------------------------
    def _handle_from_advert(
        self, advert: ServiceAdvertisement, timeout: float
    ) -> Optional[ServiceHandle]:
        endpoints = [
            epr_from_pipe(pipe)
            for pipe in advert.pipes
            if pipe.name != advert.definition_pipe
        ]
        try:
            wsdl_text = self._fetch_definition(advert, timeout)
        except (DiscoveryError, Exception) as exc:  # noqa: BLE001
            self.fire_discovery(
                "service-skipped", service=advert.name,
                reason=f"definition fetch failed: {exc}",
            )
            return None
        return self._filter_quarantined(
            ServiceHandle(
                advert.name,
                parse_wsdl_cached(wsdl_text),
                endpoints,
                source="p2ps",
                attributes=dict(advert.attributes),
            )
        )

    def _fetch_definition(self, advert: ServiceAdvertisement, timeout: float) -> str:
        """Pull the WSDL through the definition pipe (§IV-B).

        Sends a header-only SOAP request with our reply pipe as ReplyTo
        and pumps until the WSDL text arrives back down it.
        """
        definition = advert.pipe_named(advert.definition_pipe or DEFINITION_PIPE_NAME)
        if definition is None:
            raise DiscoveryError(f"advert {advert.name!r} has no definition pipe")
        out_pipe = self.peer.open_output_pipe(definition)
        reply_pipe, reply_advert = self.peer.create_input_pipe("reply-definition")
        box: dict[str, str] = {}
        reply_pipe.add_listener(lambda payload, meta: box.setdefault("wsdl", payload))
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
            self.peer.network.kernel.pump_until(lambda: "wsdl" in box, timeout=timeout)
        except SimTimeoutError as exc:
            raise DiscoveryError(
                f"definition pipe of {advert.name!r} did not answer"
            ) from exc
        finally:
            self.peer.close_input_pipe(reply_advert.pipe_id)
        return box["wsdl"]
