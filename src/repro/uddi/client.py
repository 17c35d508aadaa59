"""Client proxy for a remote UDDI registry node."""

from __future__ import annotations

from typing import Any, Optional

from repro.simnet.network import Node
from repro.soap.rpc import build_rpc_request, extract_rpc_result
from repro.transport.http import HttpClient, HttpRequest
from repro.transport.uri import Uri
from repro.uddi.service import UDDI_NAMESPACE


class UddiClient:
    """Invokes a :class:`UddiRegistryNode` over SOAP/HTTP.

    ``registry_uri`` is the inquiry endpoint, e.g.
    ``http://registry:80/uddi/inquiry`` (what the paper calls a
    "user defined UDDI registry").  *pool* is as for
    :class:`~repro.transport.http.HttpClient`.
    """

    def __init__(
        self, node: Node, registry_uri: str, timeout: Optional[float] = 30.0, pool=None
    ):
        self.node = node
        self.uri = Uri.parse(registry_uri)
        self.http = HttpClient(node, timeout, pool=pool)

    def _build_http_request(self, operation: str, args: dict[str, Any]) -> HttpRequest:
        request = build_rpc_request(UDDI_NAMESPACE, operation, args)
        return HttpRequest(
            "POST",
            "/" + self.uri.path if not self.uri.path.startswith("/") else self.uri.path,
            request.to_wire(),
            {"Content-Type": "text/xml; charset=utf-8", "SOAPAction": operation},
        )

    def call(self, operation: str, **args: Any) -> Any:
        return self.http.network.kernel.wait(
            lambda done: self._exchange(operation, args, done)
        )

    def call_async(self, operation: str, callback, **args: Any) -> None:
        """Asynchronous inquiry: *callback(result, error)* fires later.

        The event-driven path of the paper's §III — nothing blocks while
        the registry answers.
        """
        self._exchange(operation, args, callback)

    def _exchange(self, operation: str, args: dict[str, Any], callback) -> None:
        """One request to the registry; *callback(result, error)* gets the
        RPC result, or the transport error or registry fault."""
        from repro.soap import SoapEnvelope

        def on_response(response, error) -> None:
            if error is not None:
                callback(None, error)
                return
            try:
                result = extract_rpc_result(SoapEnvelope.from_wire(response.body))
            except Exception as exc:  # includes SoapFault
                callback(None, exc)
                return
            callback(result, None)

        self.http.request_async(
            self.uri.host,
            self.uri.port or 80,
            self._build_http_request(operation, args),
            on_response,
        )

    # -- publish conveniences ------------------------------------------------
    def publish_service(
        self,
        business_name: str,
        service_name: str,
        access_point: str,
        wsdl_url: str = "",
        description: str = "",
        categories: Optional[list[dict]] = None,
        ttl: Optional[float] = None,
    ) -> dict[str, Any]:
        """Publication of a WSDL-described service in one exchange.

        One batched ``save_service`` finds (or creates) the business,
        registers the service with its category bag, attaches a
        bindingTemplate for *access_point*, and records the WSDL
        location as a wsdlSpec tModel.  A positive *ttl* puts the
        registration on a lease: unless re-published within that many
        seconds it drops out of inquiries.  Returns the stored record
        (service + business + tModels + revision + remaining lease).
        """
        return self.call(
            "save_service",
            name=service_name,
            description=description,
            category_bag=categories or [],
            ttl=ttl or 0.0,
            business_name=business_name,
            access_point=access_point,
            wsdl_url=wsdl_url,
        )

    # -- replication conveniences (E12) --------------------------------------
    def find_service_records(
        self,
        name_pattern: str = "%",
        categories: Optional[list[dict]] = None,
        max_rows: int = 0,
    ) -> list[dict[str, Any]]:
        """Inquiry returning full replication records in one round trip
        (service + business + tModels + revision + remaining lease)."""
        return self.call(
            "find_service_records",
            name_pattern=name_pattern,
            category_bag=categories or [],
            max_rows=max_rows,
        )

    def import_service(self, record: dict[str, Any]) -> bool:
        return bool(self.call("import_service", record=record))
