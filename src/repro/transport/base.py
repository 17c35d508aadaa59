"""Transport SPI and scheme registry."""

from __future__ import annotations

import abc
from typing import Callable, Optional, Union

from repro.transport.uri import Uri

#: a message payload on either side of a transport: decoded text for
#: XML envelopes, raw bytes for E16 multipart/binary wires
WirePayload = Union[str, bytes]


class TransportError(Exception):
    """Base class for transport failures (connection refused, auth, ...)."""


class TransportTimeoutError(TransportError):
    """No response arrived within the caller's (virtual-time) timeout."""


class TransportBusyError(TransportError):
    """The server explicitly shed the request (HTTP 503).

    Carries the server's ``Retry-After`` hint so supervision can back
    off this endpoint for the right amount of time instead of guessing
    — the transport-level twin of the SOAP ``Server.Busy`` fault.
    """

    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


# A server-side handler: (request_body, headers) -> (response_body, headers).
# Bodies are text for XML envelopes, bytes for E16 binary/multipart wires.
ServerHandler = Callable[[WirePayload, dict[str, str]], tuple[WirePayload, dict[str, str]]]
# Completion callback for async requests: (response_body | None, error | None).
ResponseCallback = Callable[[Optional[WirePayload], Optional[Exception]], None]


class Transport(abc.ABC):
    """A way of moving a request message to an endpoint URI and
    (for request/response transports) getting a reply back.

    Implementations are bound to one :class:`~repro.simnet.network.Node`
    — the paper's peer is simultaneously client and server, so a single
    node typically holds several transports.
    """

    #: URI scheme this transport serves, e.g. ``"http"``.
    scheme: str = ""

    @abc.abstractmethod
    def send(
        self,
        endpoint: Uri,
        body: WirePayload,
        headers: Optional[dict[str, str]] = None,
        on_response: Optional[ResponseCallback] = None,
        timeout: Optional[float] = None,
    ) -> None:
        """Send *body* to *endpoint*.

        Asynchronous: *on_response* fires when the reply (or failure)
        arrives.  One-way transports invoke it immediately with
        ``(None, None)`` after the frame leaves.  *timeout* bounds this
        one exchange only — it must never mutate shared client state.
        """

    @abc.abstractmethod
    def listen(self, address: Uri, handler: ServerHandler) -> None:
        """Start accepting requests addressed to *address*."""

    @abc.abstractmethod
    def stop_listening(self, address: Uri) -> None:
        """Stop accepting requests at *address*."""


class TransportRegistry:
    """scheme → :class:`Transport` lookup, standalone (an invocation
    node keeps its own scheme map)."""

    def __init__(self) -> None:
        self._by_scheme: dict[str, Transport] = {}

    def register(self, transport: Transport) -> None:
        if not transport.scheme:
            raise TransportError("transport has no scheme")
        self._by_scheme[transport.scheme] = transport

    def lookup(self, scheme: str) -> Transport:
        try:
            return self._by_scheme[scheme]
        except KeyError:
            raise TransportError(f"no transport registered for scheme {scheme!r}") from None

    @property
    def schemes(self) -> list[str]:
        return sorted(self._by_scheme)
