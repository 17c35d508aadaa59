"""Pluggable transports over the simulated network.

The paper treats transports as "incidental to the environment the Web
service is deployed into".  This package makes that concrete: a
:class:`Transport` SPI with three implementations —

``http``
    Request/response with held-open connections (the standard binding's
    default), full message model with status codes and headers.
``httpg``
    The Globus authenticated-HTTP analogue: same message model behind a
    credential handshake validated against a certificate authority.
``datagram``
    Fire-and-forget one-way frames on a node port, standalone: P2PS
    pipes send their frames through the peer's own node
    (:mod:`repro.p2ps.pipes`), not through this transport.

An :class:`~repro.core.invocation.HttpInvocation` picks its wire by the
endpoint address's scheme from a scheme → transport map of its own;
:class:`TransportRegistry` is the same lookup as a standalone object,
which no invocation node uses.
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".uri": ("Uri", "UriError"),
    ".base": (
        "Transport", "TransportBusyError", "TransportError", "TransportRegistry",
        "TransportTimeoutError",
    ),
    ".http": (
        "HeaderMap", "HttpClient", "HttpRequest", "HttpResponse", "HttpServer",
        "HttpTransport",
    ),
    ".httpg": ("CertificateAuthority", "Credential", "HttpgTransport"),
    ".connection": (
        "ConnectionClosedError", "ConnectionPool", "HttpConnection", "PoolConfig",
    ),
    ".datagram": ("DatagramTransport",),
})
