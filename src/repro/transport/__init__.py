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
    Fire-and-forget one-way frames; the raw material P2PS pipes are
    built from.

A :class:`TransportRegistry` maps URI schemes to transports so an
:class:`~repro.core.invocation.Invocation` can pick its wire by looking
at the endpoint address alone.
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
