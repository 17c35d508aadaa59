"""A small URI model.

Hand-rolled rather than :mod:`urllib.parse` because the ``p2ps`` scheme
(§IV-B of the paper) leans on exact control of the host / path /
fragment split: ``p2ps://<peer-id>/<service>#<pipe>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.caching import ArtifactCache


class UriError(ValueError):
    """Raised for text that does not parse as a URI we accept."""


@dataclass(frozen=True)
class Uri:
    """scheme://host[:port]/path[#fragment]

    ``path`` never includes the leading slash; '' means no path.
    ``port`` is None when absent.  Query strings are not modelled —
    nothing in the 2004-era SOAP stack we reproduce uses them.
    """

    scheme: str
    host: str
    port: Optional[int] = None
    path: str = ""
    fragment: str = ""

    @classmethod
    def parse(cls, text: str) -> "Uri":
        if "://" not in text:
            raise UriError(f"not an absolute URI: {text!r}")
        scheme, _, rest = text.partition("://")
        if not scheme or not scheme.replace("+", "").replace("-", "").isalnum():
            raise UriError(f"bad scheme in {text!r}")
        fragment = ""
        if "#" in rest:
            rest, _, fragment = rest.partition("#")
        authority, slash, path = rest.partition("/")
        if not authority:
            raise UriError(f"missing host in {text!r}")
        port: Optional[int] = None
        host = authority
        if ":" in authority:
            host, _, port_text = authority.rpartition(":")
            try:
                port = int(port_text)
            except ValueError:
                raise UriError(f"bad port in {text!r}") from None
            if not 0 < port < 65536:
                raise UriError(f"port out of range in {text!r}")
        if not host:
            raise UriError(f"missing host in {text!r}")
        del slash
        return cls(scheme.lower(), host, port, path, fragment)

    def __str__(self) -> str:
        authority = self.host if self.port is None else f"{self.host}:{self.port}"
        text = f"{self.scheme}://{authority}"
        if self.path:
            text += f"/{self.path}"
        if self.fragment:
            text += f"#{self.fragment}"
        return text

    @property
    def authority(self) -> str:
        return self.host if self.port is None else f"{self.host}:{self.port}"


_uri_cache = ArtifactCache("uris", max_entries=512)


def parse_uri_cached(text: str) -> Uri:
    """Like :meth:`Uri.parse`, but memoised on the exact input text.

    Endpoint addresses repeat on every call and retransmission; Uri is
    frozen, so one parsed instance is safely shared.  Parse *errors*
    are not cached — malformed addresses stay on the raising path.
    """
    uri = _uri_cache.get(text)
    if uri is None:
        uri = _uri_cache.put(text, Uri.parse(text))
    return uri
