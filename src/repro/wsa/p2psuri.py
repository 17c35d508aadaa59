"""The ``p2ps`` URI scheme (§IV-B).

    p2ps://<peer-id>/<service-name>#<pipe-name>

- the *host* component is the peer's unique logical id;
- the *path* names the ServiceAdvertisement the pipe belongs to, and
  may be empty for bare pipes (e.g. reply channels);
- the *fragment* names the pipe.

"Defining a URI scheme allows us to ... chain separate elements
together into a single parsable unit" — these helpers are that parser.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caching import ArtifactCache
from repro.transport.uri import Uri, UriError
from repro.wsa.epr import WsaError

P2PS_SCHEME = "p2ps"


@dataclass(frozen=True)
class P2psAddress:
    """The decomposed components of a p2ps URI."""

    peer_id: str
    service_name: str = ""
    pipe_name: str = ""

    @property
    def is_bare_pipe(self) -> bool:
        """A pipe with no associated service (a reply channel)."""
        return self.pipe_name != "" and self.service_name == ""

    def service_uri(self) -> str:
        """The address *without* the pipe fragment — what goes in
        wsa:Address / wsa:To (binding rule 1)."""
        return make_p2ps_uri(self.peer_id, self.service_name, "")


def make_p2ps_uri(peer_id: str, service_name: str = "", pipe_name: str = "") -> str:
    """Build a p2ps URI from its components."""
    if not peer_id:
        raise WsaError("p2ps URI requires a peer id")
    text = f"{P2PS_SCHEME}://{peer_id}"
    if service_name:
        text += f"/{service_name}"
    if pipe_name:
        text += f"#{pipe_name}"
    return text


_p2ps_uri_cache = ArtifactCache("p2ps-uris", max_entries=512)


def parse_p2ps_uri(text: str) -> P2psAddress:
    """Parse a p2ps URI into its components, memoised on the exact text
    (a provider reads the same ``ReplyTo`` address on every call from a
    consumer).  Parse *errors* are not cached."""
    address = _p2ps_uri_cache.get(text)
    if address is not None:
        return address
    try:
        uri = Uri.parse(text)
    except UriError as exc:
        raise WsaError(f"bad p2ps URI: {exc}") from exc
    if uri.scheme != P2PS_SCHEME:
        raise WsaError(f"not a p2ps URI: {text!r}")
    if "/" in uri.path:
        raise WsaError(f"p2ps URI path must be a single service name: {text!r}")
    return _p2ps_uri_cache.put(text, P2psAddress(uri.host, uri.path, uri.fragment))
