"""Pipes: P2PS's abstract communication channels.

"P2PS peers use abstract communication channels, called pipes ...
peers are identified by a logical id, not physical address ... For a
pipe to be created, the actual endpoints of peers need to be resolved.
P2PS uses an EndpointResolver interface ... Pipes are generally
unidirectional.  The data is retrieved from a pipe by adding an entity
as listener to the pipe." (§IV-B)

An :class:`InputPipe` is a listening endpoint (a port on the owning
peer's node); an :class:`OutputPipe` is the sending half, created by
resolving a :class:`PipeAdvertisement` to a physical node.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional

from repro.caching import SoftTable
from repro.p2ps.advertisements import PipeAdvertisement
from repro.simnet.network import Frame, Node, NodeDownError


class PipeError(Exception):
    """Pipe-level failure."""


#: routes a resolver keeps to other peers, least recently heard out
#: first (a peer's own route is kept apart and never counts)
ROUTES_CAP = 4096


class ResolutionError(PipeError):
    """A logical endpoint could not be resolved to a physical one."""


PipeListener = Callable[[str, dict], None]  # (payload, meta)


def pipe_port(pipe_id: str) -> str:
    """The node port an input pipe listens on."""
    return f"pipe:{pipe_id}"


class InputPipe:
    """The receiving end of a pipe, owned by one peer."""

    def __init__(self, advert: PipeAdvertisement, node: Node):
        self.advert = advert
        self.node = node
        self._listeners: list[PipeListener] = []
        self.received = 0
        self.closed = False
        node.open_port(pipe_port(advert.pipe_id), self._on_frame)

    def add_listener(self, listener: PipeListener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: PipeListener) -> None:
        self._listeners.remove(listener)

    def _on_frame(self, frame: Frame) -> None:
        self.received += 1
        meta = dict(frame.meta)  # one copy, shared by the listeners
        for listener in list(self._listeners):
            listener(frame.payload, meta)

    def close(self) -> None:
        if not self.closed:
            self.node.close_port(pipe_port(self.advert.pipe_id))
            self.closed = True

    def __repr__(self) -> str:
        return f"<InputPipe {self.advert.name}({self.advert.pipe_id}) listeners={len(self._listeners)}>"


class Route:
    """Where a logical endpoint physically lives.

    ``relay_node`` is set for NATed peers "who may be behind firewalls
    or NAT systems and therefore do not have accessible network
    addresses" (§IV-B): frames go to the relay, which forwards them.
    """

    __slots__ = ("node_id", "relay_node")

    def __init__(self, node_id: str, relay_node: str = ""):
        self.node_id = node_id
        self.relay_node = relay_node

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Route)
            and (self.node_id, self.relay_node) == (other.node_id, other.relay_node)
        )

    def __repr__(self) -> str:
        via = f" via {self.relay_node}" if self.relay_node else ""
        return f"<Route {self.node_id}{via}>"


RELAY_PORT = "p2ps-relay"


class OutputPipe:
    """The sending end: a resolved physical destination."""

    def __init__(self, advert: PipeAdvertisement, src_node: Node, route: "Route | str"):
        self.advert = advert
        self.src_node = src_node
        self.route = Route(route) if isinstance(route, str) else route
        self.sent = 0
        self._port = pipe_port(advert.pipe_id)

    def send(self, payload: str, **meta) -> None:
        """Fire-and-forget write down the pipe (via the relay if NATed)."""
        route = self.route
        try:
            if route.relay_node:
                self.src_node.send(
                    route.relay_node, RELAY_PORT, payload,
                    fwd_dst=route.node_id, fwd_port=self._port, **meta,
                )
            else:
                self.src_node.send(route.node_id, self._port, payload, **meta)
        except NodeDownError as exc:
            raise PipeError("cannot send: local node is down") from exc
        self.sent += 1

    def __repr__(self) -> str:
        return f"<OutputPipe →{self.advert.pipe_id}@{self.route!r} sent={self.sent}>"


class EndpointResolver(abc.ABC):
    """Resolves a logical pipe endpoint to a physical route."""

    @abc.abstractmethod
    def resolve(self, advert: PipeAdvertisement) -> Route:
        """Return the :class:`Route` to *advert*'s peer.

        Raises :class:`ResolutionError` when the peer is unknown.
        """


class TableEndpointResolver(EndpointResolver):
    """Resolver backed by a peer-id → route table.

    Peers populate the table from the :class:`PeerAdvertisement`\\ s
    they see (piggybacked on every P2PS message), so resolution is a
    local lookup once a peer has been heard from.  The table holds at
    most :data:`ROUTES_CAP` routes, the least recently heard out first;
    the owning peer's own route (*own_id*) is kept beside it, so no
    flood of strangers can push it out.
    """

    def __init__(self, own_id: Optional[str] = None) -> None:
        self._own_id = own_id
        self._own: Optional[Route] = None
        self._table = SoftTable(ROUTES_CAP)

    def _route(self, peer_id: str) -> Optional[Route]:
        return self._own if peer_id == self._own_id else self._table.get(peer_id)

    def learn(self, peer_id: str, node_id: str, relay_node: str = "") -> None:
        """Record where *peer_id* lives (per pipe frame: a known route is kept)."""
        own = peer_id == self._own_id
        route = self._own if own else self._table.get(peer_id)
        if route is None or route.node_id != node_id or route.relay_node != relay_node:
            route = Route(node_id, relay_node)
            if own:
                self._own = route
            else:
                self._table.put(peer_id, route)

    def known(self, peer_id: str) -> bool:
        return self._route(peer_id) is not None

    def resolve(self, advert: PipeAdvertisement) -> Route:
        route = self._route(advert.peer_id)
        if route is None:
            raise ResolutionError(
                f"no known endpoint for peer {advert.peer_id!r} "
                f"(pipe {advert.pipe_id!r})"
            )
        return route

    def __len__(self) -> int:
        return len(self._table) + (self._own is not None)
