"""Peer groups: the broadcast domain of P2PS discovery.

A :class:`PeerGroup` models one group of peers that hear each other's
broadcasts (the LAN-multicast analogue).  Rendezvous peers are members
flagged as gateways; linking two rendezvous peers (possibly in
different groups) builds the overlay across which queries propagate —
"queries can be disseminated among other groups via their rendezvous
peer" (§IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.p2ps.peer import Peer


@dataclass
class Member:
    peer_id: str
    node_id: str
    rendezvous: bool


class PeerGroup:
    """Membership registry for one group."""

    def __init__(self, name: str):
        self.name = name
        self._members: dict[str, Member] = {}

    def join(self, peer: "Peer", rendezvous: bool = False) -> None:
        self._members[peer.id] = Member(peer.id, peer.node.id, rendezvous)

    def leave(self, peer_id: str) -> None:
        self._members.pop(peer_id, None)

    def members(self, exclude: str = "") -> list[Member]:
        return [m for m in self._members.values() if m.peer_id != exclude]

    def __len__(self) -> int:
        return len(self._members)

    def __repr__(self) -> str:
        return f"<PeerGroup {self.name} members={len(self._members)}>"


def link_rendezvous(a: "Peer", b: "Peer") -> None:
    """Create a bidirectional rendezvous overlay link between two peers."""
    if not a.rendezvous or not b.rendezvous:
        raise ValueError("both peers must be rendezvous peers to link")
    a.add_rendezvous_link(b.id, b.node.id)
    b.add_rendezvous_link(a.id, a.node.id)


def connect_neighbors(a: "Peer", b: "Peer") -> None:
    """Create a bidirectional unstructured-overlay (Gnutella-style) link."""
    a.add_neighbor(b.id, b.node.id)
    b.add_neighbor(a.id, a.node.id)
