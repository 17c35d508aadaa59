"""Epidemic service announcements with monotonic freshness counters.

The registry shards answer *queries*; gossip answers *staleness*.  Each
provider announces its service as a TTL'd advertisement carrying a
per-origin sequence number — the ``valid_time``/``available_index``
idiom of ATDECC's discovery protocol.  A re-announcement with a higher
sequence supersedes whatever a peer holds, so freshness is decided by
counter comparison, never by comparing clocks across nodes.  A stale
announcement (sequence ≤ what the receiver already has) is dropped and
*not* re-forwarded, which is what terminates the epidemic.

Withdrawal is an announcement with no endpoints: a tombstone that rides
the same freshness rule.

Frames travel on the dedicated :data:`GOSSIP_PORT` with a ``gossip``
meta tag, so simnet traces can filter the gossip overlay from service
traffic.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.discovery.ring import stable_hash
from repro.observability import metrics as obs_metrics
from repro.simnet.network import Frame, NetworkError, Node, NodeDownError
from repro.xmlkit import Element, QName, ns, parse, serialize

GOSSIP_PORT = "gossip"
DISCOVERY_NS = ns.DISCOVERY

DEFAULT_VALID_TIME = 30.0
DEFAULT_FANOUT = 3
DEFAULT_HOPS = 4


def _q(local: str) -> QName:
    return QName(DISCOVERY_NS, local, "disco")


class ServiceAnnouncement:
    """One gossiped fact: *origin* offers *service* at *endpoints*.

    ``seq`` is the origin's monotonic freshness counter; ``valid_time``
    is how long (seconds) a receiver may believe the fact.  Empty
    ``endpoints`` makes it a withdrawal tombstone.
    """

    def __init__(
        self,
        service: str,
        origin: str,
        seq: int,
        valid_time: float = DEFAULT_VALID_TIME,
        endpoints: Optional[list[str]] = None,
        service_key: str = "",
        wsdl_url: str = "",
        hops: int = DEFAULT_HOPS,
    ):
        self.service = service
        self.origin = origin
        self.seq = int(seq)
        self.valid_time = float(valid_time)
        self.endpoints = list(endpoints or [])
        self.service_key = service_key
        self.wsdl_url = wsdl_url
        self.hops = int(hops)

    @property
    def is_withdrawal(self) -> bool:
        return not self.endpoints

    def key(self) -> tuple[str, str]:
        return (self.service, self.origin)

    def to_element(self) -> Element:
        root = Element(
            _q("ServiceAnnouncement"),
            attributes={"seq": str(self.seq), "hops": str(self.hops)},
            nsdecls={"disco": DISCOVERY_NS},
        )
        root.add(_q("Service"), text=self.service)
        root.add(_q("Origin"), text=self.origin)
        root.add(_q("ValidTime"), text=f"{self.valid_time:g}")
        if self.service_key:
            root.add(_q("ServiceKey"), text=self.service_key)
        if self.wsdl_url:
            root.add(_q("WsdlUrl"), text=self.wsdl_url)
        for endpoint in self.endpoints:
            root.add(_q("Endpoint"), text=endpoint)
        return root

    def to_wire(self) -> str:
        return serialize(self.to_element())

    @classmethod
    def from_element(cls, elem: Element) -> "ServiceAnnouncement":
        return cls(
            elem.find_text("Service"),
            elem.find_text("Origin"),
            int(elem.get("seq") or 0),
            float(elem.find_text("ValidTime") or DEFAULT_VALID_TIME),
            [e.text for e in elem.find_all("Endpoint")],
            elem.find_text("ServiceKey"),
            elem.find_text("WsdlUrl"),
            int(elem.get("hops") or 0),
        )

    @classmethod
    def from_wire(cls, text: str) -> "ServiceAnnouncement":
        return cls.from_element(parse(text))

    def __repr__(self) -> str:
        kind = "withdraw" if self.is_withdrawal else "announce"
        return f"<ServiceAnnouncement {kind} {self.service}@{self.origin} seq={self.seq}>"


AnnouncementListener = Callable[[ServiceAnnouncement], None]


class MetricDigest:
    """A piggybacked metrics summary riding the gossip overlay (E17).

    The payload is opaque text (JSON, by convention of
    :mod:`repro.observability.cluster`) — gossip only guarantees the
    epidemic mechanics: per-origin monotonic ``seq`` freshness, hop
    budget, stale-drop termination.  One digest per origin is current
    at a time; a fresher one supersedes it everywhere.
    """

    def __init__(self, origin: str, seq: int, payload: str,
                 hops: int = DEFAULT_HOPS):
        self.origin = origin
        self.seq = int(seq)
        self.payload = payload
        self.hops = int(hops)

    def to_element(self) -> Element:
        root = Element(
            _q("MetricDigest"),
            attributes={"seq": str(self.seq), "hops": str(self.hops)},
            nsdecls={"disco": DISCOVERY_NS},
        )
        root.add(_q("Origin"), text=self.origin)
        root.add(_q("Payload"), text=self.payload)
        return root

    def to_wire(self) -> str:
        return serialize(self.to_element())

    @classmethod
    def from_element(cls, elem: Element) -> "MetricDigest":
        return cls(
            elem.find_text("Origin"),
            int(elem.get("seq") or 0),
            elem.find_text("Payload"),
            int(elem.get("hops") or 0),
        )

    def __repr__(self) -> str:
        return f"<MetricDigest {self.origin} seq={self.seq}>"


DigestListener = Callable[[MetricDigest], None]


class GossipNode:
    """The gossip agent on one network node.

    Peers form an explicit overlay (``link``); each accepted fresh
    announcement is re-forwarded to ``fanout`` neighbours picked
    round-robin (deterministic under the simulation kernel), with a hop
    budget bounding worst-case spread.
    """

    def __init__(
        self,
        node: Node,
        origin: Optional[str] = None,
        fanout: int = DEFAULT_FANOUT,
        hops: int = DEFAULT_HOPS,
        valid_time: float = DEFAULT_VALID_TIME,
    ):
        self.node = node
        self.origin = origin or node.id
        self.fanout = fanout
        self.hops = hops
        self.valid_time = valid_time
        self.peers: list[str] = []
        self._seqs: dict[str, int] = {}  # service -> last seq we announced
        #: (service, origin) -> (announcement, absolute expiry)
        self._store: dict[tuple[str, str], tuple[ServiceAnnouncement, float]] = {}
        self._listeners: list[AnnouncementListener] = []
        self._digest_seq = 0  # our own digest freshness counter
        self._digest_seqs: dict[str, int] = {}  # origin -> freshest seen
        self._digest_listeners: list[DigestListener] = []
        node.open_port(GOSSIP_PORT, self._on_frame)

    def _now(self) -> float:
        return self.node.network.kernel.now

    # -- membership ----------------------------------------------------
    def link(self, *node_ids: str) -> None:
        for node_id in node_ids:
            if node_id != self.node.id and node_id not in self.peers:
                self.peers.append(node_id)

    def add_listener(self, listener: AnnouncementListener) -> None:
        self._listeners.append(listener)

    def add_digest_listener(self, listener: DigestListener) -> None:
        self._digest_listeners.append(listener)

    # -- announcing ----------------------------------------------------
    def announce(
        self,
        service: str,
        endpoints: list[str],
        service_key: str = "",
        wsdl_url: str = "",
        valid_time: Optional[float] = None,
        seq: Optional[int] = None,
    ) -> ServiceAnnouncement:
        """Announce (or re-announce) *service* from this origin.

        Without an explicit *seq* the per-service counter bumps; pass
        the registry revision as *seq* to keep gossip and replication
        freshness aligned.
        """
        if seq is None:
            seq = self._seqs.get(service, 0) + 1
        self._seqs[service] = max(seq, self._seqs.get(service, 0))
        announcement = ServiceAnnouncement(
            service,
            self.origin,
            seq,
            valid_time if valid_time is not None else self.valid_time,
            endpoints,
            service_key,
            wsdl_url,
            self.hops,
        )
        self._accept(announcement)
        self._forward(announcement, exclude=None)
        return announcement

    def withdraw(self, service: str) -> ServiceAnnouncement:
        """Tombstone: an announcement with no endpoints."""
        return self.announce(service, [], valid_time=self.valid_time)

    def announce_digest(self, payload: str,
                        seq: Optional[int] = None) -> MetricDigest:
        """Gossip a fresh metrics digest from this origin."""
        if seq is None:
            seq = self._digest_seq + 1
        self._digest_seq = max(seq, self._digest_seq)
        digest = MetricDigest(self.origin, seq, payload, self.hops)
        self._accept_digest(digest)
        self._forward_digest(digest, exclude=None)
        return digest

    # -- receiving -----------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        try:
            root = parse(frame.payload)
        except Exception:
            obs_metrics.inc("discovery.gossip.malformed")
            return
        if root.name.local == "MetricDigest":
            digest = MetricDigest.from_element(root)
            if not digest.origin:
                obs_metrics.inc("discovery.gossip.malformed")
                return
            if not self._accept_digest(digest):
                return
            if digest.hops > 0:
                self._forward_digest(digest, exclude=frame.src)
            return
        announcement = ServiceAnnouncement.from_element(root)
        if not announcement.service or not announcement.origin:
            obs_metrics.inc("discovery.gossip.malformed")
            return
        if not self._accept(announcement):
            return  # stale: drop, do not re-forward (epidemic terminates)
        if announcement.hops > 0:
            self._forward(announcement, exclude=frame.src)

    def _accept(self, announcement: ServiceAnnouncement) -> bool:
        """Apply the freshness rule; True when the store advanced."""
        self._purge()
        held = self._store.get(announcement.key())
        if held is not None and announcement.seq <= held[0].seq:
            obs_metrics.inc("discovery.gossip.stale")
            return False
        expires = self._now() + announcement.valid_time
        self._store[announcement.key()] = (announcement, expires)
        obs_metrics.inc("discovery.gossip.accepted")
        for listener in list(self._listeners):
            listener(announcement)
        return True

    def _purge(self) -> None:
        now = self._now()
        expired = [key for key, (_, expires) in self._store.items() if expires <= now]
        for key in expired:
            del self._store[key]
            obs_metrics.inc("discovery.gossip.expired")

    # -- spreading -----------------------------------------------------
    def _forward(self, announcement: ServiceAnnouncement, exclude: Optional[str]) -> None:
        if not self.peers or not self.node.up:
            return
        forwarded = ServiceAnnouncement(
            announcement.service,
            announcement.origin,
            announcement.seq,
            announcement.valid_time,
            announcement.endpoints,
            announcement.service_key,
            announcement.wsdl_url,
            announcement.hops - 1,
        )
        wire = forwarded.to_wire()
        # deterministic but decorrelated neighbour choice: each node
        # starts its fanout window at a hash of (itself, announcement),
        # so different nodes spread one announcement through different
        # peers — aligned windows would leave parts of the overlay
        # permanently shadowed behind the stale-drop rule
        start = stable_hash(
            f"{self.node.id}|{announcement.service}|{announcement.origin}|{announcement.seq}"
        ) % len(self.peers)
        sent = 0
        for i in range(len(self.peers)):
            if sent >= self.fanout:
                break
            peer = self.peers[(start + i) % len(self.peers)]
            if peer == exclude or peer == announcement.origin:
                continue
            try:
                self.node.send(peer, GOSSIP_PORT, wire, gossip="announce")
                sent += 1
                obs_metrics.inc("discovery.gossip.sent")
            except (NodeDownError, NetworkError):
                break  # we are down; nothing more goes out this round

    def _accept_digest(self, digest: MetricDigest) -> bool:
        """Per-origin freshness rule for digests."""
        if digest.seq <= self._digest_seqs.get(digest.origin, 0):
            obs_metrics.inc("discovery.gossip.digest_stale")
            return False
        self._digest_seqs[digest.origin] = digest.seq
        obs_metrics.inc("discovery.gossip.digest_accepted")
        for listener in list(self._digest_listeners):
            listener(digest)
        return True

    def _forward_digest(self, digest: MetricDigest, exclude: Optional[str]) -> None:
        if not self.peers or not self.node.up:
            return
        forwarded = MetricDigest(
            digest.origin, digest.seq, digest.payload, digest.hops - 1)
        wire = forwarded.to_wire()
        start = stable_hash(
            f"{self.node.id}|digest|{digest.origin}|{digest.seq}"
        ) % len(self.peers)
        sent = 0
        for i in range(len(self.peers)):
            if sent >= self.fanout:
                break
            peer = self.peers[(start + i) % len(self.peers)]
            if peer == exclude or peer == digest.origin:
                continue
            try:
                self.node.send(peer, GOSSIP_PORT, wire, gossip="digest")
                sent += 1
                obs_metrics.inc("discovery.gossip.digest_sent")
            except (NodeDownError, NetworkError):
                break

    # -- reading -------------------------------------------------------
    def entries_for(self, service: str) -> list[ServiceAnnouncement]:
        """Live (unexpired, non-tombstone) announcements for *service*."""
        self._purge()
        return [
            announcement
            for (name, _), (announcement, _) in sorted(self._store.items())
            if name == service and not announcement.is_withdrawal
        ]

    def freshest_for(self, service: str) -> Optional[ServiceAnnouncement]:
        entries = self.entries_for(service)
        return max(entries, key=lambda a: a.seq) if entries else None
