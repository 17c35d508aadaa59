"""repro.discovery — the distributed discovery plane (E12).

The paper's discovery story is a single UDDI registry on the HTTP side
and flooded advertisements on the P2PS side; E1 measured the registry
as the centralised bottleneck it is.  This package scales discovery out
while keeping every existing ``locate``/``publish`` call-site intact:

- :mod:`ring` — a consistent-hash ring shards service names across N
  registry nodes; each shard is replicated R-ways.
- :mod:`gossip` — TTL'd service announcements with monotonic freshness
  counters spread epidemically between peers, so re-announcements
  supersede stale entries without any clock comparison.
- :mod:`cache` — a client-side :class:`RendezvousCache` consulted
  before any registry round-trip, kept fresh by gossip and invalidated
  by supervision dead-health verdicts.
- :mod:`client` — :class:`DiscoveryClient`, the replication-aware
  publish/lookup engine (read-repair on divergent replicas).
- :mod:`facade` — locator/publisher adapters that slot into
  :class:`~repro.core.wspeer.WSPeer` unchanged.
- :mod:`plane` — :class:`DiscoveryPlane`, the deployment harness that
  builds registries + gossip mesh and attaches peers.
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".cache": ("RendezvousCache",),
    ".client": ("DiscoveryClient",),
    ".facade": ("DistributedUddiLocator", "DistributedUddiPublisher"),
    ".gossip": ("GOSSIP_PORT", "GossipNode", "ServiceAnnouncement"),
    ".plane": ("DiscoveryPlane",),
    ".ring": ("HashRing", "stable_hash"),
})
