"""DiscoveryPlane — deploys and wires the whole discovery plane.

One object owns the registry shards (each a
:class:`~repro.uddi.service.UddiRegistryNode` on its own network node),
hands out :class:`~repro.discovery.client.DiscoveryClient` windows to
peers, and manages the gossip overlay membership.  ``attach`` swaps a
:class:`~repro.core.wspeer.WSPeer`'s locator and publisher for the
plane's facades, which is all an application needs to migrate.

``seed_service`` loads registries in-process (no SOAP frames), so
benchmarks can populate tens of thousands of services without paying
per-publish wire time.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.discovery.cache import RendezvousCache
from repro.discovery.client import DiscoveryClient
from repro.discovery.facade import DistributedUddiLocator, DistributedUddiPublisher
from repro.discovery.gossip import GossipNode
from repro.discovery.ring import HashRing
from repro.simnet.network import Network, Node
from repro.uddi.service import UddiRegistryNode


class DiscoveryPlane:
    """The deployed discovery plane: shards + replication + gossip."""

    def __init__(
        self,
        network: Network,
        shards: int = 4,
        replication: int = 2,
        registry_service_time: float = 0.0,
        advert_valid_time: float = 30.0,
        cache_lifetime: float = 30.0,
        client_timeout: float = 30.0,
        node_prefix: str = "registry",
    ):
        self.network = network
        self.replication = min(max(1, replication), shards)
        self.advert_valid_time = advert_valid_time
        self.cache_lifetime = cache_lifetime
        self.client_timeout = client_timeout
        self.registries: dict[str, UddiRegistryNode] = {}
        self.registry_uris: dict[str, str] = {}
        for i in range(shards):
            node_id = f"{node_prefix}-{i}"
            node = network.add_node(node_id)
            node.service_time = registry_service_time
            registry_node = UddiRegistryNode(node)
            self.registries[node_id] = registry_node
            self.registry_uris[node_id] = registry_node.endpoint
        self.ring = HashRing(self.registry_uris)
        self._gossip: dict[str, GossipNode] = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def join_gossip(self, node: Node, origin: Optional[str] = None) -> GossipNode:
        """Give *node* a gossip agent, fully meshed with existing members
        (the round-robin fanout keeps actual traffic bounded)."""
        existing = self._gossip.get(node.id)
        if existing is not None:
            return existing
        agent = GossipNode(node, origin=origin, valid_time=self.advert_valid_time)
        for member in self._gossip.values():
            member.link(node.id)
            agent.link(member.node.id)
        self._gossip[node.id] = agent
        return agent

    # ------------------------------------------------------------------
    # client windows
    # ------------------------------------------------------------------
    def client_for(self, node: Node, with_gossip: bool = True, pool=None) -> DiscoveryClient:
        gossip = self.join_gossip(node) if with_gossip else None
        return DiscoveryClient(
            node,
            self.registry_uris,
            replication=self.replication,
            cache=RendezvousCache(
                lambda: node.network.kernel.now, lifetime=self.cache_lifetime
            ),
            gossip=gossip,
            timeout=self.client_timeout,
            pool=pool,
        )

    def attach(
        self,
        wspeer,
        business_name: str = "WSPeer",
        lease_ttl: Optional[float] = None,
        with_gossip: bool = True,
    ) -> DiscoveryClient:
        """Swap *wspeer*'s locator and publisher for the plane's facades.

        Existing ``locate``/``publish`` call-sites keep working; if the
        peer has failover enabled, health verdicts flow into both the
        quarantine and the rendezvous cache.
        """
        client = self.client_for(wspeer.node, with_gossip=with_gossip, pool=wspeer.http_pool)
        locator = DistributedUddiLocator(client)
        publisher = DistributedUddiPublisher(
            client, business_name=business_name, lease_ttl=lease_ttl
        )
        wspeer.client.register_locator(locator)
        wspeer.server.register_publisher(publisher)
        if wspeer.failover is not None:
            locator.watch_health(wspeer.failover.health)
        wspeer.discovery = client
        return client

    # ------------------------------------------------------------------
    # bulk seeding (benchmarks)
    # ------------------------------------------------------------------
    def seed_service(
        self,
        name: str,
        access_point: str,
        wsdl_url: str = "",
        business_name: str = "WSPeer",
        ttl: Optional[float] = None,
    ) -> dict[str, Any]:
        """Register *name* straight into its replica set, in-process."""
        replicas = self.ring.nodes_for(name, self.replication)
        record = self.registries[replicas[0]].registry.save_service(
            name=name, ttl=ttl, business_name=business_name,
            access_point=access_point, wsdl_url=wsdl_url,
        )
        for shard in replicas[1:]:
            self.registries[shard].registry.import_service(record)
        return record

    # ------------------------------------------------------------------
    @property
    def shard_ids(self) -> list[str]:
        return sorted(self.registries)

    def shard_node(self, shard_id: str) -> Node:
        return self.registries[shard_id].node

    def __repr__(self) -> str:
        return (
            f"<DiscoveryPlane shards={len(self.registries)} "
            f"R={self.replication} gossip={len(self._gossip)}>"
        )
