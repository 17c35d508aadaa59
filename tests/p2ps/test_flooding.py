"""Tests for the Gnutella-style unstructured overlay (neighbor flooding)."""

import pytest

from repro.p2ps import AdvertQuery, Peer
from repro.p2ps.group import connect_neighbors
from repro.simnet import FixedLatency, Network, TraceLog
from tests.p2ps.support import wait_for_results


def make_line(n, latency=0.002):
    """p0 - p1 - ... - p(n-1), connected as a line of neighbors."""
    net = Network(latency=FixedLatency(latency), trace=TraceLog(enabled=True))
    peers = [Peer(net.add_node(f"n{i}"), name=f"p{i}") for i in range(n)]
    for a, b in zip(peers, peers[1:]):
        connect_neighbors(a, b)
    return net, peers


def make_ring(n):
    net, peers = make_line(n)
    connect_neighbors(peers[-1], peers[0])
    return net, peers


def publish_at(peer, name="Svc"):
    peer.create_input_pipe("invoke", name)
    return peer.publish_service(name, ["invoke"])


class TestNeighborTopology:
    def test_uses_flooding_flag(self):
        net, peers = make_line(2)
        assert peers[0].neighbors
        assert not Peer(net.add_node("solo")).neighbors

    def test_advert_broadcast_is_one_hop(self):
        net, peers = make_line(3)
        advert = publish_at(peers[0])
        net.run()
        assert peers[1].cache.get(advert.key()) is not None
        assert peers[2].cache.get(advert.key()) is None  # 2 hops away

    def test_query_floods_hop_by_hop(self):
        net, peers = make_line(5)
        advert = publish_at(peers[4], "FarSvc")
        net.run()
        handle = peers[0].discover(AdvertQuery("service", "FarSvc"), ttl=6)
        results = wait_for_results(handle, timeout=5.0)
        assert len(results) == 1
        assert results[0].key() == advert.key()

    def test_ttl_limits_flood_depth(self):
        net, peers = make_line(5)
        publish_at(peers[4], "FarSvc")
        net.run()
        handle = peers[0].discover(AdvertQuery("service", "FarSvc"), ttl=2)
        assert wait_for_results(handle, timeout=2.0) == []

    def test_discovered_service_resolvable(self):
        net, peers = make_line(4)
        publish_at(peers[3], "FarSvc")
        net.run()
        handle = peers[0].discover(AdvertQuery("service", "FarSvc"), ttl=5)
        (service,) = wait_for_results(handle, timeout=5.0)
        out = peers[0].open_output_pipe(service.pipe_named("invoke"))
        assert out.route.node_id == "n3"

    def test_ring_terminates_via_dedup(self):
        net, peers = make_ring(6)
        peers[0].discover(AdvertQuery("service", "Nothing"), ttl=50)
        fired = net.kernel.run(max_events=10_000)
        assert fired < 10_000  # loop suppression stops the flood

    def test_flood_cost_bounded_by_edges(self):
        net, peers = make_ring(6)
        sent_before = net.sent.total()
        peers[0].discover(AdvertQuery("service", "Nothing"), ttl=50)
        net.run()
        query_frames = net.sent.total() - sent_before
        # each peer forwards a seen query at most once per neighbour
        assert query_frames <= 2 * 6 * 2  # edges x directions, generous

    def test_star_topology(self):
        net = Network(latency=FixedLatency(0.002))
        hub = Peer(net.add_node("hub"), name="hub")
        leaves = [Peer(net.add_node(f"leaf{i}"), name=f"leaf{i}") for i in range(4)]
        for leaf in leaves:
            connect_neighbors(hub, leaf)
        publish_at(leaves[0], "LeafSvc")
        net.run()
        # another leaf finds it through the hub (2 hops)
        handle = leaves[3].discover(AdvertQuery("service", "LeafSvc"), ttl=3)
        assert len(wait_for_results(handle, timeout=3.0)) == 1

    def test_mixed_mode_group_still_works(self):
        # a peer with neighbors configured floods; group members without
        # neighbors still use group broadcast
        from repro.p2ps import PeerGroup

        net = Network(latency=FixedLatency(0.002))
        group = PeerGroup("g")
        a = Peer(net.add_node("a"), name="a")
        b = Peer(net.add_node("b"), name="b")
        a.join(group)
        b.join(group)
        publish_at(a, "GroupSvc")
        net.run()
        assert b.cache.get(f"service:{a.id}:GroupSvc") is not None


class TestRepublisher:
    def build(self, lifetime=5.0):
        from repro.p2ps import Peer, PeerGroup
        from repro.simnet import FixedLatency, Network

        net = Network(latency=FixedLatency(0.002))
        group = PeerGroup("g")
        provider = Peer(net.add_node("prov"), name="prov", cache_lifetime=lifetime)
        observer = Peer(net.add_node("obs"), name="obs", cache_lifetime=lifetime)
        provider.join(group)
        observer.join(group)
        provider.create_input_pipe("invoke", "Svc")
        provider.publish_service("Svc", ["invoke"])
        net.run()
        return net, provider, observer

    def test_republisher_keeps_advert_alive(self):
        from repro.p2ps import AdvertQuery

        net, provider, observer = self.build(lifetime=5.0)
        provider.start_republisher(interval=2.0)
        net.run(until=30.0)  # far beyond the cache lifetime
        handle = observer.discover(AdvertQuery("service", "Svc"))
        assert wait_for_results(handle, timeout=1.0)

    def test_without_republisher_advert_dies(self):
        from repro.p2ps import AdvertQuery

        net, provider, observer = self.build(lifetime=5.0)
        net.kernel.schedule(30.0, lambda: None)
        net.run()
        handle = observer.discover(AdvertQuery("service", "Svc"))
        assert wait_for_results(handle, timeout=1.0) == []

    def test_stop_republisher(self):
        from repro.p2ps import AdvertQuery

        net, provider, observer = self.build(lifetime=5.0)
        provider.start_republisher(interval=2.0)
        net.run(until=4.0)
        provider.stop_republisher()
        net.run(until=40.0)
        handle = observer.discover(AdvertQuery("service", "Svc"))
        assert wait_for_results(handle, timeout=1.0) == []

    def test_downed_peer_stops_republishing(self):
        net, provider, observer = self.build(lifetime=5.0)
        provider.start_republisher(interval=2.0)
        provider.node.go_down()
        net.run(until=30.0)
        assert observer.cache.get(f"service:{provider.id}:Svc") is None

    def test_republisher_survives_a_cache_read(self):
        # the republisher sends what the peer published, not what its
        # cache still holds: reading the cache after the adverts lapsed
        # (lifetime 1 s, interval 2 s) must not cost the peer them
        from repro.p2ps import AdvertQuery

        net, provider, observer = self.build(lifetime=1.0)
        adverts = []

        def count_adverts(frame):
            if 'type="advert"' in frame.payload:
                adverts.append(frame.src)
            return True

        net.add_delivery_hook(count_adverts)
        provider.start_republisher(interval=2.0)
        net.run(until=1.5)
        assert len(provider.cache) == 0  # everything it holds has lapsed
        net.run(until=4.5)
        # two rounds (t = 2, 4) of the peer, its pipe and its service
        assert adverts.count(provider.node.id) == 6
        assert provider.lookup(f"service:{provider.id}:Svc") is not None
        handle = observer.discover(AdvertQuery("service", "Svc"))
        assert wait_for_results(handle, timeout=0.4)

    def test_invalid_interval(self):
        import pytest

        net, provider, observer = self.build()
        with pytest.raises(ValueError):
            provider.start_republisher(0)
