"""Tests for peers, pipes, groups and rendezvous discovery on the simnet."""

import pytest

from repro.p2ps import (
    AdvertQuery,
    Peer,
    PeerGroup,
    PipeAdvertisement,
    ResolutionError,
)
from repro.p2ps.group import link_rendezvous
from repro.simnet import FixedLatency, Network
from tests.p2ps.support import wait_for_results


def make_world(n_peers=3, rendezvous_indices=(), latency=0.002):
    net = Network(latency=FixedLatency(latency))
    group = PeerGroup("main")
    peers = []
    for i in range(n_peers):
        node = net.add_node(f"n{i}")
        peer = Peer(node, name=f"p{i}", rendezvous=(i in rendezvous_indices))
        peer.join(group)
        peers.append(peer)
    return net, group, peers


class TestPipes:
    def test_create_input_pipe(self):
        net, _, peers = make_world(1)
        pipe, advert = peers[0].create_input_pipe("invoke", "Echo")
        assert advert.peer_id == peers[0].id
        assert advert.service_name == "Echo"
        assert net.get_node("n0").has_port(f"pipe:{advert.pipe_id}")

    def test_pipe_send_receive(self):
        net, _, peers = make_world(2)
        got = []
        _, advert = peers[0].create_input_pipe(
            "invoke", listener=lambda payload, meta: got.append(payload)
        )
        peers[1].resolver.learn(peers[0].id, "n0")
        out = peers[1].open_output_pipe(advert)
        peers[1].send_down_pipe(out, "<hello/>")
        net.run()
        assert got == ["<hello/>"]
        assert out.sent == 1

    def test_receiver_learns_sender_location(self):
        # the origin metadata lets the provider resolve the consumer's
        # reply pipe without prior discovery
        net, _, peers = make_world(2)
        _, advert = peers[0].create_input_pipe("invoke")
        peers[1].resolver.learn(peers[0].id, "n0")
        out = peers[1].open_output_pipe(advert)
        peers[1].send_down_pipe(out, "x")
        net.run()
        assert peers[0].resolver.known(peers[1].id)

    def test_unresolvable_peer(self):
        net, _, peers = make_world(2)
        foreign = PipeAdvertisement("pipe-zz", "x", "peer-unknown-9999")
        with pytest.raises(ResolutionError):
            peers[0].open_output_pipe(foreign)

    def test_close_input_pipe(self):
        net, _, peers = make_world(1)
        pipe, advert = peers[0].create_input_pipe("invoke")
        peers[0].close_input_pipe(advert.pipe_id)
        assert pipe.closed
        assert not net.get_node("n0").has_port(f"pipe:{advert.pipe_id}")

    def test_multiple_listeners(self):
        net, _, peers = make_world(2)
        got_a, got_b = [], []
        pipe, advert = peers[0].create_input_pipe("invoke")
        pipe.add_listener(lambda p, m: got_a.append(p))
        pipe.add_listener(lambda p, m: got_b.append(p))
        peers[1].resolver.learn(peers[0].id, "n0")
        peers[1].send_down_pipe(peers[1].open_output_pipe(advert), "data")
        net.run()
        assert got_a == ["data"] and got_b == ["data"]


class TestPublishDiscover:
    def publish_echo(self, provider, attributes=None):
        provider.create_input_pipe("invoke", "Echo")
        provider.create_input_pipe("definition", "Echo")
        return provider.publish_service(
            "Echo", ["invoke", "definition"], definition_pipe="definition",
            attributes=attributes,
        )

    def test_publish_reaches_group(self):
        net, _, peers = make_world(3)
        advert = self.publish_echo(peers[0])
        net.run()
        assert peers[1].cache.get(advert.key()) is not None
        assert peers[2].cache.get(advert.key()) is not None

    def test_discover_from_local_cache(self):
        net, _, peers = make_world(2)
        self.publish_echo(peers[0])
        net.run()
        handle = peers[1].discover(AdvertQuery("service", "Echo"))
        assert len(handle.results) == 1  # immediate: already cached

    def test_discover_over_network(self):
        net, _, peers = make_world(2)
        # publish before peer 1 joined: emulate by clearing peer 1's cache
        self.publish_echo(peers[0])
        net.run()
        peers[1].cache.remove(f"service:{peers[0].id}:Echo")
        handle = peers[1].discover(AdvertQuery("service", "Echo"))
        results = wait_for_results(handle)
        assert len(results) == 1
        assert results[0].name == "Echo"

    def test_discovery_learns_provider_endpoint(self):
        net, _, peers = make_world(2)
        self.publish_echo(peers[0])
        net.run()
        peers[1].cache.remove(f"service:{peers[0].id}:Echo")
        handle = peers[1].discover(AdvertQuery("service", "Echo"))
        (service,) = wait_for_results(handle)
        # after discovery the provider's pipes must be resolvable
        out = peers[1].open_output_pipe(service.pipe_named("invoke"))
        assert out.route.node_id == "n0"

    def test_attribute_based_discovery(self):
        net, _, peers = make_world(3)
        self.publish_echo(peers[0], attributes={"tier": "gold"})
        peers[1].create_input_pipe("invoke", "Echo")
        peers[1].publish_service("Echo", ["invoke"], attributes={"tier": "bronze"})
        net.run()
        handle = peers[2].discover(AdvertQuery("service", "%", {"tier": "gold"}))
        results = wait_for_results(handle)
        assert len(results) == 1
        assert results[0].peer_id == peers[0].id

    def test_on_result_callback(self):
        net, _, peers = make_world(2)
        self.publish_echo(peers[0])
        net.run()
        seen = []
        handle = peers[1].discover(AdvertQuery("service", "Echo"))
        handle.on_result(seen.append)  # registered after local hit
        assert len(seen) == 1

    def test_dead_provider_not_discovered_from_network(self):
        net, _, peers = make_world(2)
        handle = peers[1].discover(AdvertQuery("service", "Ghost"))
        results = wait_for_results(handle, timeout=1.0)
        assert results == []

    def test_duplicate_responses_deduped(self):
        net, _, peers = make_world(4)
        self.publish_echo(peers[0])
        net.run()
        # peers 0,2,3 all have the advert cached and will all respond
        peers[1].cache.remove(f"service:{peers[0].id}:Echo")
        handle = peers[1].discover(AdvertQuery("service", "Echo"))
        wait_for_results(handle)
        net.run()
        assert len(handle.results) == 1


class TestRendezvous:
    def two_group_world(self):
        """Two groups bridged by linked rendezvous peers."""
        net = Network(latency=FixedLatency(0.002))
        group_a, group_b = PeerGroup("A"), PeerGroup("B")
        peers_a, peers_b = [], []
        for i in range(3):
            peer = Peer(net.add_node(f"a{i}"), name=f"a{i}", rendezvous=(i == 0))
            peer.join(group_a)
            peers_a.append(peer)
        for i in range(3):
            peer = Peer(net.add_node(f"b{i}"), name=f"b{i}", rendezvous=(i == 0))
            peer.join(group_b)
            peers_b.append(peer)
        link_rendezvous(peers_a[0], peers_b[0])
        return net, peers_a, peers_b

    def test_query_crosses_groups_via_rendezvous(self):
        net, peers_a, peers_b = self.two_group_world()
        peers_b[1].create_input_pipe("invoke", "Remote")
        peers_b[1].publish_service("Remote", ["invoke"])
        net.run()  # advert spreads through group B (incl. its rendezvous)
        handle = peers_a[2].discover(AdvertQuery("service", "Remote"))
        results = wait_for_results(handle, timeout=5.0)
        assert len(results) == 1
        assert results[0].peer_id == peers_b[1].id

    def test_cross_group_resolution(self):
        net, peers_a, peers_b = self.two_group_world()
        peers_b[1].create_input_pipe("invoke", "Remote")
        peers_b[1].publish_service("Remote", ["invoke"])
        net.run()
        handle = peers_a[2].discover(AdvertQuery("service", "Remote"))
        (service,) = wait_for_results(handle, timeout=5.0)
        out = peers_a[2].open_output_pipe(service.pipe_named("invoke"))
        assert out.route.node_id == peers_b[1].node.id

    def test_ttl_limits_propagation(self):
        # chain of rendezvous longer than TTL: query dies before the end
        net = Network(latency=FixedLatency(0.002))
        groups = [PeerGroup(f"g{i}") for i in range(5)]
        rdvs = []
        for i in range(5):
            peer = Peer(net.add_node(f"r{i}"), name=f"r{i}", rendezvous=True)
            peer.join(groups[i])
            rdvs.append(peer)
        for a, b in zip(rdvs, rdvs[1:]):
            link_rendezvous(a, b)
        provider = Peer(net.add_node("prov"), name="prov")
        provider.join(groups[4])
        provider.create_input_pipe("invoke", "Far")
        provider.publish_service("Far", ["invoke"])
        net.run()
        seeker = Peer(net.add_node("seek"), name="seek")
        seeker.join(groups[0])
        handle = seeker.discover(AdvertQuery("service", "Far"), ttl=2)
        results = wait_for_results(handle, timeout=5.0)
        assert results == []  # 4 hops away, ttl=2 cannot reach
        handle2 = seeker.discover(AdvertQuery("service", "Far"), ttl=8)
        results2 = wait_for_results(handle2, timeout=5.0)
        assert len(results2) == 1

    def test_loop_suppression(self):
        # a triangle of rendezvous must not amplify queries forever
        net = Network(latency=FixedLatency(0.002))
        group = PeerGroup("tri")
        rdvs = []
        for i in range(3):
            peer = Peer(net.add_node(f"t{i}"), name=f"t{i}", rendezvous=True)
            peer.join(group)
            rdvs.append(peer)
        link_rendezvous(rdvs[0], rdvs[1])
        link_rendezvous(rdvs[1], rdvs[2])
        link_rendezvous(rdvs[2], rdvs[0])
        rdvs[0].discover(AdvertQuery("service", "Nothing"), ttl=10)
        fired = net.kernel.run(max_events=5000)
        assert fired < 5000  # terminates


class TestGroupMembership:
    def test_join_leave(self):
        net, group, peers = make_world(2)
        assert len(group) == 2
        peers[0].leave()
        assert len(group) == 1
        assert peers[0].id not in [m.peer_id for m in group.members()]

    def test_departed_peer_hears_nothing(self):
        net, group, peers = make_world(2)
        peers[1].leave()
        peers[0].create_input_pipe("invoke", "Echo")
        peers[0].publish_service("Echo", ["invoke"])
        net.run()
        assert peers[1].cache.get(f"service:{peers[0].id}:Echo") is None

    def test_link_requires_rendezvous(self):
        net, _, peers = make_world(2)
        with pytest.raises(ValueError):
            link_rendezvous(peers[0], peers[1])

    def test_down_peer_messages_lost_silently(self):
        net, _, peers = make_world(3)
        peers[2].node.go_down()
        peers[0].create_input_pipe("invoke", "Echo")
        peers[0].publish_service("Echo", ["invoke"])
        net.run()
        assert peers[1].cache.get(f"service:{peers[0].id}:Echo") is not None
        assert peers[2].cache.get(f"service:{peers[0].id}:Echo") is None
