"""Tests for NAT gates and relay routing (§IV-B firewalled peers)."""

import pytest

from repro.core import WSPeer
from repro.core.binding import P2psBinding
from repro.p2ps import AdvertQuery, Peer, PeerGroup, PipeAdvertisement
from repro.simnet import FixedLatency, Network
from repro.simnet.faults import NatGate
from tests.p2ps.support import wait_for_results


class TestNatGate:
    def build(self):
        net = Network(latency=FixedLatency(0.002))
        inside = net.add_node("inside")
        outside = net.add_node("outside")
        gate = NatGate(net, "inside")
        got_inside, got_outside = [], []
        inside.open_port("in", got_inside.append)
        outside.open_port("in", got_outside.append)
        return net, inside, outside, gate, got_inside, got_outside

    def test_cold_inbound_blocked(self):
        net, inside, outside, gate, got_inside, _ = self.build()
        outside.send("inside", "in", "knock")
        net.run()
        assert got_inside == []
        assert gate.blocked == 1

    def test_outbound_allowed_and_opens_session(self):
        net, inside, outside, gate, got_inside, got_outside = self.build()
        inside.send("outside", "in", "hello")
        net.run()
        assert len(got_outside) == 1
        # now the reply gets through the session
        outside.send("inside", "in", "reply")
        net.run()
        assert len(got_inside) == 1
        assert gate.blocked == 0

    def test_session_is_per_remote(self):
        net, inside, outside, gate, got_inside, _ = self.build()
        third = net.add_node("third")
        inside.send("outside", "in", "hello")
        net.run()
        third.send("inside", "in", "stranger")
        net.run()
        assert got_inside == []  # session with 'outside' does not admit 'third'

    def test_remove_gate(self):
        net, inside, outside, gate, got_inside, _ = self.build()
        gate.remove()
        outside.send("inside", "in", "open-now")
        net.run()
        assert len(got_inside) == 1


class TestRelayPeers:
    def build_world(self):
        net = Network(latency=FixedLatency(0.002))
        group = PeerGroup("g")
        relay = Peer(net.add_node("relay"), name="relay", rendezvous=True)
        relay.join(group)
        public = Peer(net.add_node("public"), name="public")
        public.join(group)
        natted = Peer(net.add_node("natted"), name="natted", nat=True, relay=relay)
        natted.join(group)
        net.run()  # hello settles
        return net, group, relay, public, natted

    def test_nat_requires_relay(self):
        net = Network()
        with pytest.raises(ValueError):
            Peer(net.add_node("lonely"), nat=True)

    def test_advert_carries_relay(self):
        net, group, relay, public, natted = self.build_world()
        advert = natted.advertisement()
        assert advert.relay_node == "relay"

    def test_direct_frames_to_natted_pipe_blocked(self):
        net, group, relay, public, natted = self.build_world()
        got = []
        _, advert = natted.create_input_pipe("inbox", listener=lambda p, m: got.append(p))
        # force a direct (relay-less) route: this is what a peer that
        # ignored the relay field would do
        from repro.p2ps.pipes import OutputPipe, Route

        direct = OutputPipe(advert, public.node, Route("natted"))
        public.send_down_pipe(direct, "cold-call")
        net.run()
        assert got == []

    def test_relay_route_reaches_natted_pipe(self):
        net, group, relay, public, natted = self.build_world()
        got = []
        _, advert = natted.create_input_pipe("inbox", listener=lambda p, m: got.append(p))
        public.resolver.learn(natted.id, "natted", relay_node="relay")
        out = public.open_output_pipe(advert)
        assert out.route.relay_node == "relay"
        public.send_down_pipe(out, "via-relay")
        net.run()
        assert got == ["via-relay"]
        assert relay.relayed_frames == 1

    def test_route_learned_from_query_response(self):
        net, group, relay, public, natted = self.build_world()
        natted.create_input_pipe("invoke", "Hidden")
        natted.publish_service("Hidden", ["invoke"])
        net.run()
        handle = public.discover(AdvertQuery("service", "Hidden"))
        (service,) = wait_for_results(handle, timeout=5.0)
        out = public.open_output_pipe(service.pipe_named("invoke"))
        assert out.route.relay_node == "relay"

    def test_frame_with_new_relay_updates_route(self):
        """A pipe frame re-states its sender's route; a known route is
        kept as it is, a changed relay (or node) replaces it."""
        net, group, relay, public, natted = self.build_world()
        got = []
        _, inbox = public.create_input_pipe("inbox", listener=lambda p, m: got.append(p))
        natted.resolver.learn(public.id, "public")
        out = natted.open_output_pipe(inbox)
        to_natted = PipeAdvertisement("pipe-x", "x", natted.id)
        natted.send_down_pipe(out, "one")
        net.run()
        known = public.resolver.resolve(to_natted)
        assert (known.node_id, known.relay_node) == ("natted", "relay")
        natted.send_down_pipe(out, "two")
        net.run()
        assert public.resolver.resolve(to_natted) is known  # nothing new: kept

        Peer(net.add_node("relay-2"), name="relay-2")
        natted.relay_node_id = "relay-2"  # the NATed peer moved to another relay
        natted.send_down_pipe(out, "three")
        net.run()
        moved = public.resolver.resolve(to_natted)
        assert (moved.node_id, moved.relay_node) == ("natted", "relay-2")
        assert got == ["one", "two", "three"]

    def test_frame_from_new_node_updates_route(self):
        net, group, relay, public, natted = self.build_world()
        _, inbox = public.create_input_pipe("inbox")
        public.resolver.learn(natted.id, "elsewhere", "relay")  # a stale route
        natted.resolver.learn(public.id, "public")
        natted.send_down_pipe(natted.open_output_pipe(inbox), "here")
        net.run()
        route = public.resolver.resolve(PipeAdvertisement("pipe-x", "x", natted.id))
        assert (route.node_id, route.relay_node) == ("natted", "relay")

    def test_natted_replies_flow_directly(self):
        # hole punching: the NATed peer's own outbound frames open
        # sessions, so replies to it skip the relay
        net, group, relay, public, natted = self.build_world()
        got = []
        _, reply_advert = natted.create_input_pipe(
            "reply", listener=lambda p, m: got.append(p)
        )
        # natted initiates contact with public (outbound, allowed); it
        # learned nothing from broadcasts (its NAT blocked them), so it
        # must be told where public lives
        inbox, inbox_advert = public.create_input_pipe("inbox")
        natted.resolver.learn(public.id, "public")
        natted.send_down_pipe(natted.open_output_pipe(inbox_advert), "ping")
        net.run()
        # public can now reach natted directly through the session
        public.node.send("natted", f"pipe:{reply_advert.pipe_id}", "pong")
        net.run()
        assert got == ["pong"]


class TestNattedWSPeer:
    def test_full_service_behind_nat(self):
        """A WSPeer-hosted service behind NAT, invoked end-to-end via relay."""
        net = Network(latency=FixedLatency(0.002))
        group = PeerGroup("g")
        relay_peer = Peer(net.add_node("relay"), name="relay", rendezvous=True)
        relay_peer.join(group)

        provider = WSPeer(net.add_node("hidden"), P2psBinding(group), name="hidden")
        # retrofit NAT: swap the provider's peer for a NATed one is
        # intrusive; instead gate the node and register with the relay
        provider.peer.relay_node_id = "relay"
        provider.peer._safe_send("relay", "<hello/>")
        net.run()
        gate = NatGate(net, "hidden")
        provider.peer.nat_gate = gate

        class Secret:
            def reveal(self) -> str:
                return "42"

        provider.deploy(Secret(), name="Secret")
        provider.publish("Secret")
        net.run()

        consumer = WSPeer(net.add_node("seeker"), P2psBinding(group), name="seeker")
        handle = consumer.locate_one("Secret", timeout=5.0)
        assert consumer.invoke(handle, "reveal", timeout=5.0) == "42"
        # the exchange rode the relay; the seeker's cold query broadcast
        # to the hidden node was (correctly) eaten by the NAT, and the
        # relay's cached advert answered instead
        assert relay_peer.relayed_frames > 0
        assert gate.blocked >= 1
