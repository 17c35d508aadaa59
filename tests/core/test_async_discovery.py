"""Tests for fully event-driven discovery on both bindings."""

import pytest

from repro.core import WSPeer
from repro.core.binding import P2psBinding, StandardBinding
from repro.core.events import RecordingListener
from repro.core.query import P2PSServiceQuery, ServiceQuery
from repro.p2ps import PeerGroup
from repro.p2ps.group import link_rendezvous
from repro.p2ps.query import AdvertQuery
from repro.simnet import FixedLatency, Network
from repro.uddi import UddiRegistryNode
from tests.core.conftest import Counter, Echo


@pytest.fixture
def std_world():
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    provider.deploy(Echo(), name="EchoA")
    provider.deploy(Counter(), name="EchoB")
    provider.publish("EchoA")
    provider.publish("EchoB")
    return net, registry, provider, consumer


class TestUddiAsyncLocate:
    def test_nothing_happens_until_network_runs(self, std_world):
        net, registry, provider, consumer = std_world
        found = []
        consumer.client.locator.locate_async(ServiceQuery("Echo%"), found.append)
        assert found == []  # truly asynchronous
        net.run()
        assert sorted(h.name for h in found) == ["EchoA", "EchoB"]

    def test_on_complete_reports_count(self, std_world):
        net, registry, provider, consumer = std_world
        done = []
        consumer.client.locator.locate_async(
            ServiceQuery("Echo%"), lambda h: None,
            on_complete=lambda count, error: done.append((count, error)),
        )
        net.run()
        assert done == [(2, None)]

    def test_found_handles_are_invocable(self, std_world):
        net, registry, provider, consumer = std_world
        found = []
        consumer.client.locator.locate_async(ServiceQuery("EchoA"), found.append)
        net.run()
        assert consumer.invoke(found[0], "echo", message="via-async") == "via-async"

    def test_empty_result_completes_with_zero(self, std_world):
        net, registry, provider, consumer = std_world
        done = []
        consumer.client.locator.locate_async(
            ServiceQuery("Nothing%"), lambda h: None,
            on_complete=lambda count, error: done.append((count, error)),
        )
        net.run()
        assert done == [(0, None)]

    def test_registry_down_reports_error(self, std_world):
        net, registry, provider, consumer = std_world
        registry.node.go_down()
        consumer.client.locator.uddi.http.default_timeout = 0.5
        done = []
        consumer.client.locator.locate_async(
            ServiceQuery("Echo%"), lambda h: None,
            on_complete=lambda count, error: done.append((count, error)),
        )
        net.run()
        assert done[0][0] == 0
        assert done[0][1] is not None

    def test_discovery_events_fired(self, std_world):
        net, registry, provider, consumer = std_world
        listener = RecordingListener()
        consumer.add_listener(listener)
        consumer.client.locator.locate_async(ServiceQuery("Echo%"), lambda h: None)
        net.run()
        kinds = listener.kinds()
        assert "query-issued" in kinds
        assert kinds.count("service-found") == 2

    def test_unusable_services_skipped_but_sweep_completes(self, std_world):
        net, registry, provider, consumer = std_world
        from repro.uddi import UddiClient

        raw = UddiClient(provider.node, registry.endpoint)
        raw.publish_service("Biz", "EchoNoWsdl", "http://prov:80/x")  # no wsdl
        done = []
        found = []
        consumer.client.locator.locate_async(
            ServiceQuery("Echo%"), found.append,
            on_complete=lambda count, error: done.append(count),
        )
        net.run()
        assert done == [2]
        assert "EchoNoWsdl" not in [h.name for h in found]


@pytest.fixture
def p2ps_world():
    net = Network(latency=FixedLatency(0.002))
    group = PeerGroup("g")
    provider = WSPeer(net.add_node("pp"), P2psBinding(group), name="pp")
    provider.deploy(Echo(), name="Echo")
    provider.publish("Echo")
    net.run()
    # joins after the advert broadcast: the query travels the network
    consumer = WSPeer(net.add_node("pc"), P2psBinding(group), name="pc")
    return net, consumer


def locate_p2ps(consumer, name, timeout):
    """Start an async P2PS locate; returns (found, done) lists that fill
    as it runs, done holding (count, error, completion time)."""
    found, done = [], []
    net = consumer.node.network
    consumer.client.locator.locate_async(
        P2PSServiceQuery(name), found.append,
        on_complete=lambda count, error: done.append((count, error, net.now)),
        timeout=timeout,
    )
    return found, done


class TestP2psAsyncLocate:
    def test_async_locate_over_pipes(self, p2ps_world):
        net, consumer = p2ps_world
        found = []
        consumer.client.locator.locate_async(
            P2PSServiceQuery("Echo"), found.append
        )
        net.run()
        assert [h.name for h in found] == ["Echo"]

    def test_kernel_step_never_nests(self, p2ps_world, monkeypatch):
        net, consumer = p2ps_world
        kernel = net.kernel
        step = kernel.step
        depth = {"now": 0, "max": 0}

        def counting_step():
            depth["now"] += 1
            depth["max"] = max(depth["max"], depth["now"])
            try:
                return step()
            finally:
                depth["now"] -= 1

        monkeypatch.setattr(kernel, "step", counting_step)
        found = []
        consumer.client.locator.locate_async(P2PSServiceQuery("Echo"), found.append)
        net.run()
        assert [h.name for h in found] == ["Echo"]
        assert depth["max"] == 1

    def test_completion_reports_count_and_time(self, p2ps_world):
        net, consumer = p2ps_world
        start = net.now
        _, missed = locate_p2ps(consumer, "Nothing", timeout=2.0)
        net.run()
        assert [(count, error) for count, error, _ in missed] == [(0, None)]
        assert missed[0][2] == pytest.approx(start + 2.0)
        found, done = locate_p2ps(consumer, "Echo", timeout=2.0)
        net.run()
        assert [(count, error) for count, error, _ in done] == [(1, None)]
        assert [h.name for h in found] == ["Echo"]

    def test_find_releases_reply_pipe_and_timers(self, p2ps_world):
        net, consumer = p2ps_world
        pipes = len(consumer.peer._input_pipes)
        _, done = locate_p2ps(consumer, "Echo", timeout=5.0)
        net.run()
        assert done and done[0][:2] == (1, None)
        assert len(consumer.peer._input_pipes) == pipes
        assert net.now == done[0][2]  # nothing left to fire at +5 s
        net.run()
        assert net.now == done[0][2]

    def test_finished_locates_release_their_queries(self, p2ps_world):
        net, consumer = p2ps_world
        for _ in range(50):
            assert [h.name for h in consumer.locate("Echo")] == ["Echo"]
        locate_p2ps(consumer, "Nothing", timeout=1.0)
        net.run()
        assert consumer.peer._queries == {}

    def test_query_ttl_is_honoured(self):
        net = Network(latency=FixedLatency(0.002))
        groups = [PeerGroup(f"g{i}") for i in range(3)]
        rdvs = [
            WSPeer(net.add_node(f"r{i}"), P2psBinding(g, rendezvous=True), name=f"r{i}")
            for i, g in enumerate(groups)
        ]
        for a, b in zip(rdvs, rdvs[1:]):
            link_rendezvous(a.peer, b.peer)
        provider = WSPeer(net.add_node("far"), P2psBinding(groups[-1]), name="far")
        provider.deploy(Echo(), name="Far")
        provider.publish("Far")
        net.run()
        consumer = WSPeer(net.add_node("near"), P2psBinding(groups[0]), name="near")
        locator = consumer.client.locator
        short, enough = [], []
        locator.locate_async(P2PSServiceQuery("Far", ttl=1), short.append, timeout=1.0)
        net.run()
        # one hop: the query never reached the far group, so no advert came back
        assert consumer.peer.matches(AdvertQuery("service", "Far")) == []
        locator.locate_async(P2PSServiceQuery("Far"), enough.append, timeout=1.0)
        net.run()
        assert short == []
        assert [h.name for h in enough] == ["Far"]


class TestFacadeAsyncLocate:
    def test_facade_locate_async_uddi(self, std_world):
        net, registry, provider, consumer = std_world
        found = []
        consumer.locate_async("Echo%", found.append)
        assert found == []
        net.run()
        assert sorted(h.name for h in found) == ["EchoA", "EchoB"]

    def test_facade_locate_async_p2ps(self):
        net = Network(latency=FixedLatency(0.002))
        group = PeerGroup("g")
        provider = WSPeer(net.add_node("fp"), P2psBinding(group), name="fp")
        provider.deploy(Echo(), name="Echo")
        provider.publish("Echo")
        net.run()
        consumer = WSPeer(net.add_node("fc"), P2psBinding(group), name="fc")
        found = []
        consumer.locate_async("Echo", found.append)
        net.run()
        assert [h.name for h in found] == ["Echo"]
