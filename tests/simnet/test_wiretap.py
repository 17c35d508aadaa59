"""Tests for the wiretap conversation inspector."""

import pytest

from repro.core import WSPeer
from repro.core.binding import P2psBinding, StandardBinding
from repro.p2ps import PeerGroup
from repro.simnet import FixedLatency, Network
from repro.simnet.wiretap import Wiretap, classify
from repro.uddi import UddiRegistryNode


class Echo:
    def echo(self, message: str) -> str:
        return message


@pytest.fixture
def tapped_standard_world():
    net = Network(latency=FixedLatency(0.002))
    tap = Wiretap(net)
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    provider.deploy(Echo(), name="Echo")
    provider.publish("Echo")
    return net, tap, provider, consumer


class TestCapture:
    def test_records_every_frame(self, tapped_standard_world):
        net, tap, provider, consumer = tapped_standard_world
        tap.clear()
        handle = consumer.locate_one("Echo")
        consumer.invoke(handle, "echo", message="x")
        assert len(tap) > 0
        # delivery unaffected by observation
        assert net.stats.total() > 0

    def test_soap_operations_identified(self, tapped_standard_world):
        net, tap, provider, consumer = tapped_standard_world
        tap.clear()
        handle = consumer.locate_one("Echo")
        consumer.invoke(handle, "echo", message="x")
        summaries = [r.summary for r in tap.records]
        assert any("SOAP echo" in s for s in summaries)
        assert any("SOAP echoResponse" in s for s in summaries)

    def test_http_methods_identified(self, tapped_standard_world):
        net, tap, provider, consumer = tapped_standard_world
        tap.clear()
        consumer.locate_one("Echo")
        summaries = [r.summary for r in tap.records]
        assert any(s.startswith("HTTP POST") for s in summaries)
        assert any(s.startswith("HTTP GET") for s in summaries)  # wsdl fetch
        assert any(s.startswith("HTTP 200") for s in summaries)

    def test_p2ps_messages_identified(self):
        net = Network(latency=FixedLatency(0.002))
        tap = Wiretap(net)
        group = PeerGroup("g")
        provider = WSPeer(net.add_node("pp"), P2psBinding(group), name="pp")
        consumer = WSPeer(net.add_node("pc"), P2psBinding(group), name="pc")
        provider.deploy(Echo(), name="Echo")
        provider.publish("Echo")
        net.run()
        handle = consumer.locate_one("Echo")
        consumer.invoke(handle, "echo", message="x")
        summaries = [r.summary for r in tap.records]
        assert any(s == "P2PS advert" for s in summaries)
        assert any("SOAP echo" in s for s in summaries)
        assert any(s == "WSDL document" for s in summaries)

    def test_between_and_involving(self, tapped_standard_world):
        net, tap, provider, consumer = tapped_standard_world
        tap.clear()
        handle = consumer.locate_one("Echo")
        consumer.invoke(handle, "echo", message="x")
        direct = tap.between("cons", "prov")
        assert direct and all({"cons", "prov"} == {r.src, r.dst} for r in direct)
        assert any("registry" in (r.src, r.dst) for r in tap.records)

    def test_render_sequence(self, tapped_standard_world):
        net, tap, provider, consumer = tapped_standard_world
        tap.clear()
        consumer.locate_one("Echo")
        text = tap.render_sequence(limit=5)
        assert "cons -> registry" in text
        assert "ms" in text

    def test_render_truncation_notice(self, tapped_standard_world):
        net, tap, provider, consumer = tapped_standard_world
        tap.clear()
        consumer.locate_one("Echo")
        text = tap.render_sequence(limit=1)
        assert "more frames" in text

    def test_summary_counts(self, tapped_standard_world):
        net, tap, provider, consumer = tapped_standard_world
        tap.clear()
        consumer.locate_one("Echo")
        counts = tap.summary_counts()
        assert sum(counts.values()) == len(tap)

    def test_max_records_cap(self):
        net = Network(latency=FixedLatency(0.001))
        tap = Wiretap(net, max_records=3)
        a, b = net.add_node("a"), net.add_node("b")
        b.open_port("in", lambda f: None)
        for _ in range(10):
            a.send("b", "in", "x")
        net.run()
        assert len(tap) == 3
        assert net.stats.get("b") == 10  # delivery unaffected

    def test_detach(self):
        net = Network(latency=FixedLatency(0.001))
        tap = Wiretap(net)
        a, b = net.add_node("a"), net.add_node("b")
        b.open_port("in", lambda f: None)
        tap.detach()
        a.send("b", "in", "x")
        net.run()
        assert len(tap) == 0


class TestClassify:
    def test_raw_data_fallback(self):
        from repro.simnet.network import Frame

        assert classify(Frame("a", "b", "weird", "12345")) == "5B on weird"

    def test_pipe_data_fallback(self):
        from repro.simnet.network import Frame

        assert classify(Frame("a", "b", "pipe:p-1", "raw-bytes")) == "pipe data"
