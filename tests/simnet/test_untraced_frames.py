"""What a frame costs and leaves behind when nobody traces it.

A frame lost to a destination that went down while it flew, or sent to
a node that does not exist, is counted whether or not the trace is on.
A trace sink still hears every frame record, with the same detail, when
the trace itself is disabled; with no sink and the trace off, steady
calls never reach ``TraceLog.emit`` at all.
"""

import pytest

from repro.core import WSPeer
from repro.core.binding import P2psBinding, StandardBinding
from repro.observability import metrics as obs_metrics
from repro.p2ps import PeerGroup
from repro.simnet import ChurnSchedule, FixedLatency, Network, TraceLog
from repro.uddi import UddiRegistryNode


class Echo:
    def echo(self, message: str) -> str:
        return message


class TestLostFramesAreCounted:
    def test_destination_down_on_arrival(self):
        net = Network(latency=FixedLatency(0.01))
        a, b = net.add_node("a"), net.add_node("b")
        got = []
        b.open_port("in", got.append)
        before = obs_metrics.default_registry().get("simnet.frames_lost")
        a.send("b", "in", "in flight")
        ChurnSchedule(net).kill("b")
        net.run()
        assert got == []
        assert net.lost.get("b") == 1
        assert net.lost.total() == 1
        assert obs_metrics.default_registry().get("simnet.frames_lost") == before + 1
        assert len(net.trace) == 0

    def test_unknown_destination(self):
        net = Network(latency=FixedLatency(0.01))
        a = net.add_node("a")
        before = obs_metrics.default_registry().get("simnet.frames_unroutable")
        a.send("zz", "in", "nowhere")
        net.run()
        assert net.unroutable.get("zz") == 1
        assert net.unroutable.total() == 1
        assert obs_metrics.default_registry().get("simnet.frames_unroutable") == before + 1
        assert net.lost.total() == 0
        assert len(net.trace) == 0


def test_disabled_trace_still_feeds_its_sink():
    records = []

    def sink(time, kind, detail):
        records.append((round(time, 6), kind, detail))

    trace = TraceLog(enabled=False, sink=sink)
    net = Network(latency=FixedLatency(0.01), trace=trace)
    a, b = net.add_node("a"), net.add_node("b")
    b.open_port("in", lambda frame: None)
    a.send("b", "in", "plain")
    a.send("b", "in", "conn", conn="c1")
    a.send("b", "in", "gossip", gossip="g1", conn="c2")
    net.run()
    drop = lambda frame: frame.payload != "drop-me"  # noqa: E731
    net.add_delivery_hook(drop)
    a.send("b", "in", "drop-me", conn="c3")
    net.remove_delivery_hook(drop)
    a.send("b", "in", "lost", conn="c4")
    b.go_down()
    net.run()
    b.go_up()
    a.send("zz", "in", "nowhere", conn="c5")
    frame = {"src": "a", "dst": "b", "port": "in"}
    assert records == [
        (0.0, "sent", {**frame, "size": 5}),
        (0.0, "sent", {**frame, "size": 4, "conn": "c1"}),
        (0.0, "sent", {**frame, "size": 6, "conn": "c2", "gossip": "g1"}),
        (0.01, "delivered", frame),
        (0.01, "delivered", {**frame, "conn": "c1"}),
        (0.01, "delivered", {**frame, "conn": "c2", "gossip": "g1"}),
        (0.01, "dropped", {**frame, "conn": "c3"}),
        (0.01, "sent", {**frame, "size": 4, "conn": "c4"}),
        (0.01, "node-down", {"node": "b"}),
        (0.02, "lost", {**frame, "conn": "c4"}),
        (0.02, "node-up", {"node": "b"}),
        (0.02, "unroutable", {"src": "a", "dst": "zz"}),
    ]
    assert len(trace) == 0  # forwarded, not retained


def http_world():
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    provider.deploy(Echo(), name="Echo")
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    return net, consumer, provider.local_handle("Echo")


def p2ps_world():
    net = Network(latency=FixedLatency(0.002))
    group = PeerGroup("g")
    provider = WSPeer(net.add_node("pprov"), P2psBinding(group), name="pprov")
    provider.deploy(Echo(), name="Echo")
    provider.publish("Echo")
    consumer = WSPeer(net.add_node("pcons"), P2psBinding(group), name="pcons")
    net.run()
    return net, consumer, consumer.locate_one("Echo")


@pytest.mark.parametrize("world", [http_world, p2ps_world], ids=["echo_http", "echo_p2ps"])
def test_untraced_steady_calls_never_emit(world, monkeypatch):
    net, consumer, handle = world()
    assert not net.trace.enabled and net.trace.sink is None
    assert consumer.invoke(handle, "echo", {"message": "warm"}) == "warm"
    emitted = []

    def exploding_emit(self, time, kind, **detail):
        emitted.append(kind)
        raise AssertionError(f"emit({kind!r}) on a disabled trace with no sink")

    monkeypatch.setattr(TraceLog, "emit", exploding_emit)
    for i in range(50):
        assert consumer.invoke(handle, "echo", {"message": f"m{i}"}) == f"m{i}"
    assert emitted == []
