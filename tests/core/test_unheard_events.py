"""An unheard event is never built.

With no listener anywhere on a node's path to the root, its ``fire_*``
helpers build no :class:`PeerEvent`.  A listener added between two
calls hears the whole of the second one: the four events, with the
kind, source and detail they always had.
"""

import pytest

from repro.core import WSPeer
from repro.core import events
from repro.core.binding import P2psBinding, StandardBinding
from repro.core.events import EventSource, RecordingListener
from repro.p2ps import PeerGroup
from repro.simnet import FixedLatency, Network
from repro.soap.envelope import SoapEnvelope
from repro.uddi import UddiRegistryNode

EVENT_CLASSES = (
    events.ClientMessageEvent,
    events.ServerMessageEvent,
    events.DiscoveryMessageEvent,
    events.PublishMessageEvent,
    events.DeploymentMessageEvent,
)


class Echo:
    def echo(self, message: str) -> str:
        return message


def http_world():
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    provider.deploy(Echo(), name="Echo")
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    return consumer, provider, provider.local_handle("Echo"), "http"


def p2ps_world():
    net = Network(latency=FixedLatency(0.002))
    group = PeerGroup("g")
    provider = WSPeer(net.add_node("pprov"), P2psBinding(group), name="pprov")
    provider.deploy(Echo(), name="Echo")
    provider.publish("Echo")
    consumer = WSPeer(net.add_node("pcons"), P2psBinding(group), name="pcons")
    net.run()
    return consumer, provider, consumer.locate_one("Echo"), "p2ps"


worlds = pytest.mark.parametrize("world", [http_world, p2ps_world], ids=["http", "p2ps"])


@pytest.fixture
def built(monkeypatch):
    """Counts every tree event constructed while the test runs."""
    counts = []
    for cls in EVENT_CLASSES:
        original = cls.__init__

        def spy(self, *args, _original=original, **kwargs):
            counts.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    return counts


@worlds
def test_a_call_nobody_hears_builds_no_event(world, built):
    consumer, _, handle, _ = world()
    built.clear()  # deploy, publish and locate, above, are not the call
    for i in range(5):
        assert consumer.invoke(handle, "echo", {"message": f"m{i}"}) == f"m{i}"
    assert built == []


def test_a_listener_anywhere_on_the_path_is_heard(built):
    root = EventSource("root")
    leaf = EventSource("leaf", parent=EventSource("middle", parent=root))
    leaf.fire_client("request-sent", message_id="m")
    assert built == []
    heard = RecordingListener()
    root.add_listener(heard)
    leaf.fire_client("request-sent", message_id="m")
    leaf.fire_server("request-received")
    assert [(type(e).__name__, e.kind, e.source, e.detail) for e in heard.events] == [
        ("ClientMessageEvent", "request-sent", "leaf", {"message_id": "m"}),
        ("ServerMessageEvent", "request-received", "leaf", {}),
    ]
    root.remove_listener(heard)
    leaf.fire_discovery("query-issued")
    assert len(built) == 2


@worlds
def test_a_listener_added_between_calls_hears_the_whole_second_call(world):
    consumer, provider, handle, scheme = world()
    endpoint = handle.endpoint_for_scheme(scheme).address
    assert consumer.invoke(handle, "echo", {"message": "one"}) == "one"
    heard = RecordingListener()
    consumer.add_listener(heard)
    provider.add_listener(heard)
    assert consumer.invoke(handle, "echo", {"message": "two"}) == "two"
    got = [(type(e).__name__, e.kind, e.source, dict(e.detail)) for e in heard.events]
    message_id = got[0][3]["message_id"]
    assert message_id.startswith("urn:uuid:")
    envelopes = [detail.pop("envelope", None) for _, _, _, detail in got]
    call = {"message_id": message_id, "operation": "echo", "service": "Echo"}
    assert got == [
        ("ClientMessageEvent", "request-sent", "invocation", {**call, "endpoint": endpoint}),
        ("ServerMessageEvent", "request-received", "container", call),
        ("ServerMessageEvent", "response-sent", "container", {**call, "fault": False}),
        ("ClientMessageEvent", "response-received", "invocation", call),
    ]
    assert [env.body_name.local if env is not None else None for env in envelopes] == [
        None, "echo", "echoResponse", None,
    ]
    assert all(isinstance(env, SoapEnvelope) for env in envelopes[1:3])
    times = [e.time for e in heard.events]
    assert times == sorted(times) and times[0] < times[-1]
