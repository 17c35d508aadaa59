"""A matched request is read once.

A decoded head reads its addressing headers through its shape's plan,
worked out when the shape is first read, so a steady call looks no
header up by name: ``extract_from`` reads To, Action, MessageID,
RelatesTo, the trace context and the ReplyTo off the slot texts, and
every later stage takes them from the context.  An untraced request
never enters ``trace_activate``; a traced one continues the context
the MAPs read.
"""

import pytest

from repro.core import WSPeer, hosting
from repro.core.binding import StandardBinding
from repro.core.events import RecordingListener
from repro.observability import tracecontext
from repro.simnet import FixedLatency, Network
from repro.soap.envelope import DeferredHeaders
from repro.uddi import UddiRegistryNode


class Echo:
    def echo(self, message: str) -> str:
        return message


@pytest.fixture
def world():
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    provider.deploy(Echo(), name="Echo")
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    handle = provider.local_handle("Echo")
    for i in range(3):  # the request's shape is cut on its second sighting
        assert consumer.invoke(handle, "echo", {"message": f"warm {i}"}) == f"warm {i}"
    yield consumer, provider, handle
    tracecontext.reset()


@pytest.fixture
def spied(monkeypatch):
    """Counts by-name header reads, trace activations and raw context reads."""
    calls = {"text": 0, "activate": [], "raw": 0}
    text, activate, raw = DeferredHeaders.text, hosting.trace_activate, hosting.raw_context_of

    def spy_text(self, name):
        calls["text"] += 1
        return text(self, name)

    def spy_activate(ctx):
        calls["activate"].append(ctx)
        return activate(ctx)

    def spy_raw(envelope):
        calls["raw"] += 1
        return raw(envelope)

    monkeypatch.setattr(DeferredHeaders, "text", spy_text)
    monkeypatch.setattr(hosting, "trace_activate", spy_activate)
    monkeypatch.setattr(hosting, "raw_context_of", spy_raw)
    return calls


def test_an_untraced_matched_request_reads_no_header_by_name(world, spied):
    consumer, _, handle = world
    for i in range(5):
        assert consumer.invoke(handle, "echo", {"message": f"m{i}"}) == f"m{i}"
    assert spied == {"text": 0, "activate": [], "raw": 0}


def test_a_traced_request_continues_the_context_its_maps_read(world, spied):
    consumer, provider, handle = world
    tracecontext.set_propagation(True)
    heard = RecordingListener()
    consumer.add_listener(heard)
    provider.add_listener(heard)
    for i in range(3):
        assert consumer.invoke(handle, "echo", {"message": f"t{i}"}) == f"t{i}"
    assert spied["text"] == 0 and spied["raw"] == 0
    received = [e.detail for e in heard.events if e.kind == "request-received"]
    assert len(received) == len(spied["activate"]) == 3
    for detail, active in zip(received, spied["activate"]):
        # the server span is a child of the span the request carried
        assert active.trace_id == detail["trace_id"] and active.span_id == detail["span_id"]
        assert detail["parent_span_id"] is not None


def test_an_unaddressed_request_still_reads_its_trace_header(world, spied):
    """No MAPs (no To): the context comes off the header by name."""
    _, provider, _ = world
    tracecontext.set_propagation(True)
    ctx = tracecontext.TraceContext.new_root()
    wire = (
        '<?xml version="1.0" encoding="utf-8"?><soapenv:Envelope '
        'xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"><soapenv:Header>'
        f'<rt:TraceContext xmlns:rt="{tracecontext.TRACE_NS}">{tracecontext.encode(ctx)}'
        '</rt:TraceContext></soapenv:Header><soapenv:Body><tns:echo xmlns:tns="urn:wspeer:Echo">'
        "<message>m</message></tns:echo></soapenv:Body></soapenv:Envelope>"
    )
    context = provider.server.container.serve("Echo", wire)
    assert not context.fault
    assert spied["raw"] == 1
    (active,) = spied["activate"]
    assert active.trace_id == ctx.trace_id and active.parent_id == ctx.span_id
