"""Shared fixtures: traced worlds on both bindings.

The canonical setup is one :class:`SpanTracer` (with a *private*
metrics registry, so tests never couple through the process-wide
default) attached to consumer AND provider peers — the multi-peer
stitching the tentpole is about.
"""

import pytest

from repro.core import ServiceHandle, WSPeer
from repro.core.binding import P2psBinding, StandardBinding
from repro.observability import MetricsRegistry, SpanTracer
from repro.observability.tracecontext import set_propagation
from repro.p2ps import PeerGroup
from repro.simnet import FixedLatency, Network, TraceLog
from repro.uddi import UddiRegistryNode


class Echo:
    def echo(self, message: str) -> str:
        return message


@pytest.fixture
def tracer():
    return SpanTracer(metrics=MetricsRegistry())


@pytest.fixture
def net():
    return Network(latency=FixedLatency(0.002))


@pytest.fixture
def registry_node(net):
    return UddiRegistryNode(net.add_node("registry"))


@pytest.fixture
def http_world(net, registry_node, tracer):
    """(consumer, provider, handle) on the standard binding, traced."""
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry_node.endpoint))
    provider.deploy(Echo(), name="Echo")
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry_node.endpoint))
    tracer.install(consumer, provider)
    set_propagation(True)
    return consumer, provider, provider.local_handle("Echo")


@pytest.fixture
def p2ps_world(net, tracer):
    """(consumer, provider, handle) on the p2ps binding, traced."""
    group = PeerGroup("g")
    provider = WSPeer(net.add_node("pprov"), P2psBinding(group), name="pprov")
    provider.deploy(Echo(), name="Echo")
    provider.publish("Echo")
    consumer = WSPeer(net.add_node("pcons"), P2psBinding(group), name="pcons")
    tracer.install(consumer, provider)
    set_propagation(True)
    net.run()  # let adverts settle
    return consumer, provider, consumer.locate_one("Echo")


def build_replicated_http_world(net, registry_node, tracer, n_providers=3):
    """N providers of one logical service + a traced consumer; returns
    (providers, consumer, merged_handle)."""
    providers = []
    for i in range(n_providers):
        peer = WSPeer(
            net.add_node(f"prov{i}"), StandardBinding(registry_node.endpoint)
        )
        peer.deploy(Echo(), name="Echo")
        providers.append(peer)
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry_node.endpoint))
    tracer.install(*providers, consumer)
    set_propagation(True)
    locals_ = [p.local_handle("Echo") for p in providers]
    endpoints = [epr for h in locals_ for epr in h.endpoints]
    handle = ServiceHandle("Echo", locals_[0].wsdl, endpoints, source="merged")
    return providers, consumer, handle
