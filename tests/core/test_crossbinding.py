"""Cross-binding composition (§IV / experiment E6).

"These implementations need not remain self-contained.  A P2PS Client
could use the UDDI enabled ServiceLocator defined in the standard
implementation to search for services.  Likewise, a P2PS Server could
use the UDDI conversant ServicePublisher."
"""

import pytest

from repro.core import WSPeer
from repro.core.binding import P2psBinding, StandardBinding
from repro.core.locator import UddiServiceLocator
from repro.core.publisher import UddiServicePublisher
from repro.p2ps import PeerGroup
from repro.simnet import FixedLatency, Network
from repro.uddi import UddiRegistryNode
from tests.core.conftest import Echo


@pytest.fixture
def world():
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    group = PeerGroup("main")
    return net, registry, group


class TestMixedBindings:
    def test_p2ps_client_with_uddi_locator(self, world):
        # provider is standard; the P2PS-bound consumer swaps in a UDDI
        # locator at runtime and invokes over HTTP endpoints it finds
        net, registry, group = world
        provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
        consumer = WSPeer(net.add_node("cons"), P2psBinding(group), name="cons")
        provider.deploy(Echo(), name="Echo")
        provider.publish("Echo")

        uddi_locator = UddiServiceLocator(consumer.node, registry.endpoint)
        consumer.client.register_locator(uddi_locator)
        handle = consumer.locate_one("Echo")
        assert handle.source == "uddi"

        # the located endpoints are HTTP, so invocation needs the HTTP
        # invoker — registered the same way
        from repro.core.invocation import HttpInvocation

        consumer.client.register_invocation(HttpInvocation(consumer.node))
        assert consumer.invoke(handle, "echo", message="mixed") == "mixed"

    def test_p2ps_server_with_uddi_publisher(self, world):
        # a P2PS-hosted service additionally advertises itself in UDDI;
        # a standard consumer finds it there (endpoint is p2ps)
        net, registry, group = world
        provider = WSPeer(net.add_node("pp"), P2psBinding(group), name="pp")
        provider.deploy(Echo(), name="Echo")
        provider.publish("Echo")  # p2ps advert
        net.run()

        # cross-publish to UDDI with the p2ps address in the accessPoint
        from repro.uddi import UddiClient

        uddi = UddiClient(provider.node, registry.endpoint)
        advert = provider.server.deployer.advert_for("Echo")
        from repro.wsa.p2psuri import make_p2ps_uri

        uddi.publish_service(
            "WSPeer", "Echo", make_p2ps_uri(provider.peer.id, "Echo")
        )
        (found,) = uddi.call("find_service", name_pattern="Echo", category_bag=[])
        detail = uddi.call("get_service_detail", service_key=found["serviceKey"])
        assert detail["bindingTemplates"][0]["accessPoint"].startswith("p2ps://")
        assert advert.name == "Echo"

    def test_dual_consumer_same_service_both_paths(self, world):
        # one provider reachable both ways: standard deploy + p2ps deploy
        net, registry, group = world
        node = net.add_node("dual")
        standard = WSPeer(node, StandardBinding(registry.endpoint), name="dual-std")
        p2ps = WSPeer(net.add_node("dual2"), P2psBinding(group), name="dual-p2p")
        standard.deploy(Echo(), name="Echo")
        standard.publish("Echo")
        p2ps.deploy(Echo(), name="Echo")
        p2ps.publish("Echo")
        net.run()

        http_consumer = WSPeer(net.add_node("hc"), StandardBinding(registry.endpoint))
        p2ps_consumer = WSPeer(net.add_node("pc"), P2psBinding(group), name="pcons")
        h1 = http_consumer.locate_one("Echo")
        h2 = p2ps_consumer.locate_one("Echo")
        assert http_consumer.invoke(h1, "echo", message="a") == "a"
        assert p2ps_consumer.invoke(h2, "echo", message="b") == "b"
        assert h1.schemes == ["http"]
        assert h2.schemes == ["p2ps"]

    def test_uddi_publisher_refuses_pipe_only_service(self, world):
        # the UDDI publisher needs an HTTP endpoint; P2PS-only deploys
        # fail loudly rather than publishing a dead access point
        net, registry, group = world
        provider = WSPeer(net.add_node("po"), P2psBinding(group), name="po")
        provider.deploy(Echo(), name="Echo")
        publisher = UddiServicePublisher(provider.node, registry.endpoint)
        from repro.core.errors import DeploymentError

        deployed = provider.server.container.get("Echo")
        with pytest.raises(DeploymentError):
            publisher.publish(deployed)
