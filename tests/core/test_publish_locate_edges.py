"""Edge-case coverage: publisher withdrawal, locator failures, handles."""

import pytest

from repro.core import DiscoveryError, ServiceHandle, WSPeer
from repro.core.binding import P2psBinding, StandardBinding
from repro.core.events import RecordingListener
from repro.p2ps import PeerGroup
from repro.simnet import FixedLatency, Network
from repro.uddi import UddiRegistryNode
from repro.wsa import EndpointReference
from repro.wsdl.model import WsdlDefinition
from tests.core.conftest import Echo


@pytest.fixture
def std_world():
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    return net, registry, provider, consumer


class TestWithdraw:
    def test_uddi_withdraw_removes_from_registry(self, std_world):
        net, registry, provider, consumer = std_world
        provider.deploy(Echo(), name="Echo")
        provider.publish("Echo")
        assert consumer.locate("Echo")
        deployed = provider.server.container.get("Echo")
        provider.server.publisher.withdraw(deployed)
        assert consumer.locate("Echo") == []

    def test_uddi_withdraw_fires_event(self, std_world):
        net, registry, provider, consumer = std_world
        listener = RecordingListener()
        provider.add_listener(listener)
        provider.deploy(Echo(), name="Echo")
        provider.publish("Echo")
        provider.server.publisher.withdraw(provider.server.container.get("Echo"))
        assert listener.of_kind("withdrawn")

    def test_p2ps_withdraw_removes_local_advert(self):
        net = Network(latency=FixedLatency(0.002))
        group = PeerGroup("g")
        provider = WSPeer(net.add_node("pp"), P2psBinding(group), name="pp")
        provider.deploy(Echo(), name="Echo")
        provider.publish("Echo")
        deployed = provider.server.container.get("Echo")
        provider.server.publisher.withdraw(deployed)
        advert_key = f"service:{provider.peer.id}:Echo"
        assert provider.peer.lookup(advert_key) is None


class TestLocatorFailures:
    def test_uddi_unreachable_raises_discovery_error(self, std_world):
        net, registry, provider, consumer = std_world
        registry.node.go_down()
        consumer.client.locator.uddi.http.default_timeout = 0.5
        with pytest.raises(DiscoveryError):
            consumer.locate("Anything")

    def test_uddi_query_failed_event(self, std_world):
        net, registry, provider, consumer = std_world
        listener = RecordingListener()
        consumer.add_listener(listener)
        registry.node.go_down()
        consumer.client.locator.uddi.http.default_timeout = 0.5
        with pytest.raises(DiscoveryError):
            consumer.locate("Anything")
        assert listener.of_kind("query-failed")

    def test_service_without_wsdl_skipped(self, std_world):
        # a service published without a wsdlSpec tModel cannot be used
        net, registry, provider, consumer = std_world
        from repro.uddi import UddiClient

        raw = UddiClient(provider.node, registry.endpoint)
        raw.publish_service("Biz", "NoWsdl", "http://prov:80/services/NoWsdl")
        listener = RecordingListener()
        consumer.add_listener(listener)
        assert consumer.locate("NoWsdl") == []
        skipped = listener.of_kind("service-skipped")
        assert skipped and "wsdl" in skipped[0].detail["reason"].lower()

    def test_dead_wsdl_host_skipped(self, std_world):
        net, registry, provider, consumer = std_world
        provider.deploy(Echo(), name="Echo")
        provider.publish("Echo")
        provider.node.go_down()
        consumer.client.locator.http.default_timeout = 0.5
        assert consumer.locate("Echo") == []

    def test_p2ps_definition_pipe_timeout_skips_service(self):
        net = Network(latency=FixedLatency(0.002))
        group = PeerGroup("g")
        provider = WSPeer(net.add_node("pp"), P2psBinding(group), name="pp")
        consumer = WSPeer(net.add_node("pc"), P2psBinding(group), name="pc")
        provider.deploy(Echo(), name="Echo")
        provider.publish("Echo")
        net.run()
        provider.node.go_down()  # advert cached at consumer, provider dead
        listener = RecordingListener()
        consumer.add_listener(listener)
        assert consumer.locate("Echo", timeout=1.0) == []
        assert listener.of_kind("service-skipped")

    def test_locate_one_error_message_includes_query(self, std_world):
        net, registry, provider, consumer = std_world
        with pytest.raises(DiscoveryError, match="Ghost"):
            consumer.locate_one("Ghost")


class TestServiceHandle:
    def make_handle(self):
        wsdl = WsdlDefinition("Svc", "urn:svc")
        return ServiceHandle(
            "Svc",
            wsdl,
            [
                EndpointReference("http://a:80/services/Svc"),
                EndpointReference("p2ps://peer-1/Svc"),
            ],
            source="uddi",
        )

    def test_endpoint_for_scheme(self):
        handle = self.make_handle()
        assert handle.endpoint_for_scheme("http").address.startswith("http://")
        assert handle.endpoint_for_scheme("p2ps").address.startswith("p2ps://")
        assert handle.endpoint_for_scheme("ftp") is None

    def test_schemes_deduped_ordered(self):
        handle = self.make_handle()
        handle.endpoints.append(EndpointReference("http://b:80/x"))
        assert handle.schemes == ["http", "p2ps"]

    def test_namespace_from_wsdl(self):
        assert self.make_handle().namespace == "urn:svc"

    def test_operation_names_empty_wsdl(self):
        assert self.make_handle().operation_names() == []


class TestFacadeMisc:
    def test_invoke_kwargs_and_dict_merge(self, std_world):
        net, registry, provider, consumer = std_world

        class TwoArg:
            def combine(self, a, b):
                return f"{a}+{b}"

        provider.deploy(TwoArg(), name="Two")
        handle = provider.local_handle("Two")
        assert consumer.invoke(handle, "combine", {"a": "x"}, b="y") == "x+y"

    def test_deploy_accepts_prepared_service_object(self, std_world):
        net, registry, provider, consumer = std_world
        from repro.soap import ServiceObject

        service = ServiceObject("Prepared", "urn:prep")
        service.map_operation("ping", Echo(), "echo")
        provider.deploy(service)
        handle = provider.local_handle("Prepared")
        assert consumer.invoke(handle, "ping", message="pong") == "pong"

    def test_repr_is_informative(self, std_world):
        net, registry, provider, consumer = std_world
        provider.deploy(Echo(), name="Echo")
        text = repr(provider)
        assert "Echo" in text and "standard" in text
