"""Integration tests: UDDI registry over SOAP/HTTP on the simnet."""

import pytest

from repro.simnet import FixedLatency, Network
from repro.soap import SoapFault
from repro.uddi import UddiClient, UddiRegistryNode


@pytest.fixture
def world():
    net = Network(latency=FixedLatency(0.002))
    registry_node = UddiRegistryNode(net.add_node("registry"))
    client_node = net.add_node("client")
    client = UddiClient(client_node, registry_node.endpoint)
    return net, registry_node, client


def find(client, name_pattern="%", categories=()):
    return client.call("find_service", name_pattern=name_pattern, category_bag=list(categories))


def wsdl_url_of(client, name):
    """The classic UDDI v2 chain (find_service -> get_serviceDetail ->
    get_tModelDetail) that E12's baseline drives."""
    (service,) = find(client, name)
    detail = client.call("get_service_detail", service_key=service["serviceKey"])
    keys = [k for b in detail["bindingTemplates"] for k in b["tModelKeys"]]
    return client.call("get_tmodel_detail", tmodel_key=keys[0])["overviewURL"] if keys else ""


class TestRemoteRegistry:
    def test_publish_and_find(self, world):
        net, registry_node, client = world
        client.publish_service(
            "Cardiff", "EchoService", "http://provider:80/services/Echo",
            wsdl_url="http://provider:80/services/Echo.wsdl",
        )
        services = find(client, "Echo%")
        assert [s["name"] for s in services] == ["EchoService"]

    def test_access_points(self, world):
        net, _, client = world
        client.publish_service("Biz", "Svc", "http://p:80/services/Svc")
        (service,) = find(client, "Svc")
        detail = client.call("get_service_detail", service_key=service["serviceKey"])
        assert detail["bindingTemplates"][0]["accessPoint"] == "http://p:80/services/Svc"

    def test_wsdl_url_retrieval(self, world):
        net, _, client = world
        client.publish_service(
            "Biz", "Svc", "http://p:80/services/Svc",
            wsdl_url="http://p:80/services/Svc.wsdl",
        )
        assert wsdl_url_of(client, "Svc") == "http://p:80/services/Svc.wsdl"

    def test_wsdl_url_missing(self, world):
        net, _, client = world
        client.publish_service("Biz", "Svc", "http://p:80/services/Svc")
        assert wsdl_url_of(client, "Svc") == ""

    def test_business_reused_across_publishes(self, world):
        net, registry_node, client = world
        client.publish_service("Cardiff", "S1", "http://p/1")
        client.publish_service("Cardiff", "S2", "http://p/2")
        assert registry_node.registry.business_count == 1
        assert registry_node.registry.service_count == 2

    def test_category_search_remote(self, world):
        net, _, client = world
        cat = {"tModelKey": "uuid:cat", "keyName": "domain", "keyValue": "math"}
        client.publish_service("B", "Calc", "http://p/c", categories=[cat])
        client.publish_service("B", "Echo", "http://p/e")
        found = find(client, categories=[cat])
        assert [s["name"] for s in found] == ["Calc"]

    def test_fault_propagates_to_client(self, world):
        net, _, client = world
        with pytest.raises(SoapFault):
            client.call("get_service_detail", service_key="uuid:nope")

    def test_fault_reaches_async_callback_as_call_raises_it(self, world):
        net, _, client = world
        with pytest.raises(SoapFault) as raised:
            client.call("get_service_detail", service_key="uuid:nope")
        outcomes = []
        client.call_async(
            "get_service_detail", lambda *outcome: outcomes.append(outcome), service_key="uuid:nope"
        )
        net.run()
        ((result, error),) = outcomes
        assert result is None and isinstance(error, SoapFault)
        assert (error.code, error.message) == (raised.value.code, raised.value.message)

    def test_registry_counts_remote_traffic(self, world):
        net, registry_node, client = world
        client.publish_service("B", "S", "http://p/s")
        find(client)
        assert registry_node.registry.inquiries >= 2  # find_business + find_service
        assert net.stats.get("registry") > 0

    def test_multiple_clients_share_registry(self, world):
        net, registry_node, client = world
        other = UddiClient(net.add_node("client2"), registry_node.endpoint)
        client.publish_service("B", "S", "http://p/s")
        assert len(find(other, "S")) == 1

    def test_registry_stop_breaks_inquiry(self, world):
        net, registry_node, client = world
        registry_node.stop()
        client.http.default_timeout = 0.5
        from repro.transport import TransportTimeoutError

        with pytest.raises(TransportTimeoutError):
            find(client)
