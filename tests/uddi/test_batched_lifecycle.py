"""One UDDI exchange each to publish, locate and withdraw.

The batched ``save_service`` (business + binding + wsdlSpec tModel, one
revision, the stored record back), ``find_service_records`` (records
instead of bare services), keyless ``delete_service`` by
(business, name), and the standard binding's publisher / locator riding
them, so a deploy → publish → locate → call → withdraw lifecycle is five
round trips: three to the registry, the WSDL GET and the call.
"""

import pytest

from repro.core import WSPeer
from repro.core.binding import StandardBinding
from repro.discovery import DiscoveryPlane
from repro.simnet import FixedLatency, Network
from repro.uddi import UddiError, UddiRegistry, UddiRegistryNode

LATENCY_S = 0.005
AP = "http://provider:80/services/Echo"
WSDL = AP + ".wsdl"


class Echo:
    def echo(self, message: str) -> str:
        return message


@pytest.fixture
def registry():
    return UddiRegistry(operator="r0")


def batched(registry, name="Echo", business="WSPeer", **kwargs):
    return registry.save_service(
        name=name, business_name=business, access_point=AP, wsdl_url=WSDL, **kwargs
    )


class TestBatchedSave:
    def test_one_save_stores_business_service_binding_and_tmodel(self, registry):
        record = batched(registry, ttl=5.0)
        service = record["service"]
        assert record["business"]["name"] == "WSPeer"
        assert service["businessKey"] == record["business"]["businessKey"]
        assert [b["accessPoint"] for b in service["bindingTemplates"]] == [AP]
        [tmodel] = record["tModels"]
        assert tmodel["overviewURL"] == WSDL
        assert service["bindingTemplates"][0]["tModelKeys"] == [tmodel["tModelKey"]]
        assert record["lease"] == 5.0
        assert record == registry.export_service(service["serviceKey"])
        assert registry.find_service_records("Echo") == [record]

    def test_one_save_is_one_revision(self, registry):
        key = batched(registry)["service"]["serviceKey"]
        assert registry.revision_of(key) == 1

    def test_republish_refreshes_in_place(self, registry):
        first = batched(registry)
        second = batched(registry)
        assert second["service"]["serviceKey"] == first["service"]["serviceKey"]
        assert second["revision"] == first["revision"] + 1
        assert len(second["service"]["bindingTemplates"]) == 1
        assert second["tModels"] == first["tModels"]
        assert registry.business_count == 1

    def test_a_bad_save_stores_nothing(self, registry):
        with pytest.raises(KeyError):
            batched(registry, business="NewBiz", category_bag=[{"tModelKey": "uuid:cat"}])
        with pytest.raises(UddiError):
            registry.save_service("uuid:r0:biz-999999", "Echo", access_point=AP)
        assert registry.business_count == 0
        assert registry.service_count == 0

    def test_plain_save_keeps_its_answer(self, registry):
        business = registry.save_business("WSPeer")
        service = registry.save_service(business["businessKey"], "Echo")
        assert "serviceKey" in service and "revision" not in service


class TestKeylessDelete:
    def test_by_business_and_name(self, registry):
        batched(registry, business="A")
        kept = batched(registry, business="B")
        assert registry.delete_service(name="Echo", business_name="A")
        assert registry.find_service("Echo") == [kept["service"]]
        assert not registry.delete_service(name="Echo", business_name="A")

    def test_by_name_across_businesses(self, registry):
        batched(registry, business="A")
        batched(registry, business="B")
        assert registry.delete_service(name="echo")
        assert registry.service_count == 0

    def test_by_key(self, registry):
        key = batched(registry)["service"]["serviceKey"]
        assert registry.delete_service(key)
        assert not registry.delete_service(key)


class World:
    """Registry, provider and consumer, with every frame's (src, dst,
    kind, SOAP operation) recorded."""

    def __init__(self):
        self.net = Network(latency=FixedLatency(LATENCY_S))
        self.registry = UddiRegistryNode(self.net.add_node("registry"))
        self.provider = WSPeer(
            self.net.add_node("provider"), StandardBinding(self.registry.endpoint)
        )
        self.consumer = WSPeer(
            self.net.add_node("consumer"), StandardBinding(self.registry.endpoint)
        )
        self.frames = []
        self.net.add_delivery_hook(self._record)

    def _record(self, frame) -> bool:
        payload = frame.payload
        text = payload if isinstance(payload, str) else bytes(payload).decode()
        operation = ""
        if "Body><tns:" in text:
            operation = text.split("Body><tns:", 1)[1].split(" ", 1)[0]
        self.frames.append((frame.src, frame.dst, frame.meta.get("kind"), operation))
        return True

    def lifecycle(self, name: str) -> bool:
        deployed = self.provider.deploy(Echo(), name=name)
        self.provider.publish(name)
        stub = self.consumer.create_stub(self.consumer.locate_one(name))
        reply = stub.echo(message="hi")
        self.provider.server.publisher.withdraw(deployed)
        self.provider.undeploy(name)
        return reply == "hi"


class TestFiveRoundTrips:
    def test_lifecycle_is_three_registry_exchanges_and_five_round_trips(self):
        world = World()
        assert world.lifecycle("Warm")
        world.frames.clear()
        started = world.net.now
        assert world.lifecycle("Echo")
        to_registry = [op for _, dst, _, op in world.frames if dst == "registry"]
        assert to_registry == ["save_service", "find_service_records", "delete_service"]
        requests = [f for f in world.frames if f[2] in ("request", "connect")]
        assert len(requests) == 5
        assert world.net.now - started == pytest.approx(5 * 2 * LATENCY_S)
        assert world.registry.registry.service_count == 0

    def test_withdraw_deletes_by_the_key_publish_was_handed(self):
        world = World()
        world.provider.deploy(Echo(), name="Echo")
        world.provider.publish("Echo")
        key = world.registry.registry.find_service("Echo")[0]["serviceKey"]
        world.frames.clear()
        world.provider.server.publisher.withdraw(world.provider._deployed["Echo"])
        [(_, _, _, operation)] = [f for f in world.frames if f[1] == "registry"]
        assert operation == "delete_service"
        assert world.registry.registry.revision_of(key) == 0

    def test_withdraw_without_a_key_spares_other_businesses(self):
        world = World()
        world.provider.deploy(Echo(), name="Echo")
        world.provider.publish("Echo")
        batched(world.registry.registry, business="Other")
        world.provider.server.publisher._keys.clear()  # e.g. a restarted publisher
        world.provider.server.publisher.withdraw(world.provider._deployed["Echo"])
        [left] = world.registry.registry.find_service("Echo")
        assert left["businessKey"] != world.registry.registry.find_business("WSPeer")[0]["businessKey"]

    def test_arguments_bind_by_name_under_a_wrapper(self, monkeypatch):
        """A registry whose operations hide their signatures (a tracing
        wrapper) still gets every argument of every call by name, whichever
        parameters the call leaves out."""
        for op in ("save_service", "find_service_records", "delete_service"):
            method = getattr(UddiRegistry, op)
            monkeypatch.setattr(
                UddiRegistry, op,
                (lambda fn: lambda self, *args, **kwargs: fn(self, *args, **kwargs))(method),
            )
        world = World()
        assert world.lifecycle("Echo")
        assert world.registry.registry.service_count == 0


class TestShardedPublish:
    def test_one_batched_save_is_one_delta_on_every_replica(self):
        net = Network(latency=FixedLatency(0.002))
        plane = DiscoveryPlane(net, shards=4, replication=2)
        peer = WSPeer(net.add_node("prov"), StandardBinding(plane.registry_uris["registry-0"]))
        plane.attach(peer)
        peer.deploy(Echo(), name="Echo")
        peer.publish("Echo")
        net.run()
        records = [
            plane.registries[shard].registry.find_service_records("Echo")
            for shard in plane.ring.nodes_for("Echo", 2)
        ]
        assert all(len(found) == 1 for found in records)
        assert {found[0]["revision"] for found in records} == {1}
        assert records[0][0]["service"] == records[1][0]["service"]
