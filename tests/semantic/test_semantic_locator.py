"""Integration: semantic discovery plugged into the WSPeer tree."""

import pytest

from lab.semantic import (
    MatchDegree,
    Ontology,
    SemanticServiceLocator,
    SemanticServiceQuery,
    ServiceProfile,
)
from lab.semantic.locator import attach_profile, profile_of
from repro.core import WSPeer
from repro.core.binding import P2psBinding
from repro.core.events import RecordingListener
from repro.p2ps import PeerGroup
from repro.simnet import FixedLatency, Network


class CarSeller:
    def sell(self, budget: float) -> dict:
        return {"car": "roadster", "price": budget}


class TruckSeller:
    def sell(self, budget: float) -> dict:
        return {"truck": "hauler", "price": budget}


@pytest.fixture
def world():
    net = Network(latency=FixedLatency(0.002))
    group = PeerGroup("market")
    onto = Ontology("vehicles")
    onto.add_concept("Vehicle")
    onto.add_concept("Car", ["Vehicle"])
    onto.add_concept("SportsCar", ["Car"])
    onto.add_concept("Truck", ["Vehicle"])
    onto.add_concept("Price")

    def provider(name, service, profile):
        peer = WSPeer(net.add_node(f"n-{name}"), P2psBinding(group), name=name)
        peer.deploy(service, name=name)
        attach_profile(peer, name, profile)
        peer.publish(name)
        return peer

    sports = provider(
        "SportsCarShop", CarSeller(),
        ServiceProfile("SportsCarShop", ("Price",), ("SportsCar",)),
    )
    trucks = provider(
        "TruckShop", TruckSeller(),
        ServiceProfile("TruckShop", ("Price",), ("Truck",)),
    )
    net.run()
    consumer = WSPeer(net.add_node("buyer"), P2psBinding(group), name="buyer")
    consumer.client.register_locator(
        SemanticServiceLocator(consumer.client.locator, onto)
    )
    return net, consumer, onto


class TestSemanticLocate:
    def test_capability_query_finds_by_concept(self, world):
        net, consumer, _ = world
        handles = consumer.locate(
            SemanticServiceQuery(outputs=("Car",)), timeout=5.0
        )
        # only the sports-car shop produces a Car (SportsCar plugs in)
        assert [h.name for h in handles] == ["SportsCarShop"]
        assert handles[0].attributes["match-degree"] == "PLUGIN"

    def test_general_query_ranks_all(self, world):
        net, consumer, _ = world
        handles = consumer.locate(
            SemanticServiceQuery(outputs=("Vehicle",)), timeout=5.0
        )
        assert {h.name for h in handles} == {"SportsCarShop", "TruckShop"}

    def test_min_degree_exact_filters_plugins(self, world):
        net, consumer, _ = world
        handles = consumer.locate(
            SemanticServiceQuery(outputs=("Car",), min_degree=MatchDegree.EXACT),
            timeout=5.0,
        )
        assert handles == []

    def test_located_service_is_invocable(self, world):
        net, consumer, _ = world
        handle = consumer.locate(SemanticServiceQuery(outputs=("Car",)), timeout=5.0)[0]
        result = consumer.invoke(handle, "sell", budget=100.0)
        assert result["car"] == "roadster"

    def test_plain_queries_pass_through(self, world):
        net, consumer, _ = world
        handles = consumer.locate("TruckShop", timeout=5.0)
        assert [h.name for h in handles] == ["TruckShop"]

    def test_profile_extractable_from_handle(self, world):
        net, consumer, _ = world
        handle = consumer.locate("TruckShop", timeout=5.0)[0]
        profile = profile_of(handle)
        assert profile.outputs == ("Truck",)

    def test_unprofiled_services_skipped_with_event(self, world):
        net, consumer, onto = world
        # add a provider without a profile
        group = consumer.peer.group
        plain = WSPeer(net.add_node("plain"), P2psBinding(group), name="plain")
        plain.deploy(CarSeller(), name="PlainShop")
        plain.publish("PlainShop")
        net.run()
        listener = RecordingListener()
        consumer.add_listener(listener)
        handles = consumer.locate(SemanticServiceQuery(outputs=("Vehicle",)), timeout=5.0)
        assert "PlainShop" not in [h.name for h in handles]
        skipped = [e for e in listener.of_kind("service-skipped")
                   if e.detail.get("service") == "PlainShop"]
        assert skipped

    def test_semantic_events_fired(self, world):
        net, consumer, _ = world
        listener = RecordingListener()
        consumer.add_listener(listener)
        consumer.locate(SemanticServiceQuery(outputs=("Car",)), timeout=5.0)
        kinds = listener.kinds()
        assert "query-issued" in kinds
        found = [e for e in listener.of_kind("service-found")
                 if e.detail.get("via") == "semantic"]
        assert found and found[0].detail["degree"] == "PLUGIN"
