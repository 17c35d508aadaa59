"""Semantic (DAML-style) service discovery — the §III extension.

The paper: "More complex queries could be constructed from languages
such as DAML."  Here providers carry DAML-S-style capability profiles
over a shared ontology, and a consumer asks for *what it needs*
(produce me a Car) rather than guessing service names.

Run:  python examples/semantic_discovery.py
"""

from lab.semantic import (
    Ontology,
    SemanticServiceLocator,
    SemanticServiceQuery,
    ServiceProfile,
)
from lab.semantic.locator import attach_profile
from repro.core import WSPeer
from repro.core.binding import P2psBinding
from repro.p2ps import PeerGroup
from repro.simnet import FixedLatency, Network


class Dealership:
    def __init__(self, inventory: str, price: float):
        self.inventory = inventory
        self.price = price

    def purchase(self, budget: float) -> str:
        if budget < self.price:
            return f"declined: {self.inventory} costs {self.price}"
        return f"sold: {self.inventory} for {self.price}"


def main() -> None:
    # a shared ontology: the vocabulary both sides reason over
    onto = Ontology("mobility")
    onto.add_concept("Vehicle")
    onto.add_concept("Car", ["Vehicle"])
    onto.add_concept("SportsCar", ["Car"])
    onto.add_concept("Bicycle", ["Vehicle"])

    net = Network(latency=FixedLatency(0.003))
    group = PeerGroup("bazaar")

    stock = [
        ("FastLane", "SportsCar", 90_000.0),
        ("CityCars", "Car", 25_000.0),
        ("PedalPower", "Bicycle", 800.0),
    ]
    for name, concept, price in stock:
        peer = WSPeer(net.add_node(f"n-{name}"), P2psBinding(group), name=name)
        peer.deploy(Dealership(concept, price), name=name)
        attach_profile(peer, name, ServiceProfile(name, (), (concept,)))
        peer.publish(name)
    net.run()

    buyer = WSPeer(net.add_node("buyer"), P2psBinding(group), name="buyer")
    buyer.client.register_locator(
        SemanticServiceLocator(buyer.client.locator, onto)
    )

    for wanted in ("Car", "Vehicle"):
        print(f"\nlooking for something that produces a {wanted}:")
        handles = buyer.locate(SemanticServiceQuery(outputs=(wanted,)), timeout=5.0)
        for handle in handles:
            degree = handle.attributes["match-degree"]
            print(f"  {handle.name:12s} matches at degree {degree}")
        if handles:
            best = handles[0]
            print(f"  buying from the best match, {best.name}:")
            print(f"    {buyer.invoke(best, 'purchase', budget=100_000.0)}")


if __name__ == "__main__":
    main()
