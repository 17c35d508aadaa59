"""EXT1 — extension: DAML-style semantic queries (§III's hook).

"More complex queries could be constructed from languages such as
DAML."  The extension (``lab.semantic``) adds DAML-S-style profiles
and capability matchmaking on top of the locator tree.  Experiment:
a marketplace where service *names* are unhelpful (every provider calls
itself "Shop-N") but profiles state real capabilities; compare what a
name query and a capability query return.
"""

from _workloads import fmt_ms, print_table

from lab.semantic import (
    MatchDegree,
    Matchmaker,
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


def build_ontology() -> Ontology:
    onto = Ontology("commerce")
    onto.add_concept("Goods")
    for concept, parent in [
        ("Vehicle", "Goods"), ("Car", "Vehicle"), ("SportsCar", "Car"),
        ("Truck", "Vehicle"), ("Food", "Goods"), ("Fruit", "Food"),
    ]:
        onto.add_concept(concept, [parent])
    return onto


class Shop:
    def __init__(self, stock: str):
        self.stock = stock

    def buy(self) -> str:
        return self.stock


CATALOGUE = [
    # (stock concept the shop actually sells)
    "SportsCar", "Truck", "Fruit", "Car", "Food",
]


def build_market():
    net = Network(latency=FixedLatency(0.002))
    group = PeerGroup("market")
    onto = build_ontology()
    for i, concept in enumerate(CATALOGUE):
        peer = WSPeer(net.add_node(f"shop{i}"), P2psBinding(group), name=f"shop{i}")
        name = f"Shop-{i}"  # deliberately meaningless
        peer.deploy(Shop(concept), name=name)
        attach_profile(peer, name, ServiceProfile(name, (), (concept,)))
        peer.publish(name)
    net.run()
    buyer = WSPeer(net.add_node("buyer"), P2psBinding(group), name="buyer")
    buyer.client.register_locator(
        SemanticServiceLocator(buyer.client.locator, onto)
    )
    return net, buyer, onto


def relevant_for(onto: Ontology, requested: str) -> set[str]:
    """Ground truth: shops whose stock is subsumption-related to the ask."""
    return {
        f"Shop-{i}"
        for i, stock in enumerate(CATALOGUE)
        if onto.is_subconcept(stock, requested) or onto.is_subconcept(requested, stock)
    }


def run_ext1_experiment():
    net, buyer, onto = build_market()
    rows = []
    for requested in ("Car", "Vehicle", "Food"):
        start = net.now
        name_hits = buyer.locate(requested, timeout=3.0)  # name query: useless names
        semantic_hits = buyer.locate(
            SemanticServiceQuery(outputs=(requested,)), timeout=3.0
        )
        truth = relevant_for(onto, requested)
        found = {h.name for h in semantic_hits}
        precision = len(found & truth) / len(found) if found else 0.0
        recall = len(found & truth) / len(truth) if truth else 1.0
        rows.append(
            [
                requested,
                len(name_hits),
                len(semantic_hits),
                f"{precision * 100:.0f}%",
                f"{recall * 100:.0f}%",
                fmt_ms(net.now - start),
            ]
        )
    print_table(
        "EXT1  name-based vs capability-based discovery (5 shops, opaque names)",
        ["requested concept", "name-query hits", "semantic hits",
         "precision", "recall", "both queries"],
        rows,
        note="name queries find nothing useful (names are opaque ids); "
        "capability queries recover the relevant providers exactly",
    )
    return rows


def test_ext1_name_queries_blind():
    net, buyer, _ = build_market()
    assert buyer.locate("Car", timeout=3.0) == []


def test_ext1_semantic_queries_see_capabilities():
    net, buyer, onto = build_market()
    hits = buyer.locate(SemanticServiceQuery(outputs=("Car",)), timeout=3.0)
    names = {h.name for h in hits}
    # Shop-0 sells SportsCar (plugin), Shop-3 sells Car (exact);
    # Shop-1 (Truck) only relates through Vehicle — excluded at SUBSUMES?
    # Truck is not subsumption-related to Car at all, so it must be out.
    assert "Shop-3" in names and "Shop-0" in names
    assert "Shop-1" not in names


def test_ext1_perfect_precision_and_recall():
    net, buyer, onto = build_market()
    for requested in ("Car", "Vehicle", "Food"):
        found = {h.name for h in buyer.locate(
            SemanticServiceQuery(outputs=(requested,)), timeout=3.0
        )}
        assert found == relevant_for(onto, requested)


def test_ext1_ranking_prefers_exact():
    net, buyer, _ = build_market()
    hits = buyer.locate(SemanticServiceQuery(outputs=("Car",)), timeout=3.0)
    assert hits[0].name == "Shop-3"  # exact Car beats SportsCar plugin


def test_bench_matchmaking(benchmark):
    onto = build_ontology()
    matchmaker = Matchmaker(onto)
    request = ServiceProfile("req", outputs=("Vehicle",))
    candidates = [
        ServiceProfile(f"c{i}", outputs=(CATALOGUE[i % len(CATALOGUE)],))
        for i in range(50)
    ]
    benchmark(lambda: matchmaker.rank(request, candidates, MatchDegree.SUBSUMES))


if __name__ == "__main__":
    run_ext1_experiment()
