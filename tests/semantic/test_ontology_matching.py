"""Tests for the ontology, profiles and capability matchmaking."""

import pytest

from lab.semantic import (
    MatchDegree,
    Matchmaker,
    Ontology,
    OntologyError,
    ServiceProfile,
)


@pytest.fixture
def vehicles():
    """The classic example hierarchy."""
    onto = Ontology("vehicles")
    onto.add_concept("Vehicle")
    onto.add_concept("Car", ["Vehicle"])
    onto.add_concept("SportsCar", ["Car"])
    onto.add_concept("Truck", ["Vehicle"])
    onto.add_concept("Price")
    onto.add_concept("RetailPrice", ["Price"])
    onto.add_concept("Location")
    return onto


class TestOntology:
    def test_root_exists(self):
        assert Ontology().has("Thing")

    def test_default_parent_is_root(self, vehicles):
        assert vehicles.parents("Vehicle") == {"Thing"}

    def test_duplicate_rejected(self, vehicles):
        with pytest.raises(OntologyError):
            vehicles.add_concept("Car")

    def test_unknown_parent_rejected(self, vehicles):
        with pytest.raises(OntologyError):
            vehicles.add_concept("Boat", ["Watercraft"])

    def test_empty_name_rejected(self):
        with pytest.raises(OntologyError):
            Ontology().add_concept("  ")

    def test_ancestors(self, vehicles):
        assert vehicles.ancestors("SportsCar") == {"Car", "Vehicle", "Thing"}

    def test_descendants(self, vehicles):
        assert vehicles.descendants("Vehicle") == {"Car", "SportsCar", "Truck"}

    def test_subsumption_reflexive(self, vehicles):
        assert vehicles.is_subconcept("Car", "Car")

    def test_subsumption_transitive(self, vehicles):
        assert vehicles.is_subconcept("SportsCar", "Vehicle")
        assert not vehicles.is_subconcept("Vehicle", "SportsCar")

    def test_siblings_unrelated(self, vehicles):
        assert not vehicles.is_subconcept("Car", "Truck")
        assert not vehicles.is_subconcept("Truck", "Car")

    def test_distance(self, vehicles):
        assert vehicles.distance("SportsCar", "SportsCar") == 0
        assert vehicles.distance("SportsCar", "Car") == 1
        assert vehicles.distance("SportsCar", "Vehicle") == 2
        assert vehicles.distance("Car", "Truck") is None

    def test_multiple_inheritance(self, vehicles):
        vehicles.add_concept("AmphibiousCar", ["Car", "Truck"])
        assert vehicles.is_subconcept("AmphibiousCar", "Car")
        assert vehicles.is_subconcept("AmphibiousCar", "Truck")

    def test_everything_is_a_thing(self, vehicles):
        for concept in vehicles.concepts:
            assert vehicles.is_subconcept(concept, "Thing")

    def test_unknown_concept_errors(self, vehicles):
        with pytest.raises(OntologyError):
            vehicles.is_subconcept("Spaceship", "Vehicle")


class TestProfile:
    def test_xml_roundtrip(self):
        profile = ServiceProfile("CarSeller", ("Location",), ("Car", "Price"), "Commerce")
        back = ServiceProfile.from_wire(profile.to_wire())
        assert back == profile

    def test_compact_roundtrip(self):
        profile = ServiceProfile("CarSeller", ("Location",), ("Car", "Price"))
        back = ServiceProfile.from_compact("CarSeller", profile.to_compact())
        assert back == profile

    def test_compact_empty_io(self):
        profile = ServiceProfile("S")
        back = ServiceProfile.from_compact("S", profile.to_compact())
        assert back.inputs == () and back.outputs == ()

    def test_compact_rejects_separator_in_concept(self):
        with pytest.raises(ValueError):
            ServiceProfile("S", outputs=("a|b",)).to_compact()

    def test_malformed_compact(self):
        with pytest.raises(ValueError):
            ServiceProfile.from_compact("S", "only-one-part")


class TestConceptDegrees:
    def test_exact(self, vehicles):
        mm = Matchmaker(vehicles)
        assert mm.concept_degree("Car", "Car") is MatchDegree.EXACT

    def test_plugin_advertised_more_specific(self, vehicles):
        mm = Matchmaker(vehicles)
        assert mm.concept_degree("Car", "SportsCar") is MatchDegree.PLUGIN

    def test_subsumes_advertised_more_general(self, vehicles):
        mm = Matchmaker(vehicles)
        assert mm.concept_degree("Car", "Vehicle") is MatchDegree.SUBSUMES

    def test_fail_unrelated(self, vehicles):
        mm = Matchmaker(vehicles)
        assert mm.concept_degree("Car", "Price") is MatchDegree.FAIL

    def test_unknown_concepts_fail(self, vehicles):
        mm = Matchmaker(vehicles)
        assert mm.concept_degree("Car", "Unheard") is MatchDegree.FAIL

    def test_ordering(self):
        assert MatchDegree.EXACT > MatchDegree.PLUGIN > MatchDegree.SUBSUMES > MatchDegree.FAIL


class TestProfileMatching:
    def test_overall_is_weakest_output(self, vehicles):
        mm = Matchmaker(vehicles)
        request = ServiceProfile("req", outputs=("Car", "Price"))
        advertised = ServiceProfile("CarSeller", outputs=("Car", "RetailPrice"))
        match = mm.match(request, advertised)
        # Car exact, RetailPrice plugs into Price -> weakest is PLUGIN
        assert match.output_degree is MatchDegree.PLUGIN
        assert match.degree is MatchDegree.PLUGIN

    def test_missing_output_fails(self, vehicles):
        mm = Matchmaker(vehicles)
        request = ServiceProfile("req", outputs=("Car", "Location"))
        advertised = ServiceProfile("CarSeller", outputs=("Car",))
        assert mm.match(request, advertised).degree is MatchDegree.FAIL

    def test_inputs_direction(self, vehicles):
        mm = Matchmaker(vehicles)
        # requester provides a SportsCar; service expects any Car: fits
        request = ServiceProfile("req", inputs=("SportsCar",), outputs=("Price",))
        advertised = ServiceProfile("Valuer", inputs=("Car",), outputs=("Price",))
        match = mm.match(request, advertised)
        assert match.input_degree is MatchDegree.PLUGIN
        # the reverse: providing a Vehicle where a Car is expected is weaker
        loose = ServiceProfile("req2", inputs=("Vehicle",), outputs=("Price",))
        assert mm.match(loose, advertised).input_degree is MatchDegree.SUBSUMES

    def test_no_outputs_requested_is_exact(self, vehicles):
        mm = Matchmaker(vehicles)
        request = ServiceProfile("req")
        advertised = ServiceProfile("Anything", outputs=("Car",))
        assert mm.match(request, advertised).degree is MatchDegree.EXACT

    def test_service_without_outputs_fails_demand(self, vehicles):
        mm = Matchmaker(vehicles)
        request = ServiceProfile("req", outputs=("Car",))
        advertised = ServiceProfile("Mute")
        assert mm.match(request, advertised).degree is MatchDegree.FAIL


class TestRanking:
    def test_rank_orders_by_degree(self, vehicles):
        mm = Matchmaker(vehicles)
        request = ServiceProfile("req", outputs=("Car",))
        exact = ServiceProfile("Exact", outputs=("Car",))
        plugin = ServiceProfile("Plugin", outputs=("SportsCar",))
        subsumes = ServiceProfile("Subsumes", outputs=("Vehicle",))
        fail = ServiceProfile("Fail", outputs=("Price",))
        ranked = mm.rank(request, [fail, subsumes, plugin, exact])
        assert [m.profile.service_name for m in ranked] == ["Exact", "Plugin", "Subsumes"]

    def test_min_degree_filters(self, vehicles):
        mm = Matchmaker(vehicles)
        request = ServiceProfile("req", outputs=("Car",))
        candidates = [
            ServiceProfile("Plugin", outputs=("SportsCar",)),
            ServiceProfile("Subsumes", outputs=("Vehicle",)),
        ]
        ranked = mm.rank(request, candidates, min_degree=MatchDegree.PLUGIN)
        assert [m.profile.service_name for m in ranked] == ["Plugin"]

    def test_tie_breaks_on_distance(self, vehicles):
        vehicles.add_concept("HyperCar", ["SportsCar"])
        mm = Matchmaker(vehicles)
        request = ServiceProfile("req", outputs=("Vehicle",))
        near = ServiceProfile("Near", outputs=("Car",))       # distance 1
        far = ServiceProfile("Far", outputs=("HyperCar",))    # distance 3
        ranked = mm.rank(request, [far, near])
        assert [m.profile.service_name for m in ranked] == ["Near", "Far"]
