"""Tests for the WSDL model, generator, parser and validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching import cache_stats, clear_all_caches
from repro.core import WSPeer
from repro.core.binding import StandardBinding
from repro.simnet import FixedLatency, Network
from repro.soap import ServiceObject
from repro.uddi import UddiRegistryNode
from repro.wsdl import (
    Binding,
    Message,
    Operation,
    Part,
    Port,
    PortType,
    Service,
    SOAP_HTTP_TRANSPORT,
    SOAP_P2PS_TRANSPORT,
    WsdlDefinition,
    WsdlError,
    generate_wsdl,
    parse_wsdl,
    to_stub_spec,
    validate_wsdl,
)
from repro.wsdl.parser import parse_wsdl_element
from repro.xmlkit import XmlParseError, parse, serialize
from tests._oracle.reference_codec import parse_reference

NS = "urn:calc"


class TypedCalc:
    """A service with annotated methods."""

    def add(self, a: int, b: int) -> int:
        """Add two integers."""
        return a + b

    def mean(self, values: list) -> float:
        return sum(values) / len(values)

    def label(self, text: str) -> str:
        return f"[{text}]"


class Untyped:
    def anything(self, x, y):
        return x


def build_definition():
    service = ServiceObject.from_instance("Calc", TypedCalc(), NS)
    return generate_wsdl(service, locations={"CalcPort": "http://hostA/services/Calc"})


class TestGenerator:
    def test_messages_per_operation(self):
        d = build_definition()
        assert "addRequest" in d.messages
        assert "addResponse" in d.messages
        assert len(d.messages) == 6  # 3 ops x 2

    def test_typed_parts(self):
        d = build_definition()
        parts = {p.name: p.type_text for p in d.messages["addRequest"].parts}
        assert parts == {"a": "xsd:int", "b": "xsd:int"}
        assert d.messages["addResponse"].parts[0].type_text == "xsd:int"

    def test_list_and_float_types(self):
        d = build_definition()
        assert d.messages["meanRequest"].parts[0].type_text == "soapenc:Array"
        assert d.messages["meanResponse"].parts[0].type_text == "xsd:double"

    def test_untyped_parameters_are_anytype(self):
        service = ServiceObject.from_instance("U", Untyped(), NS)
        d = generate_wsdl(service)
        assert all(p.type_text == "xsd:anyType" for p in d.messages["anythingRequest"].parts)

    def test_port_type_operations(self):
        d = build_definition()
        pt = d.port_types["CalcPortType"]
        assert sorted(op.name for op in pt.operations) == ["add", "label", "mean"]

    def test_operation_documentation_from_docstring(self):
        d = build_definition()
        assert d.port_types["CalcPortType"].operation("add").documentation == "Add two integers."

    def test_binding_defaults_to_http(self):
        d = build_definition()
        assert d.bindings["CalcSoapBinding"].transport == SOAP_HTTP_TRANSPORT

    def test_p2ps_transport_binding(self):
        service = ServiceObject.from_instance("Calc", TypedCalc(), NS)
        d = generate_wsdl(service, transport=SOAP_P2PS_TRANSPORT)
        assert d.bindings["CalcSoapBinding"].transport == SOAP_P2PS_TRANSPORT

    def test_port_locations(self):
        d = build_definition()
        port = d.services["Calc"].ports[0]
        assert port.location == "http://hostA/services/Calc"

    def test_abstract_wsdl_has_no_ports(self):
        service = ServiceObject.from_instance("Calc", TypedCalc(), NS)
        d = generate_wsdl(service)
        assert d.services["Calc"].ports == []

    def test_generated_is_valid(self):
        assert validate_wsdl(build_definition()) == []


class TestWireRoundTrip:
    def test_roundtrip_preserves_structure(self):
        d = build_definition()
        text = d.to_wire()
        back = parse_wsdl(text)
        assert back.name == d.name
        assert back.target_namespace == d.target_namespace
        assert set(back.messages) == set(d.messages)
        assert set(back.port_types) == set(d.port_types)
        assert set(back.bindings) == set(d.bindings)
        assert set(back.services) == set(d.services)

    def test_roundtrip_preserves_parts(self):
        back = parse_wsdl(build_definition().to_wire())
        parts = {p.name: p.type_text for p in back.messages["addRequest"].parts}
        assert parts == {"a": "xsd:int", "b": "xsd:int"}

    def test_roundtrip_preserves_operations(self):
        back = parse_wsdl(build_definition().to_wire())
        op = back.port_types["CalcPortType"].operation("add")
        assert op.input == "addRequest"
        assert op.output == "addResponse"
        assert op.documentation == "Add two integers."

    def test_roundtrip_preserves_port(self):
        back = parse_wsdl(build_definition().to_wire())
        port = back.services["Calc"].ports[0]
        assert port.name == "CalcPort"
        assert port.binding == "CalcSoapBinding"
        assert port.location == "http://hostA/services/Calc"

    def test_roundtrip_valid(self):
        assert validate_wsdl(parse_wsdl(build_definition().to_wire())) == []

    def test_pretty_output_also_parses(self):
        back = parse_wsdl(build_definition().to_wire(pretty=True))
        assert "addRequest" in back.messages


class TestParserErrors:
    def test_not_xml(self):
        with pytest.raises(WsdlError):
            parse_wsdl("this is not xml")

    @pytest.mark.parametrize("reference", ["&#xD800;", "&#99999999999999999999;"])
    def test_reference_to_no_character(self, reference):
        text = build_definition().to_wire().replace("Calc", reference, 1)
        with pytest.raises(WsdlError) as refused:
            parse_wsdl(text)
        assert isinstance(refused.value.__cause__, XmlParseError)
        with pytest.raises(XmlParseError) as reference_refused:
            parse_reference(text)
        assert refused.value.__cause__.line == reference_refused.value.line

    def test_wrong_root(self):
        with pytest.raises(WsdlError):
            parse_wsdl("<notwsdl/>")

    def test_missing_target_namespace(self):
        with pytest.raises(WsdlError):
            parse_wsdl(
                '<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"/>'
            )

    def test_operation_without_input(self):
        text = (
            '<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"'
            ' targetNamespace="urn:x">'
            '<wsdl:portType name="P"><wsdl:operation name="op"/></wsdl:portType>'
            "</wsdl:definitions>"
        )
        with pytest.raises(WsdlError):
            parse_wsdl(text)


class TestModel:
    def test_duplicate_message_rejected(self):
        d = WsdlDefinition("X", "urn:x")
        d.add_message(Message("m"))
        with pytest.raises(WsdlError):
            d.add_message(Message("m"))

    def test_duplicate_port_type_rejected(self):
        d = WsdlDefinition("X", "urn:x")
        d.add_port_type(PortType("p"))
        with pytest.raises(WsdlError):
            d.add_port_type(PortType("p"))

    def test_first_service_empty_rejected(self):
        with pytest.raises(WsdlError):
            WsdlDefinition("X", "urn:x").first_service()

    def test_port_type_for_port(self):
        d = build_definition()
        port = d.services["Calc"].ports[0]
        assert d.port_type_for_port(port).name == "CalcPortType"

    def test_port_type_for_port_dangling_binding(self):
        d = build_definition()
        with pytest.raises(WsdlError):
            d.port_type_for_port(Port("X", "NoSuchBinding", "http://x/y"))

    def test_one_way_operation(self):
        d = WsdlDefinition("X", "urn:x")
        d.add_message(Message("inOnly", [Part("v", "xsd:string")]))
        d.add_port_type(PortType("P", [Operation("notify", input="inOnly")]))
        back = parse_wsdl(d.to_wire())
        assert back.port_types["P"].operation("notify").output is None


class TestValidation:
    def test_dangling_input_message(self):
        d = WsdlDefinition("X", "urn:x")
        d.add_port_type(PortType("P", [Operation("op", input="ghost")]))
        problems = validate_wsdl(d)
        assert any("ghost" in p for p in problems)

    def test_dangling_binding_port_type(self):
        d = WsdlDefinition("X", "urn:x")
        d.add_binding(Binding("B", "ghostPT"))
        assert any("ghostPT" in p for p in validate_wsdl(d))

    def test_dangling_port_binding(self):
        d = WsdlDefinition("X", "urn:x")
        d.add_service(Service("S", [Port("p", "ghostB", "http://x/y")]))
        assert any("ghostB" in p for p in validate_wsdl(d))

    def test_missing_address(self):
        d = WsdlDefinition("X", "urn:x")
        d.add_binding(Binding("B", "PT"))
        d.add_port_type(PortType("PT"))
        d.add_service(Service("S", [Port("p", "B", "")]))
        assert any("missing address" in p for p in validate_wsdl(d))

    def test_duplicate_operation_names(self):
        d = WsdlDefinition("X", "urn:x")
        d.add_message(Message("m"))
        d.add_port_type(
            PortType("P", [Operation("op", input="m"), Operation("op", input="m")])
        )
        assert any("duplicate operation" in p for p in validate_wsdl(d))


class TestStubSpec:
    def test_spec_from_definition(self):
        spec = to_stub_spec(build_definition())
        assert spec.service_name == "Calc"
        ops = {op.name: op.parameters for op in spec.operations}
        assert ops["add"] == ("a", "b")
        assert ops["mean"] == ("values",)

    def test_spec_doc_carried(self):
        spec = to_stub_spec(build_definition())
        add = next(op for op in spec.operations if op.name == "add")
        assert add.doc == "Add two integers."

    def test_spec_for_abstract_wsdl(self):
        service = ServiceObject.from_instance("Calc", TypedCalc(), NS)
        d = generate_wsdl(service)  # no ports
        spec = to_stub_spec(d)
        assert {op.name for op in spec.operations} == {"add", "mean", "label"}

    def test_unknown_service_rejected(self):
        with pytest.raises(WsdlError):
            to_stub_spec(build_definition(), service_name="Nope")

    def test_unknown_port_rejected(self):
        with pytest.raises(WsdlError):
            to_stub_spec(build_definition(), port_name="Nope")

    def test_spec_feeds_stub_builder(self):
        from repro.soap import DynamicStubBuilder

        spec = to_stub_spec(build_definition())
        calls = []
        stub = DynamicStubBuilder().build(spec, lambda op, args: calls.append((op, args)))
        stub.add(1, 2)
        assert calls == [("add", {"a": 1, "b": 2})]


# ----------------------------------------------------------------------
# one template per class: the spliced render and the skeleton parse
# ----------------------------------------------------------------------
#: attribute texts with every character the serialiser escapes
attribute_texts = st.text(
    alphabet=st.sampled_from("abcXYZ09:/._-&<>\"' \t\n\ré中"), min_size=1, max_size=12
)


def fields(definition: WsdlDefinition) -> tuple:
    return (
        definition.name, definition.target_namespace, definition.schema_types,
        definition.messages, definition.port_types, definition.bindings, definition.services,
    )


def element_path(text: str):
    """What ``parse`` + ``parse_wsdl_element`` make of *text*: a
    definition's fields, or the error."""
    try:
        return fields(parse_wsdl_element(parse(text)))
    except WsdlError as exc:
        return repr(exc)


def skeleton_path(text: str):
    try:
        return fields(parse_wsdl(text))
    except WsdlError as exc:
        return repr(exc)


def skeleton_hits() -> int:
    return cache_stats()["wsdl-skeletons"]["hits"]


def calc_wsdl(name: str, namespace: str, location: str) -> str:
    service = ServiceObject.from_instance(name, TypedCalc(), namespace)
    return generate_wsdl(service, locations={f"{name}Port": location}).to_wire()


@settings(max_examples=150, deadline=None)
@given(attribute_texts, attribute_texts, attribute_texts)
def test_a_definition_is_a_splice_and_reads_back_as_the_element_path_would(name, namespace, location):
    clear_all_caches()
    service = ServiceObject.from_instance(name, TypedCalc(), namespace)
    definition = generate_wsdl(service, locations={f"{name}Port": location})
    wire = definition.to_wire()
    assert wire == serialize(definition.to_element(), xml_declaration=True)
    assert cache_stats()["wsdl-templates"]["size"] == 1
    # two sightings of the class learn its skeleton ...
    for _ in range(2):
        parse_wsdl(calc_wsdl("Other", "urn:other", "http://h/other"))
    # ... which reads this one off its texts, when they are verbatim
    before = skeleton_hits()
    assert skeleton_path(wire) == element_path(wire)
    verbatim = not set("&<\"\t\n\r") & set(name + namespace + location)
    assert skeleton_hits() - before == verbatim


def test_near_misses_fall_back_to_the_element_path():
    clear_all_caches()
    for _ in range(2):
        parse_wsdl(calc_wsdl("Calc", NS, "http://hostA/services/Calc"))
    wire = calc_wsdl("Calc", NS, "http://hostB/services/Calc")
    near_misses = [
        wire.replace(' name="Calc" ', ' name="Calc" extra="1" ', 1),
        wire.replace(
            'name="Calc" targetNamespace="urn:calc"', 'targetNamespace="urn:calc" name="Calc"', 1
        ),
        wire.replace('location="http://hostB/services/Calc"', "location='http://hostB/services/Calc'"),
        wire.replace("<wsdl:message", "<!-- c --><wsdl:message", 1),
        wire.replace('name="addResponse"', 'name="addRequest"'),  # a duplicate: the same error
        wire.replace('<wsdl:part name="a"', '<wsdl:part name=""'),  # no name: the same error
    ]
    before = skeleton_hits()
    for text in near_misses:
        assert skeleton_path(text) == element_path(text), text
    assert skeleton_hits() == before
    assert skeleton_path(wire) == element_path(wire)
    assert skeleton_hits() == before + 1


def test_a_new_name_of_a_known_class_builds_and_cuts_nothing(monkeypatch):
    """Deploy, describe and invoke services of one class under new names
    and namespaces: once the class has been seen twice, the next name
    rides every template and skeleton, and no WSDL element tree is built
    for it."""
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    clear_all_caches()

    def lifecycle(name: str, namespace: str) -> None:
        deployed = provider.deploy(TypedCalc(), name=name, namespace=namespace)
        provider.publish(name)
        handle = consumer.locate_one(name)
        assert handle.wsdl.target_namespace == namespace
        assert consumer.invoke(handle, "add", a=1, b=2) == 3
        provider.server.publisher.withdraw(deployed)
        provider.undeploy(name)

    lifecycle("CalcOne", "urn:calc:one")  # the class's first two sightings
    lifecycle("CalcTwo", "urn:calc:two")
    sizes = {name: stats["size"] for name, stats in cache_stats().items()}
    built, to_element = [], WsdlDefinition.to_element
    monkeypatch.setattr(WsdlDefinition, "to_element", lambda self: built.append(self) or to_element(self))
    lifecycle("CalcThree", "urn:calc:three")
    for name in ("envelope-templates", "wire-templates", "decode-skeletons",
                 "decode-skeleton-probation", "wsdl-templates", "wsdl-skeletons"):
        assert cache_stats()[name]["size"] == sizes[name], name
    assert built == []


def test_a_field_that_is_not_a_string_is_written_as_the_element_path_writes_it():
    clear_all_caches()
    service = ServiceObject.from_instance("Calc", TypedCalc(), NS)
    definition = generate_wsdl(service, locations={"CalcPort": "http://hostA/services/Calc"})
    definition.to_wire()  # the class's template is cached
    definition.services["Calc"].ports[0].location = 8080
    assert definition.to_wire() == serialize(definition.to_element(), xml_declaration=True)
    assert cache_stats()["wsdl-templates"]["size"] == 1
