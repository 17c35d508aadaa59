"""Tests for WS-Addressing: EPRs, headers, SOAP binding, p2ps URIs."""

import pytest

from repro.soap import SoapEnvelope
from repro.wsa import (
    EndpointReference,
    MessageAddressingProperties,
    P2psAddress,
    WsaError,
    make_p2ps_uri,
    new_message_id,
    parse_p2ps_uri,
)
from repro.xmlkit import Element, QName, ns


def pipe_props():
    return [
        Element(QName(ns.P2PS, "PipeName", "p2ps"), text="echoString"),
        Element(QName(ns.P2PS, "PipeType", "p2ps"), text="input"),
    ]


class TestEndpointReference:
    def test_address_required(self):
        with pytest.raises(WsaError):
            EndpointReference("")

    def test_xml_roundtrip(self):
        epr = EndpointReference("p2ps://peer-1/Echo", pipe_props())
        back = EndpointReference.from_element(epr.to_element())
        assert back == epr
        assert back.address == "p2ps://peer-1/Echo"
        assert len(back.reference_properties) == 2

    def test_through_real_wire_text(self):
        from repro.xmlkit import parse, serialize

        epr = EndpointReference("http://h/svc", pipe_props())
        back = EndpointReference.from_element(parse(serialize(epr.to_element())))
        assert back == epr

    def test_missing_address_rejected(self):
        elem = Element(QName(ns.WSA, "EndpointReference", "wsa"))
        with pytest.raises(WsaError):
            EndpointReference.from_element(elem)

    def test_find_property_by_qname_and_local(self):
        epr = EndpointReference("http://h/x", pipe_props())
        assert epr.find_property(QName(ns.P2PS, "PipeName")).text == "echoString"
        assert epr.property_text("PipeType") == "input"
        assert epr.property_text("Missing", "dflt") == "dflt"

    def test_properties_copied_not_aliased(self):
        props = pipe_props()
        epr = EndpointReference("http://h/x", props)
        props[0].text = "mutated"
        assert epr.property_text("PipeName") == "echoString"

    def test_custom_tag(self):
        epr = EndpointReference("http://h/x")
        elem = epr.to_element(QName(ns.WSA, "ReplyTo", "wsa"))
        assert elem.name.local == "ReplyTo"

    def test_equality(self):
        a = EndpointReference("http://h/x", pipe_props())
        b = EndpointReference("http://h/x", pipe_props())
        c = EndpointReference("http://h/y", pipe_props())
        assert a == b
        assert a != c


class TestMessageIds:
    def test_unique(self):
        ids = {new_message_id() for _ in range(100)}
        assert len(ids) == 100

    def test_prefix(self):
        assert new_message_id("urn:test").startswith("urn:test-")


class TestMaps:
    def test_to_and_action_mandatory(self):
        with pytest.raises(WsaError):
            MessageAddressingProperties(to="", action="a")
        with pytest.raises(WsaError):
            MessageAddressingProperties(to="http://h/x", action="")

    def test_for_request_builds_action_fragment(self):
        target = EndpointReference("p2ps://peer-1/Echo")
        maps = MessageAddressingProperties.for_request(target, "echoString")
        assert maps.to == "p2ps://peer-1/Echo"
        assert maps.action == "p2ps://peer-1/Echo#echoString"
        assert maps.operation == "echoString"
        assert maps.message_id

    def test_operation_empty_without_fragment(self):
        maps = MessageAddressingProperties(to="http://h/x", action="http://h/x")
        assert maps.operation == ""

    def test_envelope_roundtrip(self):
        target = EndpointReference("p2ps://peer-1/Echo", pipe_props())
        reply = EndpointReference("p2ps://peer-2#reply-1")
        maps = MessageAddressingProperties.for_request(target, "echo", reply_to=reply)
        env = SoapEnvelope()
        maps.apply_to(env, target)
        back = MessageAddressingProperties.extract_from(
            SoapEnvelope.from_wire(env.to_wire())
        )
        assert back.to == maps.to
        assert back.action == maps.action
        assert back.message_id == maps.message_id
        assert back.reply_to == reply

    def test_reference_properties_copied_into_header(self):
        # binding rule 3: the target EPR's ReferenceProperties appear
        # directly as SOAP header blocks
        target = EndpointReference("p2ps://peer-1/Echo", pipe_props())
        env = SoapEnvelope()
        MessageAddressingProperties.for_request(target, "op").apply_to(env, target)
        wire = SoapEnvelope.from_wire(env.to_wire())
        names = [h.name.local for h in wire.headers]
        assert "PipeName" in names
        assert "PipeType" in names

    def test_relates_to_roundtrip(self):
        maps = MessageAddressingProperties(
            to="http://h/x", action="http://h/x#op",
            relates_to="urn:uuid:repro-00000042",
        )
        env = SoapEnvelope()
        maps.apply_to(env)
        back = MessageAddressingProperties.extract_from(env)
        assert back.relates_to == "urn:uuid:repro-00000042"

    def test_source_and_fault_to(self):
        maps = MessageAddressingProperties(
            to="http://h/x", action="a://b#c",
            source=EndpointReference("http://me/x"),
            fault_to=EndpointReference("http://me/faults"),
        )
        env = SoapEnvelope()
        maps.apply_to(env)
        back = MessageAddressingProperties.extract_from(
            SoapEnvelope.from_wire(env.to_wire())
        )
        assert back.source.address == "http://me/x"
        assert back.fault_to.address == "http://me/faults"

    def test_extract_missing_to_rejected(self):
        with pytest.raises(WsaError):
            MessageAddressingProperties.extract_from(SoapEnvelope())

    def test_extract_missing_action_rejected(self):
        env = SoapEnvelope()
        env.add_header(Element(QName(ns.WSA, "To", "wsa"), text="http://h/x"))
        with pytest.raises(WsaError):
            MessageAddressingProperties.extract_from(env)


class TestP2psUri:
    def test_paper_example(self):
        addr = parse_p2ps_uri("p2ps://peer-1234/Echo#echoString")
        assert addr.peer_id == "peer-1234"
        assert addr.service_name == "Echo"
        assert addr.pipe_name == "echoString"

    def test_build_matches_parse(self):
        text = make_p2ps_uri("peer-9", "Calc", "addPipe")
        assert parse_p2ps_uri(text) == P2psAddress("peer-9", "Calc", "addPipe")

    def test_bare_pipe(self):
        # reply channels have no service: "the Address field is just
        # the scheme and the host component" + fragment
        addr = parse_p2ps_uri("p2ps://peer-2#reply-7")
        assert addr.service_name == ""
        assert addr.pipe_name == "reply-7"

    def test_peer_only(self):
        addr = parse_p2ps_uri("p2ps://peer-2")
        assert addr == P2psAddress("peer-2")

    def test_service_uri_strips_fragment(self):
        addr = parse_p2ps_uri("p2ps://p/Echo#pipe")
        assert addr.service_uri() == "p2ps://p/Echo"

    def test_missing_peer_rejected(self):
        with pytest.raises(WsaError):
            make_p2ps_uri("")

    def test_wrong_scheme_rejected(self):
        with pytest.raises(WsaError):
            parse_p2ps_uri("http://h/x")

    def test_nested_path_rejected(self):
        with pytest.raises(WsaError):
            parse_p2ps_uri("p2ps://p/a/b#c")

    def test_not_a_uri_rejected(self):
        with pytest.raises(WsaError):
            parse_p2ps_uri("garbage")

    def test_roundtrip_without_service(self):
        text = make_p2ps_uri("peer-5", "", "pipe-1")
        assert text == "p2ps://peer-5#pipe-1"
        assert parse_p2ps_uri(text).pipe_name == "pipe-1"
