"""Tests for SoapEnvelope and SoapFault."""

import pytest

from repro.soap import FaultCode, SoapEnvelope, SoapFault
from repro.soap.envelope import MUST_UNDERSTAND, SoapEnvelopeError
from repro.xmlkit import Element, QName, ns


def op_element(name="echo"):
    return Element(QName("urn:app", name, "app"), nsdecls={"app": "urn:app"})


class TestEnvelope:
    def test_wire_roundtrip(self):
        env = SoapEnvelope(body_content=op_element())
        text = env.to_wire()
        assert text.startswith("<?xml")
        back = SoapEnvelope.from_wire(text)
        assert back.body_content.name == QName("urn:app", "echo")
        assert back.headers == []

    def test_headers_roundtrip(self):
        env = SoapEnvelope(body_content=op_element())
        env.add_header(Element(QName("urn:h", "Token", "h"), text="abc"))
        back = SoapEnvelope.from_wire(env.to_wire())
        assert len(back.headers) == 1
        assert back.headers[0].text == "abc"

    def test_must_understand_flag(self):
        env = SoapEnvelope(body_content=op_element())
        env.add_header(Element(QName("urn:h", "Token", "h")), must_understand=True)
        back = SoapEnvelope.from_wire(env.to_wire())
        assert back.headers[0].get(MUST_UNDERSTAND) == "1"

    def test_empty_body_allowed(self):
        back = SoapEnvelope.from_wire(SoapEnvelope().to_wire())
        assert back.body_content is None

    def test_find_header_by_qname(self):
        env = SoapEnvelope()
        h = env.add_header(Element(QName("urn:h", "Token", "h")))
        assert env.find_header(QName("urn:h", "Token")) is h
        assert env.find_header(QName("urn:zz", "Token")) is None

    def test_find_header_by_local_name(self):
        env = SoapEnvelope()
        env.add_header(Element(QName("urn:h", "Token", "h")))
        assert env.find_header("Token") is not None

    def test_non_envelope_rejected(self):
        with pytest.raises(SoapEnvelopeError):
            SoapEnvelope.from_wire("<notsoap/>")

    def test_missing_body_rejected(self):
        text = f'<e:Envelope xmlns:e="{ns.SOAP_ENV}"><e:Header/></e:Envelope>'
        with pytest.raises(SoapEnvelopeError):
            SoapEnvelope.from_wire(text)

    def test_multiple_body_children_rejected(self):
        text = (
            f'<e:Envelope xmlns:e="{ns.SOAP_ENV}"><e:Body><a/><b/></e:Body></e:Envelope>'
        )
        with pytest.raises(SoapEnvelopeError):
            SoapEnvelope.from_wire(text)

    def test_scope_preserved_on_extraction(self):
        # xsi:type="xsd:int" must still resolve after the body child is
        # detached from the envelope's namespace declarations
        op = op_element()
        arg = op.add("n", text="3")
        arg.set(QName(ns.XSI, "type", "xsi"), "xsd:int")
        env = SoapEnvelope(body_content=op)
        back = SoapEnvelope.from_wire(env.to_wire())
        child = back.body_content.children[0]
        resolved = child.resolve_qname_text(child.get(QName(ns.XSI, "type")))
        assert resolved == QName(ns.XSD, "int")

    def test_body_content_copied_not_aliased(self):
        op = op_element()
        env = SoapEnvelope(body_content=op)
        elem = env.to_element()
        op.set("mutated", "yes")
        body_child = elem.find(QName(ns.SOAP_ENV, "Body")).children[0]
        assert body_child.get("mutated") is None


class TestFault:
    def test_fault_roundtrip(self):
        fault = SoapFault(FaultCode.CLIENT, "bad input", actor="urn:me")
        env = SoapEnvelope.for_fault(fault)
        back = SoapEnvelope.from_wire(env.to_wire())
        assert back.is_fault
        f = back.fault()
        assert f.code is FaultCode.CLIENT
        assert f.message == "bad input"
        assert f.actor == "urn:me"

    def test_fault_with_detail(self):
        detail = Element(QName("urn:app", "Diag", "app"), text="stack")
        fault = SoapFault(FaultCode.SERVER, "boom", detail=detail)
        back = SoapEnvelope.from_wire(SoapEnvelope.for_fault(fault).to_wire()).fault()
        assert back.detail is not None
        assert back.detail.text == "stack"

    def test_unknown_code_maps_to_server(self):
        fault = SoapFault(FaultCode.SERVER, "x")
        elem = fault.to_element()
        elem.find("faultcode").text = "weird:Thing"
        assert SoapFault.from_element(elem).code is FaultCode.SERVER

    def test_non_fault_body_is_not_fault(self):
        env = SoapEnvelope(body_content=op_element())
        assert not env.is_fault
        assert env.fault() is None

    def test_fault_is_exception(self):
        with pytest.raises(SoapFault) as exc_info:
            raise SoapFault(FaultCode.MUST_UNDERSTAND, "nope")
        assert exc_info.value.code is FaultCode.MUST_UNDERSTAND

    def test_all_codes_roundtrip(self):
        for code in FaultCode:
            back = SoapFault.from_element(SoapFault(code, "m").to_element())
            assert back.code is code
