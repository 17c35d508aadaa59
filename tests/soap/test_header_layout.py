"""Where the header blocks' namespaces are declared: the envelope decides.

Both write paths — the templates behind ``to_wire`` and
``serialize(to_element())`` — declare each static, prefixed namespace
of the header blocks once, on ``soapenv:Header``.  A prefix the blocks
bind to two URIs and the default namespace stay as they are; the Body's
content keeps its declarations but those the Envelope makes alike.  The
layout in which every block declared its own namespaces is still read:
a Fig. 5 request and its reply, captured in that layout, decode to the
same addressing, ReplyTo and result on the plan path and on the element
path, and a provider answers the request.  A decoded envelope written
again is the wire it was decoded from.
"""

import pytest

from repro.caching import cache_stats, clear_all_caches, reset_cache_stats
from repro.core.p2psmap import epr_from_pipe, pipe_from_epr
from repro.p2ps.advertisements import PipeAdvertisement
from repro.soap.envelope import SoapEnvelope
from repro.soap.rpc import build_rpc_request, extract_rpc_result
from repro.wsa.headers import MessageAddressingProperties, request_templates
from repro.xmlkit import Element, QName, ns, parse, serialize
from tests.wsa.test_header_codec import NS, served

WSA_DECL = ' xmlns:wsa="%s"' % ns.WSA
P2PS_DECL = ' xmlns:p2ps="%s"' % ns.P2PS
_ENVELOPE = (
    '<?xml version="1.0" encoding="utf-8"?><soapenv:Envelope'
    ' xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"'
    ' xmlns:xsd="http://www.w3.org/2001/XMLSchema"'
    ' xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
)

#: a Fig. 5 request over P2PS, every block declaring its own namespaces
#: (the bytes an earlier release of this stack wrote)
PER_BLOCK_REQUEST = _ENVELOPE + (
    "<soapenv:Header>"
    '<wsa:To xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/03/addressing">p2ps://peer-prov-0001/Bench</wsa:To>'
    '<wsa:Action xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/03/addressing">'
    "p2ps://peer-prov-0001/Bench#echo</wsa:Action>"
    '<wsa:MessageID xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/03/addressing">'
    "urn:uuid:repro-00000002</wsa:MessageID>"
    '<wsa:ReplyTo xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/03/addressing">'
    "<wsa:Address>p2ps://peer-cons-0002</wsa:Address><wsa:ReferenceProperties>"
    '<p2ps:PipeId xmlns:p2ps="http://repro.wspeer/p2ps">pipe-000004</p2ps:PipeId>'
    '<p2ps:PipeName xmlns:p2ps="http://repro.wspeer/p2ps">reply-echo</p2ps:PipeName>'
    '<p2ps:PipeType xmlns:p2ps="http://repro.wspeer/p2ps">input</p2ps:PipeType>'
    "</wsa:ReferenceProperties></wsa:ReplyTo>"
    '<p2ps:PipeId xmlns:p2ps="http://repro.wspeer/p2ps">pipe-000001</p2ps:PipeId>'
    '<p2ps:PipeName xmlns:p2ps="http://repro.wspeer/p2ps">echo</p2ps:PipeName>'
    '<p2ps:PipeType xmlns:p2ps="http://repro.wspeer/p2ps">input</p2ps:PipeType>'
    "</soapenv:Header><soapenv:Body>"
    '<tns:echo xmlns:tns="urn:wspeer:Bench"><message xsi:type="xsd:string">hi</message></tns:echo>'
    "</soapenv:Body></soapenv:Envelope>"
)
#: its reply on the reply pipe, in the same layout
PER_BLOCK_REPLY = _ENVELOPE + (
    "<soapenv:Header>"
    '<wsa:To xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/03/addressing">p2ps://peer-cons-0002</wsa:To>'
    '<wsa:Action xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/03/addressing">'
    "p2ps://peer-prov-0001/Bench#echoResponse</wsa:Action>"
    '<wsa:RelatesTo xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/03/addressing">'
    "urn:uuid:repro-00000002</wsa:RelatesTo>"
    "</soapenv:Header><soapenv:Body>"
    '<tns:echoResponse xmlns:tns="urn:wspeer:Bench"><return xsi:type="xsd:string">hi</return></tns:echoResponse>'
    "</soapenv:Body></soapenv:Envelope>"
)


@pytest.fixture(autouse=True)
def _clean_caches():
    clear_all_caches()
    reset_cache_stats()
    yield
    clear_all_caches()


def hoisted(wire):
    """*wire* with its ``wsa`` and ``p2ps`` declarations moved onto ``soapenv:Header``."""
    decls = "".join(decl for decl in (WSA_DECL, P2PS_DECL) if decl in wire)
    wire = wire.replace(WSA_DECL, "").replace(P2PS_DECL, "")
    return wire.replace("<soapenv:Header>", f"<soapenv:Header{decls}>")


def fig5_maps():
    reply = epr_from_pipe(PipeAdvertisement("pipe-000004", "reply-echo", "peer-cons-0002"))
    target = epr_from_pipe(PipeAdvertisement("pipe-000001", "echo", "peer-prov-0001", service_name="Bench"))
    maps = MessageAddressingProperties(
        target.address, target.address + "#echo", reply_to=reply, message_id="urn:uuid:repro-00000002",
    )
    return maps, target


def fig5_request():
    maps, target = fig5_maps()
    return maps.apply_to(build_rpc_request(NS, "echo", {"message": "hi"}), target=target)


def decodes(wire):
    """The envelopes of *wire*: the element path, then cold, probation
    and warm ``from_wire`` — the last off its skeleton's plan."""
    clear_all_caches()
    yield "element", SoapEnvelope.from_element(parse(wire))
    for sighting in ("cold", "probation", "warm"):
        before = cache_stats()["decode-skeletons"]["hits"]
        envelope = SoapEnvelope.from_wire(wire)
        assert (cache_stats()["decode-skeletons"]["hits"] > before) == (sighting == "warm")
        yield sighting, envelope


def read(envelope):
    """What a reader takes from *envelope*: its MAPs, the ReplyTo EPR and
    the advert it maps to, and the RPC result (a request has none)."""
    maps = MessageAddressingProperties.extract_from(envelope)
    reply = maps.reply_to
    result = extract_rpc_result(envelope) if envelope.body_name.local.endswith("Response") else None
    return (
        (maps.to, maps.action, maps.message_id, maps.relates_to, maps.trace_context),
        None if reply is None else (
            reply.address,
            [reply.property_text(local) for local in ("PipeId", "PipeName", "PipeType")],
            vars(pipe_from_epr(reply)),
        ),
        result,
    ), reply


def test_the_fig5_request_declares_each_namespace_once():
    wire = fig5_request().to_wire()
    assert wire == hoisted(PER_BLOCK_REQUEST)
    assert wire.count(WSA_DECL) == wire.count(P2PS_DECL) == 1
    assert '<soapenv:Header xmlns:wsa="%s" xmlns:p2ps="%s">' % (ns.WSA, ns.P2PS) in wire
    # the pin: 373 bytes of repeated declarations are gone
    assert (len(PER_BLOCK_REQUEST), len(wire)) == (1364, 991)
    assert (len(PER_BLOCK_REPLY), len(hoisted(PER_BLOCK_REPLY))) == (741, 619)


def test_the_template_and_the_serialiser_write_the_same_bytes():
    envelope = fig5_request()
    assert envelope._head is not None  # still texts: to_wire takes the template
    wire = envelope.to_wire()
    assert serialize(envelope.to_element(), xml_declaration=True) == wire
    maps, target = fig5_maps()
    assert request_templates.render(maps, NS, "echo", {"message": "hi"}, target) == wire
    grown = fig5_request()
    grown.headers  # elements now: the template keys on their shapes
    assert grown._head is None and grown.to_wire() == wire
    for path, decoded in decodes(wire):
        assert decoded.to_wire() == wire, path
        assert serialize(decoded.to_element(), xml_declaration=True) == wire, path


@pytest.mark.parametrize("per_block", [PER_BLOCK_REQUEST, PER_BLOCK_REPLY], ids=["request", "reply"])
def test_the_per_block_layout_reads_as_the_envelopes(per_block):
    wire = hoisted(per_block)
    expected, expected_reply = read(SoapEnvelope.from_element(parse(wire)))
    for layout in (per_block, wire):
        for path, envelope in decodes(layout):
            got, reply = read(envelope)
            assert got == expected, path
            assert reply == expected_reply, path  # the grown property trees
            # written again, either layout comes out in the envelope's
            assert envelope.to_wire() == wire, path


def test_a_decoded_fig6_reply_is_written_back_byte_for_byte():
    """The content's folded-in Envelope declarations are not written again."""
    wire = hoisted(PER_BLOCK_REPLY)
    assert len(wire) == 619
    for path, decoded in decodes(wire):
        decoded.headers, decoded.body_content  # the element path, whatever was deferred
        assert decoded.body_content.nsdecls["xsi"] == ns.XSI  # still folded in: it resolves alone
        assert decoded.to_wire() == wire, path
        assert serialize(decoded.to_element(), xml_declaration=True) == wire, path
    for path, decoded in decodes(wire):  # and off the deferred texts and shapes
        assert decoded.to_wire() == wire, path


def test_a_provider_answers_a_per_block_request():
    answer = served(PER_BLOCK_REQUEST)
    assert answer == served(hoisted(PER_BLOCK_REQUEST))
    fault, reply, sent = answer
    assert not fault and reply == hoisted(PER_BLOCK_REPLY)
    assert sent == [(("ok", ("pipe-000004", "reply-echo", "peer-cons-0002", "input", "")), reply)]


def _round_trips(blocks, local):
    """An envelope of *blocks* writes *local* — declarations and all —
    inside a Header that declares nothing, and reads back to that wire."""
    envelope = SoapEnvelope(body_content=Element(QName(NS, "op", "tns"), nsdecls={"tns": NS}), headers=blocks)
    wire = envelope.to_wire()
    assert wire == serialize(envelope.to_element(), xml_declaration=True)
    assert f"<soapenv:Header>{local}</soapenv:Header>" in wire
    for path, decoded in decodes(wire):
        assert decoded.to_wire() == wire, path
        assert [block.name for block in decoded.headers] == [block.name for block in blocks], path


def test_a_prefix_bound_to_two_uris_stays_declared_on_each_block():
    _round_trips(
        [
            Element(QName("urn:a", "A", "x"), text="1", nsdecls={"x": "urn:a"}),
            Element(QName("urn:b", "B", "x"), text="2", nsdecls={"x": "urn:b"}),
        ],
        '<x:A xmlns:x="urn:a">1</x:A><x:B xmlns:x="urn:b">2</x:B>',
    )


def test_a_default_namespace_stays_on_its_block():
    block = Element(QName("urn:d", "D", ""), nsdecls={"": "urn:d"})
    block.append(Element(QName("urn:d", "E", ""), text="e"))
    _round_trips([block], '<D xmlns="urn:d"><E>e</E></D>')


def test_a_prefix_bound_otherwise_by_the_envelope_stays_local():
    block = Element(QName("urn:not-schema", "T", "xsd"), text="t", nsdecls={"xsd": "urn:not-schema"})
    _round_trips([block], '<xsd:T xmlns:xsd="urn:not-schema">t</xsd:T>')
