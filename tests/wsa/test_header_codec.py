"""WS-Addressing headers and EndpointReferences without element trees.

The addressing fast paths are optimisations and nothing else.  For every
input:

- **encode** — ``apply_to`` + ``to_wire`` is byte-identical to
  ``serialize(envelope.to_element(), xml_declaration=True)`` over header
  blocks built as elements by :func:`element_blocks` below (the element
  path, kept here as the oracle, independent of the product's builder);
- **decode** — the header blocks equal those of
  ``SoapEnvelope.from_element(parse(wire))`` (names with their prefix
  hints, ``nsdecls`` and attribute order, every content chunk), a
  reading voted on against the frozen reference parser, and the MAPs, the ReplyTo EPR and the pipe advert read off slot texts
  equal the element path's, result or error, cold, on probation and
  warm.

Then the four rules, a hostile-mutant sweep of a warm ``echo_p2ps``
request, and the bound on what a hostile peer can make the process keep.
Last, the addressing plan: on every head shape the suites above and the
decode-skeleton suite build, what the readers answer off a head's plan
equals what they answer off the same head grown into elements, and a
head the MAPs refuse raises the same ``WsaError`` both ways.
"""

import sys
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching import cache_stats, clear_all_caches, reset_cache_stats
from repro.core import WSPeer
from repro.core.binding import P2psBinding
from repro.core.deployer import P2psServiceDeployer
from repro.core.hosting import LightweightContainer
from repro.core.p2psmap import epr_from_pipe, pipe_from_epr
from repro.observability.tracecontext import TRACE_HEADER, raw_context_of
from repro.p2ps import PeerGroup
from repro.p2ps.advertisements import PipeAdvertisement
from repro.reliability.ack import ack_requested, mark_ack_requested
from repro.simnet import FixedLatency, Network
from repro.soap.envelope import MUST_UNDERSTAND, SoapEnvelope
from repro.soap.handlers import CallbackHandler
from repro.soap.rpc import build_rpc_request
from repro.wsa.epr import EndpointReference, WsaError
from repro.wsa.headers import MessageAddressingProperties, message_id_of, relates_to_of
from repro.xmlkit import Element, QName, XmlParseError, ns, parse, serialize
from repro.xmlkit.names import _INTERN_MAX
from repro.xmlkit.serializer import escape_text
from tests.soap.test_decode_skeleton import HAND_BUILT, stack_wires  # noqa: F401 - a fixture
from tests.xmlkit.test_codec_parity import assert_readers_agree

NS = "urn:wspeer:Bench"
STORE = "decode-skeletons"
WSA_NAMES = {local: QName(ns.WSA, local, "wsa") for local in (
    "To", "Action", "MessageID", "RelatesTo", "ReplyTo", "From", "FaultTo",
    "Address", "ReferenceProperties",
)}
TEXTS = ["", "x<y", "a&b", "]]>", "\r\n", "é中", "&amp;", "plain"]


@pytest.fixture(autouse=True)
def _clean_caches():
    clear_all_caches()
    reset_cache_stats()
    yield
    clear_all_caches()


# ----------------------------------------------------------------------
# oracles and views
# ----------------------------------------------------------------------
def element_blocks(maps, target=None):
    """The header blocks the element path writes for *maps*."""

    def leaf(local, text, uri=ns.WSA, prefix="wsa"):
        return Element(QName(uri, local, prefix), text=text, nsdecls={prefix: uri})

    def epr(tag, ref):
        root = Element(WSA_NAMES[tag], nsdecls={"wsa": ns.WSA})
        root.append(Element(WSA_NAMES["Address"], text=ref.address))
        if ref.reference_properties:
            wrapper = root.append(Element(WSA_NAMES["ReferenceProperties"]))
            for prop in ref.reference_properties:
                wrapper.append(prop.copy())
        return root

    blocks = [leaf("To", maps.to), leaf("Action", maps.action)]
    if maps.message_id:
        blocks.append(leaf("MessageID", maps.message_id))
    if maps.relates_to:
        blocks.append(leaf("RelatesTo", maps.relates_to))
    if maps.trace_context:
        blocks.append(leaf("TraceContext", maps.trace_context, ns.TRACE, "rt"))
    for tag, ref in (("ReplyTo", maps.reply_to), ("From", maps.source), ("FaultTo", maps.fault_to)):
        if ref is not None:
            blocks.append(epr(tag, ref))
    if target is not None:
        blocks += [prop.copy() for prop in target.reference_properties]
    return blocks


def tree(elem):
    """Everything observable about a tree, prefix hints and order included."""

    def name(q):
        return (q.uri, q.local, q.prefix)

    return (
        name(elem.name),
        tuple(elem.nsdecls.items()),
        tuple((name(k), v) for k, v in elem.attributes.items()),
        tuple(c if isinstance(c, str) else tree(c) for c in elem.content),
    )


def attempt(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error *is* the outcome
        return ("error", type(exc), str(exc))


def advert_view(advert):
    return (advert.pipe_id, advert.name, advert.peer_id, advert.pipe_type, advert.service_name)


def epr_view(epr):
    """An EPR as the readers see it: its texts first (no growth), then
    the advert it maps to, then the grown property trees."""
    if epr is None:
        return None
    texts = tuple(epr.property_text(local, "-") for local in ("PipeId", "PipeName", "PipeType", "k"))
    advert = attempt(lambda: advert_view(pipe_from_epr(epr)))
    return (epr.address, texts, advert, tuple(tree(p) for p in epr.reference_properties))


def maps_view(maps):
    return (
        maps.to, maps.action, maps.message_id, maps.relates_to, maps.trace_context,
        epr_view(maps.reply_to), epr_view(maps.source), epr_view(maps.fault_to),
    )


PROBES = [WSA_NAMES[n] for n in ("To", "Action", "MessageID", "RelatesTo", "ReplyTo", "From")] + [
    TRACE_HEADER, "PipeId", "Address",
]


def outcome(wire, parser=None):
    """Everything one decode of *wire* answers, in the order a reader
    would ask: header texts, mustUnderstand names, MAPs (texts, advert,
    then grown properties), then the grown header blocks.  With
    *parser*, over ``from_element(parser(wire))`` — no cache involved."""
    try:
        envelope = SoapEnvelope.from_wire(wire) if parser is None else SoapEnvelope.from_element(parser(wire))
    except Exception as exc:  # noqa: BLE001
        return ("error", type(exc), str(exc))
    return (
        tuple(envelope.header_text(name) for name in PROBES),
        tuple(str(name) for name in envelope.must_understand()),
        message_id_of(envelope), relates_to_of(envelope),
        attempt(lambda: maps_view(MessageAddressingProperties.extract_from(envelope))),
        tuple(tree(block) for block in envelope.headers),
    )


def hits():
    return cache_stats()[STORE]["hits"]


def assert_decode_parity(wire, cuttable=True):
    """Cold, probation and warm decodes all equal the oracle's."""
    expected = outcome(wire, parse)
    assert_readers_agree(wire)
    clear_all_caches()
    for sighting in range(3):
        before = hits()
        assert outcome(wire) == expected, sighting
        if cuttable:
            assert hits() - before == (sighting == 2)
    return expected


# ----------------------------------------------------------------------
# generated MAPs and EPR shapes
# ----------------------------------------------------------------------
@st.composite
def properties(draw, max_size=4):
    """Element properties: leaves mostly, prefixes and nsdecls varied;
    now and then an attribute or a child, which take the element path."""
    props = []
    for _ in range(draw(st.integers(0, max_size))):
        uri = draw(st.sampled_from(["urn:a", ns.P2PS]))
        prefix = draw(st.sampled_from(["p2ps", "a", ""]))
        local = draw(st.sampled_from(["PipeId", "PipeName", "PipeType", "k"]))
        decls = draw(st.sampled_from(["own", "none", "extra"]))
        nsdecls = {"own": {prefix: uri}, "none": {}, "extra": {"x": "urn:x", prefix: uri}}[decls]
        prop = Element(QName(uri, local, prefix), text=draw(st.sampled_from(TEXTS)), nsdecls=nsdecls)
        extra = draw(st.sampled_from(["leaf"] * 8 + ["attribute", "child"]))
        if extra == "attribute":
            prop.set("flag", "1")
        elif extra == "child":
            prop.append(Element("inner", text="x"))
        props.append(prop)
    return props


@st.composite
def eprs(draw):
    props = draw(properties())
    address = draw(st.sampled_from(["p2ps://peer-1/Svc", "p2ps://peer-2", "x<y&z"]))
    if draw(st.booleans()) and all(not p.attributes and not p.children for p in props):
        # value-backed, as epr_from_pipe and a decode make them
        shape = tuple(
            ((p.name.uri, p.name.local, p.name.prefix), tuple(p.nsdecls.items())) for p in props
        )
        return EndpointReference.from_texts(address, shape, [p.text for p in props])
    return EndpointReference(address, props)


optional_text = st.one_of(st.none(), st.sampled_from(TEXTS))


@st.composite
def addressed(draw):
    maps = MessageAddressingProperties(
        to=draw(st.sampled_from(["p2ps://peer-1/Svc", "http://h:80/services/S", "a&b"])),
        action=draw(st.sampled_from(["p2ps://peer-1/Svc#echo", "x<y"])),
        reply_to=draw(st.one_of(st.none(), eprs())),
        message_id=draw(optional_text),
        relates_to=draw(optional_text),
        source=draw(st.one_of(st.none(), st.none(), st.none(), eprs())),
        fault_to=draw(st.one_of(st.none(), st.none(), st.none(), eprs())),
        trace_context=draw(optional_text),
    )
    target = draw(st.one_of(st.none(), eprs()))
    preset = draw(st.sampled_from([False] * 5 + [True]))
    return maps, target, preset


def deferrable(maps, target, preset):
    """Rule (d)'s complement: when ``apply_to`` may keep texts."""
    texts = [maps.to, maps.action] + [t for t in (maps.message_id, maps.relates_to, maps.trace_context) if t]
    for epr in (maps.reply_to, target):
        if epr is None:
            continue
        leaves = epr.leaves()  # read without growing: apply_to sees it as drawn
        if leaves is None:
            return False
        texts += leaves[1]
    return not preset and maps.source is None and maps.fault_to is None and all(texts)


@settings(max_examples=400, deadline=None)
@given(addressed())
def test_encode_is_the_element_path(case):
    maps, target, preset = case
    extra = Element(QName("urn:other", "Extra", "o"), text="1", nsdecls={"o": "urn:other"})
    keeps_texts = deferrable(maps, target, preset)
    envelopes = []
    for _ in range(2):  # the template's build, then a hit
        envelope = build_rpc_request(NS, "echo", {"message": "m"})
        if preset:
            envelope.add_header(extra.copy())
        maps.apply_to(envelope, target=target)
        assert (envelope._head is not None) == keeps_texts
        envelopes.append(envelope)
    # the oracle reads the EPRs' properties: only now may they grow
    expected_headers = ([extra.copy()] if preset else []) + element_blocks(maps, target)
    body = build_rpc_request(NS, "echo", {"message": "m"}).body_content
    expected = serialize(
        SoapEnvelope(body_content=body, headers=expected_headers).to_element(), xml_declaration=True
    )
    for envelope in envelopes:
        assert envelope.to_wire() == expected
        assert (envelope._head is not None) == keeps_texts  # writing never grows
        assert [tree(b) for b in envelope.headers] == [tree(b) for b in expected_headers]


def _decode_wire(maps_case, wrapper_decls, leaves):
    """A request wire whose ReplyTo carries namespace declarations on its
    wrapper and/or its leaves, as another stack might write it."""
    maps, target, _ = maps_case
    envelope = build_rpc_request(NS, "echo", {"message": "m"})
    maps.reply_to = None
    maps.source = maps.fault_to = None
    maps.apply_to(envelope, target=target)
    wire = envelope.to_wire()
    reply = ['<wsa:ReplyTo xmlns:wsa="%s"><wsa:Address>p2ps://peer-9</wsa:Address>' % ns.WSA]
    reply.append('<wsa:ReferenceProperties%s>' % (' xmlns:q="%s"' % ns.P2PS if wrapper_decls else ""))
    for local, text in leaves:
        decl = ' xmlns:q="%s"' % ns.P2PS if not wrapper_decls else ""
        reply.append(f"<q:{local}{decl}>{escape_text(text)}</q:{local}>")
    reply.append("</wsa:ReferenceProperties></wsa:ReplyTo>")
    return wire.replace("</soapenv:Header>", "".join(reply) + "</soapenv:Header>")


@settings(max_examples=150, deadline=None)
@given(
    addressed(), st.booleans(),
    st.lists(st.tuples(st.sampled_from(["PipeId", "PipeName", "PipeType", "k"]), st.sampled_from(TEXTS)),
             max_size=4),
)
def test_decode_is_the_element_path(case, wrapper_decls, leaves):
    wire = _decode_wire(case, wrapper_decls, leaves)
    assert_decode_parity(wire)


@settings(max_examples=150, deadline=None)
@given(addressed())
def test_a_written_wire_decodes_as_the_element_path(case):
    maps, target, _ = case
    envelope = build_rpc_request(NS, "echo", {"message": "m"})
    maps.apply_to(envelope, target=target)
    assert_decode_parity(envelope.to_wire())


def test_the_struct_of_leaves_is_read_without_growing():
    """The by-pass twin: on a warm echo_p2ps wire the fast paths *are*
    taken — parity above would hold trivially if they never were."""
    reply = epr_from_pipe(PipeAdvertisement("pipe-7", "reply-echo", "peer-c"))
    maps = MessageAddressingProperties(
        "p2ps://peer-p/Bench", "p2ps://peer-p/Bench#echo", reply_to=reply, message_id="m-1",
    )
    target = epr_from_pipe(PipeAdvertisement("pipe-1", "echo", "peer-p", service_name="Bench"))
    envelope = build_rpc_request(NS, "echo", {"message": "hi"})
    maps.apply_to(envelope, target=target)
    wire = envelope.to_wire()
    assert envelope._head is not None and reply._properties is None and target._properties is None
    for _ in range(2):
        SoapEnvelope.from_wire(wire)
    decoded = SoapEnvelope.from_wire(wire)
    assert decoded._head is not None
    got = MessageAddressingProperties.extract_from(decoded)
    assert decoded._head is not None and got.reply_to._properties is None
    assert advert_view(pipe_from_epr(got.reply_to)) == ("pipe-7", "reply-echo", "peer-c", "input", "")
    assert got.reply_to._properties is None
    assert got.reply_to == reply  # equality reads the properties
    assert decoded.must_understand() == () and decoded._head is not None
    assert repr(decoded) == "<SoapEnvelope body=echo headers=7>" and decoded._head is not None


# ----------------------------------------------------------------------
# the four rules
# ----------------------------------------------------------------------
def _warm(wire):
    for _ in range(2):
        SoapEnvelope.from_wire(wire)
    return SoapEnvelope.from_wire(wire)


def _request(message_id="m-1", **fields):
    reply = epr_from_pipe(PipeAdvertisement("pipe-7", "reply-echo", "peer-c"))
    maps = MessageAddressingProperties(
        "p2ps://peer-p/Bench", "p2ps://peer-p/Bench#echo", reply_to=reply,
        message_id=message_id, **fields,
    )
    envelope = build_rpc_request(NS, "echo", {"message": "hi"})
    maps.apply_to(envelope)
    return maps, envelope


def test_rule_a_a_read_makes_the_elements_the_truth():
    maps, envelope = _request()
    envelope.find_header(WSA_NAMES["MessageID"]).text = "changed"  # a read grows
    assert envelope._head is None
    wire = envelope.to_wire()
    assert "changed</wsa:MessageID>" in wire
    assert wire == serialize(envelope.to_element(), xml_declaration=True)

    decoded = _warm(wire)
    decoded.headers[2].text = "rewritten"
    decoded.add_header(Element(QName("urn:x", "Note", "x"), text="n", nsdecls={"x": "urn:x"}))
    assert message_id_of(decoded) == "rewritten"
    assert MessageAddressingProperties.extract_from(decoded).message_id == "rewritten"
    assert decoded.header_text(QName("urn:x", "Note")) == "n"
    assert "rewritten" in decoded.to_wire() and "<x:Note" in decoded.to_wire()

    epr = MessageAddressingProperties.extract_from(_warm(wire)).reply_to
    assert epr._properties is None
    epr.reference_properties[0].text = "pipe-99"
    assert epr.property_text("PipeId") == "pipe-99"
    assert pipe_from_epr(epr).pipe_id == "pipe-99"


def test_rule_a_a_handler_that_reads_headers_sees_and_changes_them():
    net = Network(latency=FixedLatency(0.002))
    group = PeerGroup("g")
    provider = WSPeer(net.add_node("prov"), P2psBinding(group), name="prov")
    deployed = provider.deploy(Echo(), name="Bench", namespace=NS)
    provider.publish("Bench")
    net.run()
    consumer = WSPeer(net.add_node("cons"), P2psBinding(group), name="cons")
    handle = consumer.locate_one("Bench")
    net.run()
    seen = []

    def inspect(context):
        if context.request is not None and context.response is None:
            seen.append([block.name.local for block in context.request.headers])

    deployed.chain.append(CallbackHandler(inspect))
    for _ in range(4):
        assert consumer.invoke(handle, "echo", message="hi") == "hi"
    assert seen[-1][:4] == ["To", "Action", "MessageID", "ReplyTo"]


def test_rule_b_texts_are_taken_when_the_envelope_is_made():
    prop = Element(QName(ns.P2PS, "PipeId", "p2ps"), text="pipe-1", nsdecls={"p2ps": ns.P2PS})
    reply = EndpointReference("p2ps://peer-c", [prop])
    maps = MessageAddressingProperties("p2ps://p/S", "p2ps://p/S#op", reply_to=reply, message_id="m")
    envelope = build_rpc_request(NS, "echo", {"message": "hi"})
    maps.apply_to(envelope)
    before = envelope.to_wire()
    reply.reference_properties[0].text = "pipe-2"
    maps.message_id = "other"
    assert envelope.to_wire() == before and "pipe-1" in before


def test_rule_b_a_decoded_envelopes_grown_headers_are_isolated():
    _, envelope = _request()
    wire = envelope.to_wire()
    expected = outcome(wire, parse)
    assert_readers_agree(wire)
    for _ in range(3):
        decoded = SoapEnvelope.from_wire(wire)
        block = decoded.headers[3]  # ReplyTo
        block.set("extra", "1")
        block.nsdecls["wsa"] = "urn:hijacked"
        block.children[1].children[0].text = "changed"
        decoded.headers.append(Element("another"))
        epr = MessageAddressingProperties.extract_from(SoapEnvelope.from_wire(wire)).reply_to
        epr.reference_properties.append(Element("more"))
        assert outcome(wire) == expected


def _must_understand_wire(attribute):
    _, envelope = _request()
    block = f'<f:Secret xmlns:f="urn:foreign" {attribute}>s</f:Secret>'
    return envelope.to_wire().replace("</soapenv:Header>", block + "</soapenv:Header>")


@pytest.mark.parametrize("attribute, faults", [
    ('soapenv:mustUnderstand="1"', True),
    ('soapenv:mustUnderstand="true"', True),
    ('soapenv:mustUnderstand="0"', False),
    ('f:mustUnderstand="1"', False),  # the attribute in a foreign namespace
])
def test_rule_c_an_unknown_must_understand_block_gets_the_same_fault(attribute, faults):
    wire = _must_understand_wire(attribute)
    cold = served(wire)
    assert ("MustUnderstand" in cold[1]) == faults
    if faults:
        assert "header {urn:foreign}Secret carries mustUnderstand but is not understood" in cold[1]
    for _ in range(3):
        assert served(wire) == cold
    assert hits() >= 1  # the skeleton answered, from its plans


def test_rule_d_everything_else_takes_the_element_path():
    leafy = Element(QName(ns.P2PS, "PipeId", "p2ps"), text="pipe-1", nsdecls={"p2ps": ns.P2PS})
    flagged = leafy.copy()
    flagged.set("flag", "1")
    nested = leafy.copy()
    nested.append(Element("inner"))
    empty = Element(QName(ns.P2PS, "PipeId", "p2ps"), nsdecls={"p2ps": ns.P2PS})
    source = EndpointReference("p2ps://peer-s")
    cases = {
        "property with an attribute": dict(reply_to=EndpointReference("p2ps://c", [flagged])),
        "property with a child": dict(reply_to=EndpointReference("p2ps://c", [nested])),
        "empty property text": dict(reply_to=EndpointReference("p2ps://c", [empty])),
        "empty To": dict(relates_to="r"),
        "From": dict(source=source),
        "FaultTo": dict(fault_to=source),
    }
    for why, fields in cases.items():
        maps = MessageAddressingProperties("p2ps://p/S", "p2ps://p/S#op", **fields)
        if why == "empty To":
            maps.to = ""  # written, and self-closed, by the element path
        envelope = build_rpc_request(NS, "echo", {"message": "hi"})
        maps.apply_to(envelope)
        assert envelope._head is None, why
        assert_decode_parity(envelope.to_wire())
    present = build_rpc_request(NS, "echo", {"message": "hi"})
    present.add_header(leafy.copy())
    MessageAddressingProperties("p2ps://p/S", "p2ps://p/S#op").apply_to(present)
    assert present._head is None and present.headers[0].name.local == "PipeId"


# ----------------------------------------------------------------------
# hostile mutants of a warm echo_p2ps request
# ----------------------------------------------------------------------
class Echo:
    def echo(self, message: str) -> str:
        return message


def served(wire, container=None):
    """What the hosting pipeline makes of *wire* — by default on a
    fresh container, with no dedup memory: its fault bit and answer, and
    where it went."""
    if container is None:
        container = LightweightContainer()
        container.deploy(Echo(), name="Bench", namespace=NS)
    sent = []

    def send(epr, answer):
        sent.append((attempt(lambda: advert_view(pipe_from_epr(epr))), answer))

    context = container.serve("Bench", wire, P2psServiceDeployer._reply_maps, send)
    return context.fault, context.wire, sent


def _p2ps_world():
    net = Network(latency=FixedLatency(0.002))
    group = PeerGroup("g")
    provider = WSPeer(net.add_node("prov"), P2psBinding(group), name="prov")
    provider.deploy(Echo(), name="Bench", namespace=NS)
    provider.publish("Bench")
    net.run()
    consumer = WSPeer(net.add_node("cons"), P2psBinding(group), name="cons")
    handle = consumer.locate_one("Bench")
    net.run()
    requests = []
    net.add_delivery_hook(
        lambda frame: requests.append(frame.payload) or True
        if isinstance(frame.payload, str) and "<wsa:ReplyTo" in frame.payload else True
    )
    for _ in range(3):
        assert consumer.invoke(handle, "echo", message="hi") == "hi"
    return net, consumer, handle, requests[-1]


MUTANTS = {
    "emptied-address": lambda w: _sub(w, r"<wsa:Address>[^<]*</wsa:Address>", "<wsa:Address></wsa:Address>"),
    "duplicated-pipe-id": lambda w: _dup_first(w, "<p2ps:PipeId>", "</p2ps:PipeId>"),
    "property-with-attribute": lambda w: w.replace(
        "</wsa:ReferenceProperties>", '<q:K xmlns:q="urn:q" q:a="1">v</q:K></wsa:ReferenceProperties>', 1),
    "foreign-must-understand": lambda w: w.replace(
        "</soapenv:Header>",
        '<f:X xmlns:f="urn:f" f:mustUnderstand="1">x</f:X>'
        '<g:Y xmlns:g="urn:g" soapenv:mustUnderstand="1">y</g:Y></soapenv:Header>'),
    "surrogate-message-id": lambda w: _sub(
        w, r"(<wsa:MessageID[^>]*>)[^<]*", r"\1urn:&#xD800;"),
    "cdata-address": lambda w: _sub(
        w, r"<wsa:Address>([^<]*)</wsa:Address>", r"<wsa:Address><![CDATA[\1]]></wsa:Address>"),
    "redeclared-wsa": lambda w: _sub(w, "<wsa:ReplyTo>", '<wsa:ReplyTo xmlns:wsa="urn:not-addressing">'),
    "reply-to-removed": lambda w: _sub(w, r"<wsa:ReplyTo.*?</wsa:ReplyTo>", ""),
    "500-inserted-properties": lambda w: w.replace(
        "</wsa:ReferenceProperties>",
        "".join(f'<q:P{i} xmlns:q="urn:q">{i}</q:P{i}>' for i in range(500))
        + "</wsa:ReferenceProperties>", 1),
}


def _sub(wire, pattern, replacement):
    import re

    mutated = re.sub(pattern, replacement, wire, count=1, flags=re.S)
    assert mutated != wire
    return mutated


def _dup_first(wire, open_tag, close_tag):
    start = wire.index(open_tag)
    end = wire.index(close_tag, start) + len(close_tag)
    return wire[:end] + wire[start:end] + wire[end:]


def test_every_mutant_changes_its_base_wire():
    """A mutant whose needle the wire no longer holds tests nothing."""
    base = _p2ps_world()[3]
    for name, mutate in MUTANTS.items():
        assert mutate(base) != base, name


@pytest.mark.parametrize("mutate", MUTANTS.values(), ids=MUTANTS.keys())
def test_a_mutant_of_a_warm_request_meets_the_oracle(mutate):
    net, consumer, handle, base = _p2ps_world()
    hostile = mutate(base)
    clear_all_caches()
    expected = outcome(hostile, parse)
    assert_readers_agree(hostile)
    cold = served(hostile)
    for _ in range(2):  # the base skeleton is cut and live
        served(base)
    before = hits()
    served(base)
    assert hits() - before == 1
    for _ in range(3):  # also once its own shape may have been cut
        assert outcome(hostile) == expected
        assert served(hostile) == cold
    # and down the real pipe: nothing escapes Kernel.step
    pipe = consumer.peer.open_output_pipe(
        next(pipe_from_epr(e) for e in handle.endpoints if e.property_text("PipeName") == "echo")
    )
    for _ in range(3):
        consumer.peer.send_down_pipe(pipe, hostile)
        net.run()
    assert consumer.invoke(handle, "echo", message="still") == "still"


#: what XML 1.0 refuses and a slot once took, each in a slot of a warm
#: request: the message's text, or the body's own declaration (a start tag's)
NOT_CHAR_DATA = {
    "cdata-end-in-text": (">hi<", ">h]]>i<"),
    "c0-control-in-text": (">hi<", ">h\x01i<"),
    "c0-control-in-attribute": (f'="{NS}"', f'="{NS}\x01"'),
    "u+fffe-in-text": (">hi<", ">h\ufffei<"),
    "reference-to-non-char": (">hi<", ">h&#x1;i<"),
}


def _refusal(wire):
    try:
        SoapEnvelope.from_wire(wire)
    except XmlParseError as exc:
        return type(exc), str(exc), exc.line, exc.column
    return None


@pytest.mark.parametrize("needle, mutation", NOT_CHAR_DATA.values(), ids=NOT_CHAR_DATA.keys())
def test_a_warm_skeleton_refuses_what_the_reader_refuses(needle, mutation):
    base = _p2ps_world()[3]
    assert base.count(needle) == 1
    hostile = base.replace(needle, mutation)
    clear_all_caches()
    cold = _refusal(hostile)
    assert cold is not None  # the reader refuses it
    for _ in range(2):
        SoapEnvelope.from_wire(base)
    before = hits()
    SoapEnvelope.from_wire(base)
    assert hits() == before + 1  # the skeleton is live
    assert _refusal(hostile) == cold  # the fast path declines and the reader words it
    assert hits() == before + 1


# ----------------------------------------------------------------------
# bounded by construction
# ----------------------------------------------------------------------
_CONTAINERS = (dict, list, set, frozenset, deque)


def _module_containers():
    """``(where, size)`` of every container a ``repro`` module holds: its
    globals, its classes' attributes, and one level into the objects it
    holds (the process-wide caches and their stores)."""
    seen = set()

    def visit(where, value, depth):
        if id(value) in seen or isinstance(value, (type, type(sys))) or callable(value):
            return
        seen.add(id(value))
        if isinstance(value, _CONTAINERS):
            yield where, len(value)
            return
        if not depth:
            return
        attrs = dict(getattr(value, "__dict__", {}))
        for klass in type(value).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if hasattr(value, slot):
                    attrs[slot] = getattr(value, slot)
        for attr, inner in attrs.items():
            yield from visit(f"{where}.{attr}", inner, depth - 1)

    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in list(vars(value).items()):
                    yield from visit(f"{name}.{attr}.{cattr}", cvalue, 2)
            else:
                yield from visit(f"{name}.{attr}", value, 2)


def test_distinct_reply_to_shapes_leave_nothing_unbounded():
    """10 000 requests from a hostile peer, each with a ReplyTo property
    name never seen before, through encode, the hosting pipeline and the
    EPR readers: every module-level container stays within the caps the
    codec caches already had (64 skeletons, 256 probation keys, 256
    templates), and the QName intern table within its own."""
    sizes_before = dict(_module_containers())
    container = LightweightContainer()
    container.deploy(Echo(), name="Bench", namespace=NS)
    read = []
    for i in range(10_000):
        prop = Element(QName(ns.P2PS, f"P{i}", "p2ps"), text=f"v{i}", nsdecls={"p2ps": ns.P2PS})
        maps = MessageAddressingProperties(
            "p2ps://peer-p/Bench", "p2ps://peer-p/Bench#echo",
            reply_to=EndpointReference("p2ps://peer-c", [prop]), message_id=f"m-{i}",
        )
        envelope = build_rpc_request(NS, "echo", {"message": "hi"})
        maps.apply_to(envelope)
        context = container.serve(
            "Bench", envelope.to_wire(), P2psServiceDeployer._reply_maps,
            lambda epr, answer: read.append(epr.property_text(f"P{i}")),
        )
        assert not context.fault and read.pop() == f"v{i}"
    stats = cache_stats()
    assert stats[STORE]["size"] <= 64
    assert stats["decode-skeleton-probation"]["size"] <= 256
    assert stats["wire-templates"]["size"] <= 256
    grown = {
        where: size for where, size in _module_containers()
        if size > max(256, sizes_before.get(where, 0))
    }
    # one table under two names: the walk reports whichever it meets first
    interned = max(grown.pop(f"repro.xmlkit.names.{name}", 0) for name in ("_interned", "_intern_table._data"))
    assert interned <= _INTERN_MAX
    assert grown == {}


def test_must_understand_names_come_from_the_plans():
    wire = _must_understand_wire('soapenv:mustUnderstand="1"')
    decoded = _warm(wire)
    assert decoded._head is not None
    assert [str(n) for n in decoded.must_understand()] == ["{urn:foreign}Secret"]
    assert decoded._head is not None
    block = next(b for b in decoded.headers if b.name.local == "Secret")
    assert block.get(MUST_UNDERSTAND) == "1"


def test_an_epr_without_properties_and_an_empty_address():
    for fragment, error in (
        ("<wsa:Address>p2ps://peer-c</wsa:Address>", None),
        ("<wsa:Address></wsa:Address>", WsaError),
        ("<wsa:Address/>", WsaError),
    ):
        maps = MessageAddressingProperties("p2ps://p/S", "p2ps://p/S#op", message_id="m")
        envelope = build_rpc_request(NS, "echo", {"message": "hi"})
        maps.apply_to(envelope)
        reply = '<wsa:ReplyTo xmlns:wsa="%s">%s</wsa:ReplyTo>' % (ns.WSA, fragment)
        wire = envelope.to_wire().replace("</soapenv:Header>", reply + "</soapenv:Header>")
        expected = assert_decode_parity(wire)
        assert (expected[4][0] == "error") == (error is not None)


# ----------------------------------------------------------------------
# the addressing plan against the element path
# ----------------------------------------------------------------------
def readers(envelope):
    """What every addressing reader makes of *envelope*: the by-name
    readers first (they never grow the blocks), then the MAPs."""
    return (
        message_id_of(envelope), relates_to_of(envelope), ack_requested(envelope),
        raw_context_of(envelope),
        attempt(lambda: maps_view(MessageAddressingProperties.extract_from(envelope))),
    )


def assert_plan_parity(wire):
    """Warm, the readers answer off a decoded head's plan what they
    answer off the same head grown into elements, MAPs or ``WsaError``
    alike.  Returns (whether the plan was read, what they answered)."""
    clear_all_caches()
    try:
        for _ in range(2):
            SoapEnvelope.from_wire(wire)
        planned, grown = SoapEnvelope.from_wire(wire), SoapEnvelope.from_wire(wire)
    except Exception:  # noqa: BLE001 - the decode suites hold the error
        return False, None
    grown.headers  # the element path from here on
    assert grown._head is None
    on_plan = planned._head is not None
    got = readers(planned)
    assert got == readers(grown)
    return on_plan, got


@settings(max_examples=200, deadline=None)
@given(addressed(), st.booleans())
def test_the_plan_reads_a_written_head_as_its_elements(case, ack):
    maps, target, _ = case
    envelope = build_rpc_request(NS, "echo", {"message": "m"})
    maps.apply_to(envelope, target=target)
    if ack:
        mark_ack_requested(envelope)
    on_plan, got = assert_plan_parity(envelope.to_wire())
    assert on_plan and got[2] == ack


@settings(max_examples=100, deadline=None)
@given(
    addressed(), st.booleans(),
    st.lists(st.tuples(st.sampled_from(["PipeId", "PipeName", "PipeType", "k"]), st.sampled_from(TEXTS)),
             max_size=4),
)
def test_the_plan_reads_a_foreign_reply_to_as_its_elements(case, wrapper_decls, leaves):
    assert assert_plan_parity(_decode_wire(case, wrapper_decls, leaves))[0]


def test_the_plan_reads_every_stack_and_hand_built_head_as_its_elements(stack_wires):
    on_plan = [assert_plan_parity(wire)[0] for wire in stack_wires + HAND_BUILT]
    assert sum(on_plan) >= 20  # requests, replies and acks with headers


@pytest.mark.parametrize("mutate", MUTANTS.values(), ids=MUTANTS.keys())
def test_the_plan_reads_a_mutant_head_as_its_elements(mutate):
    _, _, _, base = _p2ps_world()
    clear_all_caches()
    assert assert_plan_parity(base)[0]
    assert_plan_parity(mutate(base))


def test_the_plan_reads_the_element_path_cases_as_their_elements():
    leafy = Element(QName(ns.P2PS, "PipeId", "p2ps"), text="pipe-1", nsdecls={"p2ps": ns.P2PS})
    nested = leafy.copy()
    nested.append(Element("inner"))
    source = EndpointReference("p2ps://peer-s")
    for fields in (
        dict(reply_to=EndpointReference("p2ps://c", [nested])),
        dict(source=source), dict(fault_to=source), dict(source=source, reply_to=source),
    ):
        maps = MessageAddressingProperties("p2ps://p/S", "p2ps://p/S#op", message_id="m", **fields)
        envelope = build_rpc_request(NS, "echo", {"message": "hi"})
        maps.apply_to(envelope)
        on_plan, got = assert_plan_parity(envelope.to_wire())
        assert on_plan and got[0] == "m" and got[-1][0] == "ok", fields
    for attribute in ('soapenv:mustUnderstand="1"', 'f:mustUnderstand="1"'):
        assert assert_plan_parity(_must_understand_wire(attribute))[0]


_NO_ADDRESS = "element {%s}ReplyTo has no wsa:Address" % ns.WSA
WSA_ERRORS = {
    "empty-to": (lambda w: _sub(w, r"(<wsa:To[^>]*>)[^<]*", r"\1"), "message carries no wsa:To header"),
    "self-closed-to": (lambda w: _sub(w, r"<wsa:To([^>]*)>[^<]*</wsa:To>", r"<wsa:To\1/>"),
                       "message carries no wsa:To header"),
    "no-to": (lambda w: _sub(w, r"<wsa:To.*?</wsa:To>", ""), "message carries no wsa:To header"),
    "empty-action": (lambda w: _sub(w, r"(<wsa:Action[^>]*>)[^<]*", r"\1"),
                     "message carries no wsa:Action header"),
    "no-action": (lambda w: _sub(w, r"<wsa:Action.*?</wsa:Action>", ""), "message carries no wsa:Action header"),
    "emptied-address": (MUTANTS["emptied-address"], _NO_ADDRESS),
    "no-address": (lambda w: _sub(w, r"<wsa:Address>[^<]*</wsa:Address>", ""), _NO_ADDRESS),
}


@pytest.mark.parametrize("mutate, message", WSA_ERRORS.values(), ids=WSA_ERRORS.keys())
def test_a_head_the_maps_refuse_raises_the_same_wsa_error_both_ways(mutate, message):
    _, _, _, base = _p2ps_world()
    on_plan, got = assert_plan_parity(mutate(base))
    assert on_plan and got[-1] == ("error", WsaError, message)


STATIC_TEXTS = {
    "mixed-to": lambda w: _sub(w, r"(<wsa:To[^>]*>)[^<]*", r"\1a<x:y xmlns:x='urn:x'/>b"),
    "cdata-to": lambda w: _sub(w, r"(<wsa:To[^>]*>)[^<]*", r"\1<![CDATA[p2ps://x]]>"),
    "comment-in-to": lambda w: _sub(w, r"(<wsa:To[^>]*>)[^<]*", r"\1p2ps://<!-- c -->x"),
    "mixed-action": lambda w: _sub(w, r"(<wsa:Action[^>]*>)[^<]*", r"\1a<x:y xmlns:x='urn:x'>in</x:y>b"),
    "self-closed-message-id": lambda w: _sub(
        w, r"<wsa:MessageID([^>]*)>[^<]*</wsa:MessageID>", r"<wsa:MessageID\1/>"),
}


@pytest.mark.parametrize("mutate", STATIC_TEXTS.values(), ids=STATIC_TEXTS.keys())
def test_the_plan_reads_a_planned_block_that_is_no_leaf_as_its_elements(mutate):
    """Its text is static, held in the plan as text, not as a slot."""
    on_plan, got = assert_plan_parity(mutate(_request()[1].to_wire()))
    assert on_plan and got[-1][0] == "ok"
