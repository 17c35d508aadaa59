"""The laws of the shape grammar (``repro.soap.shapes``).

For a shape and its texts — a leaf, a group, a struct of leaves and a
group inside a struct, in a header block and in the body:

1. the template splice is the serialiser's output, byte for byte;
2. the decode side's cut of that wire matches it and yields exactly the
   texts;
3. growing the cut shape gives what ``from_element(parse(wire))`` gives;
4. the readers compiled from the shape give the values back;
5. expat (the standard library's parser) accepts the wire — a vote
   from outside this codebase that what we emit is XML;
6. a decoded envelope writes back what the element path writes.

Start-tag slots (an attribute value, a declared namespace) obey laws 1,
2 (or the cut refuses where the parser would decode), 3 and 5 at the
document root, in a header block and on the RPC body.

Also: the sentinel cut a template is made by, and the refusal of text
XML 1.0 cannot carry, which both encode paths share.
"""

import math
import xml.parsers.expat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WSPeer
from repro.core.binding import StandardBinding
from repro.core.hosting import LightweightContainer
from repro.soap import EncodingError, SoapEnvelope
from repro.soap.encoding import encode_value, rpc_tree, value_shape, value_tree
from repro.soap.envelope import envelope_shape
from repro.soap.rpc import build_rpc_request
from repro.soap.shapes import SLOT, Wire, cut, grow, readers, split_at_sentinels, template
from repro.simnet import FixedLatency, Network
from repro.uddi import UddiRegistryNode
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageAddressingProperties, request_templates
from repro.xmlkit import Element, QName, parse, serialize

NS = "urn:wspeer:Laws"
HEADER = ("urn:laws:h", "Block", "h")


def xml_char(c: str) -> bool:
    code = ord(c)
    return (
        code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF
        or 0xE000 <= code <= 0xFFFD or code >= 0x10000
    )


texts = st.text(
    alphabet=st.one_of(st.sampled_from("&<>\"'\r\n\t ]]>%"), st.characters().filter(xml_char)),
    min_size=1, max_size=12,
)
scalars = st.one_of(
    st.integers(-(2**31), 2**31 - 1),
    st.floats(allow_nan=False),
    st.booleans(),
    texts,
    st.none(),
    st.just(""),
)
#: a group: one scalar type, two items at least (one would be a leaf)
groups = st.one_of(
    st.lists(st.integers(-(2**31), 2**31 - 1), min_size=2, max_size=6),
    st.lists(st.floats(allow_nan=False), min_size=2, max_size=6),
    st.lists(texts, min_size=2, max_size=6),
)
names = st.sampled_from(["a", "b", "value", "x_1", "n-2", "k.3"])
structs = st.dictionaries(names, scalars, min_size=1, max_size=4)
structs_with_groups = st.dictionaries(names, st.one_of(scalars, groups), min_size=1, max_size=4)
values = st.one_of(scalars, groups, structs, structs_with_groups)


def view(elem: Element) -> tuple:
    """Everything of an element the wire shows, prefixes included."""
    return (
        (elem.name.uri, elem.name.local, elem.name.prefix),
        sorted(((a.uri, a.local, a.prefix), v) for a, v in elem.attributes.items()),
        sorted(elem.nsdecls.items()),
        [item if isinstance(item, str) else view(item) for item in elem.content],
    )


def same(got, want) -> bool:
    if isinstance(want, float):
        return got == want or (math.isnan(got) and math.isnan(want))
    if isinstance(want, dict):
        return list(got) == list(want) and all(same(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(same, got, want))
    return got == want and type(got) is type(want)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(names, values, max_size=3), st.one_of(st.none(), values))
def test_the_laws_hold_for_every_kind_in_both_positions(params, in_header):
    body_texts: list = []
    shape = value_shape(params, body_texts, [])
    body = rpc_tree(NS, "op", shape[1])
    head_texts: list = []
    blocks = ()
    if in_header is not None:
        blocks = (value_tree(HEADER, value_shape(in_header, head_texts, [])),)
    tree = envelope_shape(blocks, (body,))
    slot_texts = head_texts + body_texts

    # 1. the splice is the serialiser's, and the element path's
    wire = template(tree).render(slot_texts)
    assert wire == serialize(grow(tree, slot_texts), xml_declaration=True)
    wrapper = Element(QName(NS, "op", "tns"), nsdecls={"tns": NS})
    for name, value in params.items():
        wrapper.append(encode_value(QName("", name), value))
    headers = [encode_value(QName(*HEADER), in_header)] if blocks else []
    assert wire == serialize(SoapEnvelope(wrapper, headers).to_element(), xml_declaration=True)

    # 2. the decode side cuts it into the same slots
    parsed = SoapEnvelope.from_element(parse(wire))
    elements = parsed.headers + [parsed.body_content]
    nodes, skeleton = cut(wire, elements)
    assert skeleton.match(wire) == slot_texts

    # 3. and grows what the parser builds
    rest = iter(slot_texts)
    assert [view(grow(node, rest)) for node in nodes] == [view(e) for e in elements]

    # 4. the readers give the values back, off the encode and decode shapes
    for node in (body, nodes[-1]):
        read = readers(node)
        got = [(name, reader(body_texts)) for name, reader in read]
        assert [name for name, _ in got] == list(params)
        assert all(same(value, params[name]) for name, value in got)

    # 5. a conforming parser accepts it
    xml.parsers.expat.ParserCreate(namespace_separator=" ").Parse(wire, True)

    # 6. a decoded envelope writes what the element path writes, also
    # once its skeleton is live and it renders from the decoded shapes
    for _ in range(3):
        decoded = SoapEnvelope.from_wire(wire)
        assert decoded.to_wire() == serialize(parsed.to_element(), xml_declaration=True)


def test_a_leaf_a_group_and_a_struct_are_one_grammar():
    slot_texts: list = []
    shape = value_shape({"n": 1, "xs": [0.5, 1.5], "s": {"k": "v"}}, slot_texts, [])
    body = rpc_tree(NS, "op", shape[1])
    n, xs, s = body[3]
    assert n[3] is SLOT and xs[3][0].item[3] is SLOT and s[3][0][3] is SLOT
    assert slot_texts == ["1", ["0.5", "1.5"], "v"]
    assert hash(body) == hash(rpc_tree(NS, "op", shape[1]))  # a cache key


# ----------------------------------------------------------------------
# slots in a start tag: attribute values and declared namespaces
# ----------------------------------------------------------------------
#: what the parser would decode or normalise in an attribute value
NOT_VERBATIM = set('&<"\t\n\r')
values_in_tags = st.lists(
    st.one_of(
        st.sampled_from(["\"", "'", "&", "<", ">", "\t", "\n", "\r", "]]>", "é", "\u4e2d", "\U0001F600"]),
        st.characters().filter(xml_char),
    ),
    min_size=1, max_size=8,
).map("".join)


def tagged(local: str, prefix: str, content) -> tuple:
    """A node declaring its own prefix (a slot), named by it, with one
    attribute slot: ``<p:local xmlns:p=SLOT note=SLOT>``."""
    return ((SLOT, local, prefix), ((("", "note", ""), SLOT),), ((prefix, SLOT),), content)


def start_tag_laws(tree: tuple, slot_texts: list, tag_texts: list) -> str:
    """Laws 1, 2 (the template's own match) and 5 for a document *tree*;
    *tag_texts* are the texts of its start-tag slots.  Returns the wire."""
    wire = template(tree).render(slot_texts)
    assert wire == serialize(grow(tree, slot_texts), xml_declaration=True)
    verbatim = not any(NOT_VERBATIM & set(text) for text in tag_texts)
    assert template(tree).match(wire) == (slot_texts if verbatim else None)
    # a separator no XML text holds: expat refuses a namespace holding its separator
    xml.parsers.expat.ParserCreate(namespace_separator="\x01").Parse(wire, True)
    return wire


@settings(max_examples=300, deadline=None)
@given(values_in_tags, values_in_tags, values_in_tags, texts, st.dictionaries(names, scalars, max_size=2))
def test_start_tag_slots_obey_the_laws_in_every_position(uri, note, head_uri, text, params):
    # the document root: the shape of a WSDL definition
    leaf = (("", "leaf", ""), ((("", "name", ""), SLOT),), (), SLOT)
    root = tagged("root", "r", (((SLOT, "kid", "r"), (), (), (leaf,)),))
    root_texts = [uri, note, text, text]
    wire = start_tag_laws(root, root_texts, [uri, note, text])
    assert view(grow(root, root_texts)) == view(parse(wire))  # 3. the parser's tree

    # a header block and the RPC body of an envelope
    body_texts = [uri]
    body = rpc_tree(SLOT, "op", value_shape(params, body_texts, [])[1])
    tree = envelope_shape((tagged("Block", "h", SLOT),), (body,))
    slot_texts = [head_uri, note, text] + body_texts
    wire = start_tag_laws(tree, slot_texts, [head_uri, note, uri])

    # the decode side cuts the body's own declaration when it is verbatim
    parsed = SoapEnvelope.from_element(parse(wire))
    elements = parsed.headers + [parsed.body_content]
    nodes, skeleton = cut(wire, elements, own_uri=parsed.body_content)
    cut_texts = skeleton.match(wire)
    verbatim = not NOT_VERBATIM & set(uri)
    assert cut_texts == [text] + ([uri] if verbatim else []) + body_texts[1:]
    assert (nodes[-1][0][0] is SLOT) == verbatim
    rest = iter(cut_texts)
    assert [view(grow(node, rest)) for node in nodes] == [view(e) for e in elements]


def test_a_start_tag_slot_ends_at_its_quote_and_refuses_what_the_parser_decodes():
    tree = tagged("root", "r", SLOT)
    wire = template(tree)
    good = wire.render(["urn:a", "x", "t"])
    assert wire.match(good) == ["urn:a", "x", "t"]
    for bad in ("urn:a&amp;b", "urn:&#10;", "urn:\tx", "urn:\nx", "urn:\rx", "urn:<x"):
        assert wire.match(good.replace("urn:a", bad)) is None, bad
    assert wire.match(good.replace('"urn:a"', "'urn:a'")) is None  # single quotes: the parser
    assert wire.match(good.replace('"urn:a"', '"urn:a" extra="1"')) is None


# ----------------------------------------------------------------------
# the sentinel cut
# ----------------------------------------------------------------------
def test_template_split_and_render():
    segments = split_at_sentinels("<a>\x000\x00</a><b>\x001\x00</b>", 2)
    assert Wire(segments, [None, None]).render(["1", "2"]) == "<a>1</a><b>2</b>"


def test_template_rejects_duplicated_sentinel():
    assert split_at_sentinels("\x000\x00 \x000\x00", 1) is None


def test_template_rejects_missing_sentinel():
    assert split_at_sentinels("static only", 1) is None


def test_static_text_that_collides_with_a_sentinel_has_no_template():
    leaf = (("", "x", ""), (), (), SLOT)
    node = (("", "r", ""), (), (), ("\x000\x00", leaf))
    assert template(node) is None
    assert template((("", "r", ""), (), (), ("static", leaf))).render(["t"]).endswith(
        "<r>static<x>t</x></r>"
    )


def test_an_empty_text_is_refused_by_the_splice():
    wire = template((("", "r", ""), (), (), SLOT))
    assert wire.render([""]) is None  # the serialiser self-closes it
    assert wire.render(["&"]).endswith("<r>&amp;</r>")


# ----------------------------------------------------------------------
# text XML 1.0 cannot carry
# ----------------------------------------------------------------------
NOT_XML = ["a\x01b", "a\ufffeb", "\x00", "tab\x0b", "\ud800", "\uffff"]


@pytest.mark.parametrize(
    "text", NOT_XML, ids=[f"U+{ord(next(c for c in t if not xml_char(c))):04X}" for t in NOT_XML]
)
def test_a_string_xml_cannot_carry_raises_when_the_envelope_is_made(text):
    with pytest.raises(EncodingError, match="not an XML 1.0 character"):
        build_rpc_request(NS, "echo", {"message": text})
    with pytest.raises(EncodingError):
        build_rpc_request(NS, "echo", {"message": [text, "ok"]})  # a group
    with pytest.raises(EncodingError):
        encode_value("message", {"k": text})  # the element path agrees
    target = EndpointReference("http://node-1:8080/services/Bench")
    maps = MessageAddressingProperties.for_request(target, "echo")
    # the template steps aside, so the generic path (above) raises it
    assert request_templates.render(maps, NS, "echo", {"message": text}, target) is None


class Plain:
    def echo(self, message: str) -> str:
        return message


def test_an_invocation_of_such_a_string_raises_and_sends_nothing():
    """The request template steps aside for such a string; the generic
    build the invocation falls back to refuses it before a frame goes."""
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint), name="prov")
    provider.deploy(Plain(), name="Plain", namespace=NS)
    provider.publish("Plain")
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint), name="cons")
    handle = consumer.locate_one("Plain")
    for _ in range(2):  # the request template is warm
        assert consumer.invoke(handle, "echo", message="ok") == "ok"
    frames = net.sent.total()
    for text in ("a\x1fb", *NOT_XML):
        with pytest.raises(EncodingError, match="not an XML 1.0 character"):
            consumer.invoke(handle, "echo", message=text)
    assert net.sent.total() == frames
    assert consumer.invoke(handle, "echo", message="ok") == "ok"


def test_every_xml_character_still_encodes():
    text = "tab\tnl\ncr\r \ud7ff\ufffd\U0001F600 <&>"
    wire = build_rpc_request(NS, "echo", {"message": text}).to_wire()
    xml.parsers.expat.ParserCreate().Parse(wire, True)
    assert SoapEnvelope.from_wire(wire).body_content.find("message").text == text


class Echo:
    def echo(self, message: str) -> str:
        return message + "\x01"


def test_a_handler_returning_such_a_string_gets_a_server_fault():
    container = LightweightContainer()
    container.deploy(Echo(), name="Echo", namespace=NS)
    wire = build_rpc_request(NS, "echo", {"message": "hi"}).to_wire()
    context = container.serve("Echo", wire)
    assert context.fault
    xml.parsers.expat.ParserCreate().Parse(context.wire, True)
    assert "soapenv:Server" in context.wire and "EncodingError" in context.wire
