"""Parity: the production codec must match the frozen reference
byte-for-byte and error-for-error.

The production tokenizer/parser/serializer (lazy positions, flattened
namespace scopes, QName interning) are pure optimisations — every
observable output must equal the original implementation kept, stand-
alone, in :mod:`tests._oracle.reference_codec`.  These tests generate
adversarial trees (namespace shadowing, prefix hints, default
namespaces, escaping edge cases), add the envelopes the stack really
emits, and diff the two implementations directly.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soap.rpc import build_rpc_request
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageAddressingProperties
from repro.xmlkit import Element, QName, ns, parse, serialize
from repro.xmlkit.errors import XmlError, XmlParseError
from repro.xmlkit.serializer import escape_attr, escape_text
from repro.xmlkit.tokenizer import Tokenizer
from tests._oracle.reference_codec import (
    ReferenceTokenizer,
    escape_attr_reference,
    escape_text_reference,
    parse_reference,
    serialize_reference,
)

_local_names = st.text(alphabet=string.ascii_letters, min_size=1, max_size=8).map(
    lambda s: "n" + s
)
_uris = st.sampled_from(["", "urn:a", "urn:b", "urn:c", "http://x.test/ns"])
_prefixes = st.sampled_from(["", "p", "q", "wsa", "ns1"])
_text = st.text(
    alphabet=string.ascii_letters + string.digits + " <>&\"'\n",
    max_size=40,
)
_attr_values = st.text(
    alphabet=string.ascii_letters + string.digits + " <&\"'\t\n",
    max_size=30,
)


@st.composite
def elements(draw, depth: int = 3) -> Element:
    """Random trees that exercise prefix hints, nsdecls and shadowing."""
    name = QName(draw(_uris), draw(_local_names), draw(_prefixes))
    nsdecls = {}
    for _ in range(draw(st.integers(0, 2))):
        nsdecls[draw(_prefixes)] = draw(_uris)
    elem = Element(name, nsdecls=nsdecls or None)
    for _ in range(draw(st.integers(0, 3))):
        key = QName(
            draw(st.sampled_from(["", "urn:attr", "urn:a"])),
            draw(_local_names),
            draw(_prefixes),
        )
        elem.attributes.setdefault(key, draw(_attr_values))
    txt = draw(_text)
    if txt:
        elem.append_text(txt)
    if depth > 0:
        for _ in range(draw(st.integers(0, 3))):
            elem.append(draw(elements(depth=depth - 1)))
    return elem


# ----------------------------------------------------------------------
# serializer parity
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(elements())
def test_serializer_matches_reference(tree: Element):
    assert serialize(tree) == serialize_reference(tree)


@settings(max_examples=75, deadline=None)
@given(elements())
def test_pretty_serializer_matches_reference(tree: Element):
    assert serialize(tree, pretty=True) == serialize_reference(tree, pretty=True)


@settings(max_examples=50, deadline=None)
@given(elements())
def test_declaration_serializer_matches_reference(tree: Element):
    assert serialize(tree, xml_declaration=True) == serialize_reference(
        tree, xml_declaration=True
    )


@settings(max_examples=150, deadline=None)
@given(_text)
def test_escape_text_matches_reference(value: str):
    assert escape_text(value) == escape_text_reference(value)


@settings(max_examples=150, deadline=None)
@given(_attr_values)
def test_escape_attr_matches_reference(value: str):
    assert escape_attr(value) == escape_attr_reference(value)


def test_escape_fast_path_returns_same_object():
    clean = "nothing to escape here"
    assert escape_text(clean) is clean
    assert escape_attr(clean) is clean


# ----------------------------------------------------------------------
# tokenizer / parser parity
# ----------------------------------------------------------------------
def _assert_same_tokens(document: str) -> None:
    fast = list(Tokenizer(document).tokens())
    reference = list(ReferenceTokenizer(document).tokens())
    assert len(fast) == len(reference)
    for f, r in zip(fast, reference):
        assert f.type is r.type
        assert f.value == r.value
        assert list(f.attrs) == list(r.attrs)
        assert f.self_closing == r.self_closing
        assert (f.line, f.column) == (r.line, r.column)


@settings(max_examples=150, deadline=None)
@given(elements())
def test_tokenizer_matches_reference_on_generated_documents(tree: Element):
    _assert_same_tokens(serialize(tree, xml_declaration=True))
    _assert_same_tokens(serialize(tree, pretty=True))


@pytest.mark.parametrize(
    "document",
    [
        "<a><!-- a comment --><b/><![CDATA[raw <&> text]]></a>",
        "<?xml version='1.0'?>\n<a xmlns='urn:x'>&lt;&amp;&gt;&#65;&#x42;</a>",
        '<a b="1" c="&quot;two&quot;"/>',
        "<?target some data?><root/>",
        "<a>\r\nmixed\t<b>deep</b> tail</a>",
    ],
)
def test_tokenizer_matches_reference_on_handwritten_documents(document: str):
    _assert_same_tokens(document)


@settings(max_examples=150, deadline=None)
@given(elements())
def test_parse_matches_reference(tree: Element):
    _assert_same_tree(serialize(tree, xml_declaration=True))


def _exact(elem: Element) -> tuple:
    """Everything about a tree: prefix hints, declaration and attribute
    order, every text chunk (``Element.__eq__`` forgives all three)."""
    def name(q):
        return (q.uri, q.local, q.prefix)

    return (
        name(elem.name),
        tuple(elem.nsdecls.items()),
        tuple((name(k), v) for k, v in elem.attributes.items()),
        tuple(c if isinstance(c, str) else _exact(c) for c in elem.content),
    )


def _assert_same_tree(wire: str) -> None:
    fast, reference = parse(wire), parse_reference(wire)
    assert fast == reference
    assert _exact(fast) == _exact(reference)


# ----------------------------------------------------------------------
# the envelopes the stack really emits (was: the E8 bench corpus)
# ----------------------------------------------------------------------
def _request_wire(n_args: int, payload: int, reply: bool) -> str:
    args = {f"arg{i}": f"value-{i:03d}-" + "x" * payload for i in range(n_args)}
    envelope = build_rpc_request("urn:repro:echo", "echo", args)
    target = EndpointReference("http://prov0:80/Echo0")
    reply_to = None
    if reply:  # a P2PS-style reply EPR: namespaced reference properties
        reply_to = EndpointReference("p2ps://pcons0/reply-echo")
        for pname, text in (("PipeId", "pipe-00000042"), ("PipeName", "reply-echo")):
            reply_to.reference_properties.append(
                Element(QName(ns.P2PS, pname, "p2ps"), text=text, nsdecls={"p2ps": ns.P2PS})
            )
    MessageAddressingProperties.for_request(target, "echo", reply_to=reply_to).apply_to(
        envelope, target=target
    )
    return envelope.to_wire()


@pytest.mark.parametrize(
    "wire",
    [
        pytest.param(_request_wire(1, 16, reply=False), id="small-echo"),
        pytest.param(_request_wire(4, 24, reply=True), id="p2ps-headers"),
        pytest.param(_request_wire(64, 48, reply=False), id="wide-body-64"),
    ],
)
def test_real_envelopes_match_reference(wire: str):
    _assert_same_tokens(wire)
    _assert_same_tree(wire)
    tree = parse(wire)
    assert serialize(tree, xml_declaration=True) == serialize_reference(
        tree, xml_declaration=True
    ) == wire


# ----------------------------------------------------------------------
# error-position parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "document",
    [
        "<a>\n  <b>\n</a>",  # mismatched closing tag on line 3
        "<a>&nope;</a>",  # unknown entity
        "<a>&#xZZ;</a>",  # bad character reference
        "<a>\n<b>&#xD800;</b></a>",  # a surrogate is not a character
        "<a b='&#57343;'/>",  # nor in an attribute value (U+DFFF)
        "<a>&#x110000;</a>",  # one past the last code point
        "<a>&#99999999999999999999;</a>",  # chr() overflows a C int here
        pytest.param("<a>&#" + "9" * 5000 + ";</a>", id="past-int()-digit-limit"),
        "<a><b attr=unquoted></b></a>",  # unquoted attribute
        '<a>\n<b c="1" c="2"/></a>',  # duplicate attribute, line 2
        "<a><!-- -- --></a>",  # double dash in comment
        "<!DOCTYPE html><a/>",  # DTD rejected
        "<a><b></a>",  # wrong nesting
        "<a", # unterminated start tag
        '<a b="no < allowed"/>',  # '<' inside attribute value
        "<a>\n\n   <b>&unterminated</b></a>",  # entity without ';'
        # what int() would take but a character reference may not be
        "<a>&#1_0;</a>",
        "<a>&#+65;</a>",
        "<a>&# 65;</a>",
        "<a>&#x 41;</a>",
        "<a b='&#x0_041;'/>",
        "<a>&#X41;</a>",  # only a lower-case x
        "<a>\n&#0;</a>",  # NUL is no character
        "<a>&#\u0661\u0662;</a>",  # nor are other scripts' digits digits here
        "<a>&#;</a>",
        "<a>&#x;</a>",
    ],
)
def test_errors_match_reference(document: str):
    try:
        parse(document)
        fast_error = None
    except XmlError as exc:
        fast_error = (type(exc), str(exc), exc.line, exc.column)
    try:
        parse_reference(document)
        ref_error = None
    except XmlError as exc:
        ref_error = (type(exc), str(exc), exc.line, exc.column)
    assert fast_error == ref_error
    assert fast_error is not None


def test_lazy_token_positions_are_one_based():
    tokens = list(Tokenizer("<a>\n  <b/>\n</a>").tokens())
    starts = [(t.line, t.column) for t in tokens]
    assert starts[0] == (1, 1)
    assert (2, 3) in starts  # <b/> after two spaces
    assert starts[-1] == (3, 1)


def test_unterminated_text_error_position():
    with pytest.raises(XmlParseError) as info:
        list(Tokenizer("<a>text &broken").tokens())
    # anchored at the start of the text run, as the reference does
    assert (info.value.line, info.value.column) == (1, 4)
