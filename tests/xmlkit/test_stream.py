"""Streaming codec (E16): parity with the batch codec and the frozen
reference codec, plus incremental-feed behaviour."""

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlkit import (
    Element,
    FeedParser,
    QName,
    XmlParseError,
    XmlWellFormednessError,
    iter_serialize,
    parse,
    parse_stream,
    serialize,
)
from repro.xmlkit.serializer import _TEXT_WINDOW
from tests._oracle.reference_codec import parse_reference, serialize_reference
from tests.xmlkit.test_codec_parity import joined

_local_names = st.text(alphabet=string.ascii_letters, min_size=1, max_size=8).map(
    lambda s: "n" + s
)
_uris = st.sampled_from(["", "urn:a", "urn:b", "http://x.test/ns"])
_text = st.text(
    alphabet=string.ascii_letters + string.digits + " <>&\"'\n\ré世",
    min_size=0,
    max_size=40,
)
_attr_values = st.text(
    alphabet=string.ascii_letters + string.digits + " <&\"'\t\n\r",
    max_size=30,
)


@st.composite
def elements(draw, depth: int = 3) -> Element:
    name = QName(draw(_uris), draw(_local_names))
    elem = Element(name)
    for _ in range(draw(st.integers(0, 3))):
        key = QName(draw(st.sampled_from(["", "urn:attr"])), draw(_local_names))
        elem.attributes.setdefault(key, draw(_attr_values))
    txt = draw(_text)
    if txt:
        elem.append_text(txt)
    if depth > 0:
        for _ in range(draw(st.integers(0, 3))):
            elem.append(draw(elements(depth=depth - 1)))
    return elem


# ----------------------------------------------------------------------
# serialisation parity
# ----------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(elements(), st.integers(1, 64))
def test_iter_serialize_matches_batch_bytes(tree: Element, chunk_size: int):
    batch = serialize(tree).encode("utf-8")
    streamed = b"".join(iter_serialize(tree, chunk_size=chunk_size))
    assert streamed == batch


@settings(max_examples=60, deadline=None)
@given(elements())
def test_iter_serialize_matches_reference_codec(tree: Element):
    # the frozen reference codec is the parity oracle for the whole
    # serializer family: batch, reference, and stream must all emit
    # identical bytes
    streamed = b"".join(iter_serialize(tree))
    assert streamed == serialize_reference(tree).encode("utf-8")


@settings(max_examples=40, deadline=None)
@given(elements(), st.booleans())
def test_iter_serialize_pretty_and_declaration_match_batch(tree, decl: bool):
    batch = serialize(tree, pretty=True, xml_declaration=decl).encode("utf-8")
    streamed = b"".join(
        iter_serialize(tree, chunk_size=11, pretty=True, xml_declaration=decl)
    )
    assert streamed == batch


def test_iter_serialize_chunk_sizes_bound_memory_granularity():
    elem = Element("big")
    elem.append_text("x" * 300_000)
    chunks = list(iter_serialize(elem, chunk_size=64 * 1024))
    assert len(chunks) > 1
    # every chunk except the last is at least chunk_size and no chunk
    # vastly exceeds it (bounded by one flushed part ~ the text window)
    for chunk in chunks[:-1]:
        assert len(chunk) >= 64 * 1024
    assert max(len(c) for c in chunks) <= 64 * 1024 + _TEXT_WINDOW


# ----------------------------------------------------------------------
# feed-parse parity
# ----------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(elements(), st.integers(0, 10_000))
def test_feed_parser_matches_batch_parse(tree: Element, seed: int):
    wire = serialize(tree).encode("utf-8")
    rng = random.Random(seed)
    parser = FeedParser()
    i = 0
    while i < len(wire):
        step = rng.randint(1, 13)
        parser.feed(memoryview(wire)[i : i + step])
        i += step
    tree = parser.close()
    assert tree == parse(wire.decode("utf-8"))
    # and against the oracle directly, not only through the batch parser
    reference = parse_reference(wire.decode("utf-8"))
    assert tree == reference
    assert [e.content for e in tree.iter()] == [tuple(joined(e.content)) for e in reference.iter()]


@settings(max_examples=60, deadline=None)
@given(elements())
def test_stream_roundtrip_structural_equality(tree: Element):
    # the full E16 pipeline: iter_serialize → FeedParser, no batch step
    assert parse_stream(iter_serialize(tree, chunk_size=17)) == tree


def test_feed_parser_handles_multibyte_split_across_chunks():
    wire = serialize(Element("a", text="café 世界")).encode("utf-8")
    parser = FeedParser()
    for i in range(len(wire)):  # one byte at a time splits every char
        parser.feed(wire[i : i + 1])
    assert parser.close().text == "café 世界"


def test_feed_parser_merges_split_text_runs():
    parser = FeedParser()
    for piece in ["<a>hel", "lo wo", "rld</a>"]:
        parser.feed(piece)
    tree = parser.close()
    # the split run must land as ONE content node, like the batch parser
    assert tree.content == ("hello world",)


def test_feed_parser_entity_split_across_feeds():
    parser = FeedParser()
    for piece in ["<a>x&a", "mp;y</a>"]:
        parser.feed(piece)
    assert parser.close().text == "x&y"


def test_feed_parser_gt_inside_quoted_attribute_value():
    doc = '<a k="1>2"><b/></a>'
    for split in range(1, len(doc)):
        parser = FeedParser()
        parser.feed(doc[:split])
        parser.feed(doc[split:])
        assert parser.close().get("k") == "1>2"


def test_feed_parser_constructs_split_at_every_boundary():
    doc = (
        '<?xml version="1.0"?><!-- note --><r a="v">'
        "<![CDATA[raw < & bits]]>text &amp; tail<e/></r>"
    )
    expected = parse(doc)
    for split in range(1, len(doc)):
        parser = FeedParser()
        parser.feed(doc[:split])
        parser.feed(doc[split:])
        assert parser.close() == expected


def test_feed_parser_error_parity():
    """A fed document is refused as the batch parser refuses it: same
    type, same wording, same position, wherever the feeds split it."""
    documents = ["<a><b>", "", "<a/><b/>", "<a></b>", "<!-- never closed"]
    for reference in (
        "&#xD800;", "&#99999999999999999999;",
        # what int() would take but a character reference may not be
        "&#1_0;", "&#+65;", "&# 65;", "&#x 41;", "&#x0_041;", "&#X41;", "&#0;",
    ):
        document = f"<a>x{reference}y</a>"
        with pytest.raises(XmlParseError):
            parse_reference(document)
        documents.append(document)
    for document in documents:
        with pytest.raises(XmlWellFormednessError) as batch:
            parse(document)
        for split in range(len(document) + 1):  # also split inside a reference
            with pytest.raises(XmlWellFormednessError) as fed:
                p = FeedParser()
                p.feed(document[:split])
                p.feed(document[split:])
                p.close()
            assert str(fed.value) == str(batch.value)


def test_feed_after_close_rejected():
    parser = FeedParser()
    parser.feed("<a/>")
    parser.close()
    with pytest.raises(XmlParseError):
        parser.feed("<b/>")
