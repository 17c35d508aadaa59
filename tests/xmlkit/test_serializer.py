"""Tests for the serialiser, including the parse∘serialize round-trip."""

import gc
import random
import tracemalloc

import pytest

from repro.xmlkit import Element, QName, XmlSerializeError, XmlWellFormednessError, parse, serialize
from repro.xmlkit.names import XML_URI, XMLNS_URI
from repro.xmlkit.serializer import escape_attr, escape_text


class TestEscaping:
    def test_text_escaping(self):
        assert escape_text("<a & b>") == "&lt;a &amp; b&gt;"

    def test_attr_escaping(self):
        assert escape_attr('"') == "&quot;"
        assert escape_attr("<") == "&lt;"
        assert escape_attr("&") == "&amp;"
        assert escape_attr("\n") == "&#10;"


class TestSerialize:
    def test_empty_element_self_closes(self):
        assert serialize(Element("a")) == "<a/>"

    def test_text_content(self):
        assert serialize(Element("a", text="hi")) == "<a>hi</a>"

    def test_attributes(self):
        e = Element("a", attributes={"k": "v"})
        assert serialize(e) == '<a k="v"/>'

    def test_explicit_nsdecls_used(self):
        e = Element(QName("urn:x", "a", "p"), nsdecls={"p": "urn:x"})
        assert serialize(e) == '<p:a xmlns:p="urn:x"/>'

    def test_default_namespace(self):
        e = Element(QName("urn:x", "a"), nsdecls={"": "urn:x"})
        assert serialize(e) == '<a xmlns="urn:x"/>'

    def test_auto_prefix_generation(self):
        e = Element(QName("urn:x", "a"))
        out = serialize(e)
        assert 'xmlns:ns1="urn:x"' in out and out.startswith("<ns1:a")

    def test_prefix_hint_honoured(self):
        e = Element(QName("urn:x", "a", "soap"))
        assert serialize(e) == '<soap:a xmlns:soap="urn:x"/>'

    def test_child_reuses_parent_declaration(self):
        root = Element(QName("urn:x", "a", "p"), nsdecls={"p": "urn:x"})
        root.add(QName("urn:x", "b"))
        out = serialize(root)
        assert out.count("xmlns") == 1

    def test_attr_never_uses_default_ns(self):
        e = Element(QName("urn:x", "a"), nsdecls={"": "urn:x"})
        e.set(QName("urn:x", "k"), "v")
        out = serialize(e)
        # attribute must get an explicit prefix even though default ns matches
        assert ':k="v"' in out

    def test_no_ns_child_under_default_ns(self):
        root = Element(QName("urn:x", "a"), nsdecls={"": "urn:x"})
        root.add(QName("", "plain"))
        out = serialize(root)
        assert '<plain xmlns=""' in out

    def test_mixed_content_order_preserved(self):
        e = Element("a")
        e.append_text("pre")
        e.add("b")
        e.append_text("post")
        assert serialize(e) == "<a>pre<b/>post</a>"

    def test_xml_declaration(self):
        out = serialize(Element("a"), xml_declaration=True)
        assert out.startswith("<?xml version=")

    def test_pretty_output_indents(self):
        root = Element("a")
        root.add("b").add("c")
        out = serialize(root, pretty=True)
        assert "\n  <b>" in out
        assert "\n    <c/>" in out


class TestRoundTrip:
    CASES = [
        "<a/>",
        "<a>text</a>",
        '<a k="v1" j="v2"/>',
        '<a xmlns="urn:d"><b/><c xmlns="">plain</c></a>',
        '<s:Envelope xmlns:s="urn:soap"><s:Header/><s:Body><op xmlns="urn:app">'
        '<arg>1</arg><arg>2</arg></op></s:Body></s:Envelope>',
        "<a>&lt;escaped&gt; &amp; more</a>",
        '<a><b xmlns:p="urn:p" p:attr="x"/>tail</a>',
    ]

    def test_parse_serialize_parse_fixpoint(self):
        for case in self.CASES:
            first = parse(case)
            text = serialize(first)
            second = parse(text)
            assert first == second, case

    def test_serialize_is_stable(self):
        for case in self.CASES:
            t1 = serialize(parse(case))
            t2 = serialize(parse(t1))
            assert t1 == t2, case

    def test_unicode_content(self):
        root = parse("<a>héllo ✓ 中文</a>")
        assert parse(serialize(root)).text == "héllo ✓ 中文"


class TestReservedBindings:
    """The writer refuses what the reader refuses: Namespaces 1.0 keeps
    ``xml`` for the XML namespace and ``xmlns`` for none."""

    @pytest.mark.parametrize(
        "prefix, uri",
        [
            pytest.param("xml", "urn:x", id="xml-prefix-to-another-uri"),
            pytest.param("xmlns", "urn:y", id="xmlns-prefix-declared"),
            pytest.param("p", XML_URI, id="another-prefix-to-the-xml-namespace"),
            pytest.param("q", XMLNS_URI, id="another-prefix-to-the-xmlns-namespace"),
        ],
    )
    def test_reserved_binding_is_refused(self, prefix, uri):
        with pytest.raises(XmlSerializeError, match="reserved namespace binding"):
            serialize(Element("a", nsdecls={prefix: uri}))
        with pytest.raises(XmlWellFormednessError):  # as the reader refuses the text
            parse(f'<a xmlns:{prefix}="{uri}"/>')

    def test_a_forced_declaration_of_a_reserved_binding_is_refused(self):
        with pytest.raises(XmlSerializeError, match="reserved namespace binding"):
            serialize(Element(QName(XMLNS_URI, "a", "q")))

    def test_the_xml_prefix_still_writes_and_round_trips(self):
        root = Element("a", nsdecls={"xml": XML_URI}, attributes={QName(XML_URI, "lang", "xml"): "en"})
        root.add(QName(XML_URI, "b"))
        text = serialize(root)
        assert text == '<a xmlns:xml="http://www.w3.org/XML/1998/namespace" xml:lang="en"><xml:b/></a>'
        assert parse(text) == root
        assert serialize(Element("a", attributes={QName(XML_URI, "lang"): "en"})) == '<a xml:lang="en"/>'


def test_the_writer_keeps_nothing_between_calls():
    """20 000 documents of depth 6, each level declaring one of 60
    prefixes at random, leave no trace: a scope lives only as long as
    its element's walk.  One chain of six elements is renamed for each
    document, so the writer does the only allocating."""
    rng = random.Random(49)
    bindings = [(QName(f"urn:p{i}", "e", f"p{i}"), {f"p{i}": f"urn:p{i}"}) for i in range(60)]
    chain = [Element("e") for _ in range(6)]
    for parent, child in zip(chain, chain[1:]):
        parent.append(child)

    def document() -> Element:
        for elem in chain:
            elem.name, elem.nsdecls = rng.choice(bindings)
        return chain[0]

    serialize(document())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20_000):
            serialize(document())
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 1 << 20, f"the writer kept {growth} bytes"
