"""Tests for the reader: expat's events built into an Element tree."""

import pytest

from repro.xmlkit import Element, FeedParser, QName, XmlParseError, XmlWellFormednessError, parse


def content(text):
    return parse(text).content


class TestTokenizer:
    """The lexical constructs expat's tokenizer reads, checked through :func:`parse`."""

    def test_simple_element(self):
        assert content("<a>hi</a>") == ("hi",)

    def test_self_closing(self):
        assert content("<a/>") == ()

    def test_attributes_both_quote_styles(self):
        root = parse("<a x=\"1\" y='2'/>")
        assert [(k.local, v) for k, v in root.attributes.items()] == [("x", "1"), ("y", "2")]

    def test_entity_decoding_in_text(self):
        assert content("<a>&lt;&amp;&gt;&quot;&apos;</a>") == ("<&>\"'",)

    def test_numeric_char_refs(self):
        assert content("<a>&#65;&#x42;</a>") == ("AB",)

    def test_unknown_entity_rejected(self):
        with pytest.raises(XmlParseError):
            parse("<a>&nbsp;</a>")

    def test_cdata(self):
        assert content("<a><![CDATA[<not-a-tag> & raw]]></a>") == ("<not-a-tag> & raw",)

    def test_comment(self):
        assert content("<!-- hello --><a><!-- inside --></a>") == ()

    def test_double_dash_in_comment_rejected(self):
        with pytest.raises(XmlParseError):
            parse("<!-- a -- b --><a/>")

    def test_xml_declaration(self):
        assert parse('<?xml version="1.0"?><a/>').name.local == "a"
        with pytest.raises(XmlParseError):
            parse('<a><?xml version="1.0"?></a>')  # only at the start

    def test_processing_instruction(self):
        assert content("<?target some data?><a>x<?pi?>y</a>") == ("xy",)

    def test_doctype_rejected(self):
        with pytest.raises(XmlParseError, match="doctype"):
            parse("<!DOCTYPE html><a/>")

    def test_unterminated_tag(self):
        with pytest.raises(XmlParseError):
            parse("<a foo")

    def test_unterminated_comment(self):
        with pytest.raises(XmlParseError):
            parse("<!-- never ends")

    def test_unquoted_attribute_rejected(self):
        with pytest.raises(XmlParseError):
            parse("<a x=1/>")

    def test_lt_in_attribute_rejected(self):
        with pytest.raises(XmlParseError):
            parse('<a x="a<b"/>')

    def test_error_carries_position(self):
        with pytest.raises(XmlParseError) as info:
            parse("<a>\n<b x=bad/></a>")
        # expat's 0-based column, made 1-based
        assert (info.value.line, info.value.column) == (2, 6)


class TestParser:
    def test_basic_tree(self):
        root = parse("<a><b>t</b><c/></a>")
        assert root.name.local == "a"
        assert [c.name.local for c in root.children] == ["b", "c"]
        assert root.find("b").text == "t"

    def test_default_namespace(self):
        root = parse('<a xmlns="urn:x"><b/></a>')
        assert root.name == QName("urn:x", "a")
        assert root.children[0].name == QName("urn:x", "b")

    def test_prefixed_namespace(self):
        root = parse('<p:a xmlns:p="urn:x"><p:b/></p:a>')
        assert root.name == QName("urn:x", "a")
        assert root.name.prefix == "p"

    def test_attribute_namespaces(self):
        root = parse('<a xmlns:n="urn:n" n:k="v" plain="w"/>')
        assert root.get(QName("urn:n", "k")) == "v"
        assert root.get("plain") == "w"

    def test_unprefixed_attr_not_in_default_ns(self):
        root = parse('<a xmlns="urn:x" k="v"/>')
        assert root.get(QName("", "k")) == "v"
        assert root.get(QName("urn:x", "k")) is None

    def test_namespace_shadowing(self):
        root = parse('<a xmlns:p="urn:1"><b xmlns:p="urn:2"><p:c/></b></a>')
        c = root.children[0].children[0]
        assert c.name == QName("urn:2", "c")

    def test_default_ns_unset(self):
        root = parse('<a xmlns="urn:x"><b xmlns=""/></a>')
        assert root.children[0].name == QName("", "b")

    def test_undeclared_element_prefix(self):
        with pytest.raises(XmlWellFormednessError):
            parse("<p:a/>")

    def test_undeclared_attribute_prefix(self):
        with pytest.raises(XmlWellFormednessError):
            parse('<a p:k="v"/>')

    def test_mismatched_tags(self):
        with pytest.raises(XmlWellFormednessError):
            parse("<a><b></a></b>")

    def test_mismatched_prefix_in_close(self):
        with pytest.raises(XmlWellFormednessError):
            parse('<p:a xmlns:p="urn:x" xmlns:q="urn:x"></q:a>')

    def test_duplicate_attribute(self):
        with pytest.raises(XmlWellFormednessError):
            parse('<a k="1" k="2"/>')

    def test_multiple_roots(self):
        with pytest.raises(XmlWellFormednessError):
            parse("<a/><b/>")

    def test_text_outside_root(self):
        with pytest.raises(XmlWellFormednessError):
            parse("junk<a/>")

    def test_unclosed(self):
        with pytest.raises(XmlWellFormednessError):
            parse("<a><b></b>")

    def test_empty_input(self):
        with pytest.raises(XmlParseError):
            parse("")

    def test_whitespace_around_root_ok(self):
        root = parse("  \n<a/>\n  ")
        assert root.name.local == "a"

    def test_comments_ignored(self):
        root = parse("<a><!-- c --><b/></a>")
        assert len(root.children) == 1

    def test_mixed_content_preserved(self):
        root = parse("<a>pre<b/>post</a>")
        assert root.text == "prepost"
        kinds = [type(c).__name__ for c in root.content]
        assert kinds == ["str", "Element", "str"]

    def test_xml_prefix_predeclared(self):
        root = parse('<a xml:lang="en"/>')
        assert root.get(QName("http://www.w3.org/XML/1998/namespace", "lang")) == "en"

    def test_deep_nesting(self):
        depth = 200
        text = "".join(f"<e{i}>" for i in range(depth)) + "x" + "".join(
            f"</e{i}>" for i in reversed(range(depth))
        )
        root = parse(text)
        node: Element = root
        for _ in range(depth - 1):
            node = node.children[0]
        assert node.text == "x"


class TestPolicy:
    """Where the reader answers otherwise than the reference reader
    (``tests/_oracle/reference_codec.py``): DESIGN.md §2's policy rows."""

    @pytest.mark.parametrize(
        "document",
        [
            pytest.param("<a>x]]>y</a>", id="cdata-end-in-text"),
            pytest.param("<a>\x01</a>", id="c0-control-in-text"),
            pytest.param("<a x='\x01'/>", id="c0-control-in-attribute"),
            pytest.param("<a>\ufffe</a>", id="u+fffe"),
            pytest.param("<a>&#x1;</a>", id="reference-to-non-char"),
            pytest.param('<a xmlns:p="u" xmlns:q="u" p:x="1" q:x="2"/>', id="duplicate-expanded-attribute"),
            pytest.param("<a>\ud800</a>", id="lone-surrogate"),
            pytest.param("<a><é/></a>", id="name-outside-qname-subset"),
            pytest.param("<!DOCTYPE a><a/>", id="doctype"),
        ],
    )
    def test_refused(self, document):
        with pytest.raises(XmlParseError) as batch:
            parse(document)
        parser = FeedParser()
        with pytest.raises(XmlParseError) as fed:
            for k in range(0, len(document), 3):
                parser.feed(document[k : k + 3])
            parser.close()
        assert type(fed.value) is type(batch.value)

    def test_refused_position_counts_from_the_document_start(self):
        document = "<a>\n  <b>ok</b>\n  x]]>y</a>"
        with pytest.raises(XmlParseError) as batch:
            parse(document)
        parser = FeedParser()
        with pytest.raises(XmlParseError) as fed:
            for k in range(0, len(document), 4):
                parser.feed(document[k : k + 4].encode())
            parser.close()
        assert (batch.value.line, batch.value.column) == (fed.value.line, fed.value.column) == (3, 6)

    @pytest.mark.parametrize("document", ["\ufeff<a>x</a>", b"\xef\xbb\xbf<a>x</a>"], ids=["str", "bytes"])
    def test_a_leading_byte_order_mark_is_accepted(self, document):
        assert content(document) == ("x",)

    def test_an_encoding_declaration_on_text_is_ignored(self):
        assert content('<?xml version="1.0" encoding="latin-1"?><a>é</a>') == ("é",)

    def test_line_ends_and_attribute_whitespace_are_normalised(self):
        root = parse("<a x='1\n\t2' y='&#10;&#9;'>p\r\nq\rr</a>")
        assert [root.get("x"), root.get("y")] == ["1  2", "\n\t"]
        assert root.content == ("p\nq\nr",)

    def test_adjacent_character_data_is_one_string(self):
        document = "<a>x<![CDATA[<y>]]><!-- c -->z&amp;<?pi?>w<b/>v</a>"
        assert content(document)[0] == "x<y>z&w"
        parser = FeedParser()
        for ch in document:
            parser.feed(ch)
        assert parser.close().content == content(document)


class TestRefusalPosition:
    """A refusal of the reader's own points where the refused construct
    starts, as expat's own refusals do, in a batch and a fed parse."""

    @pytest.mark.parametrize(
        "document, where",
        [
            ("<!DOCTYPE html><a/>", (1, 1)),
            ('<?xml version="1.0"?>\n<!-- c -->\n  <!DOCTYPE a [<!ENTITY x "y">]><a>&x;</a>', (3, 3)),
            ("<a>\n <b><é/></b></a>", (2, 5)),
            ('<r>\n<a xmlns:p="u" p:é="1"/></r>', (2, 1)),
        ],
        ids=["doctype", "doctype-after-prolog", "element-name", "attribute-name"],
    )
    def test_at_the_start_of_the_construct(self, document, where):
        with pytest.raises(XmlParseError) as batch:
            parse(document)
        parser = FeedParser()
        with pytest.raises(XmlParseError) as fed:
            for k in range(0, len(document), 2):
                parser.feed(document[k : k + 2])
            parser.close()
        assert (batch.value.line, batch.value.column) == (fed.value.line, fed.value.column) == where
