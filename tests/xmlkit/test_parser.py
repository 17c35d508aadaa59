"""Tests for the tokenizer and parser."""

import pytest

from repro.xmlkit import Element, QName, XmlParseError, XmlWellFormednessError, parse
from repro.xmlkit.tokenizer import Tokenizer, TokenType


def tokenize(text):
    return Tokenizer(text).tokens()


class TestTokenizer:
    def test_simple_element(self):
        toks = list(tokenize("<a>hi</a>"))
        assert [t.type for t in toks] == [TokenType.START_TAG, TokenType.TEXT, TokenType.END_TAG]

    def test_self_closing(self):
        (tok,) = list(tokenize("<a/>"))
        assert tok.self_closing

    def test_attributes_both_quote_styles(self):
        (tok,) = list(tokenize("<a x=\"1\" y='2'/>"))
        assert tok.attrs == [("x", "1"), ("y", "2")]

    def test_entity_decoding_in_text(self):
        toks = list(tokenize("<a>&lt;&amp;&gt;&quot;&apos;</a>"))
        assert toks[1].value == "<&>\"'"

    def test_numeric_char_refs(self):
        toks = list(tokenize("<a>&#65;&#x42;</a>"))
        assert toks[1].value == "AB"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XmlParseError):
            list(tokenize("<a>&nbsp;</a>"))

    def test_cdata(self):
        toks = list(tokenize("<a><![CDATA[<not-a-tag> & raw]]></a>"))
        assert toks[1].value == "<not-a-tag> & raw"

    def test_comment(self):
        toks = list(tokenize("<!-- hello --><a/>"))
        assert toks[0].type is TokenType.COMMENT

    def test_double_dash_in_comment_rejected(self):
        with pytest.raises(XmlParseError):
            list(tokenize("<!-- a -- b --><a/>"))

    def test_xml_declaration(self):
        toks = list(tokenize('<?xml version="1.0"?><a/>'))
        assert toks[0].type is TokenType.DECLARATION

    def test_processing_instruction(self):
        toks = list(tokenize("<?target some data?><a/>"))
        assert toks[0].type is TokenType.PI
        assert toks[0].value == ("target", "some data")

    def test_doctype_rejected(self):
        with pytest.raises(XmlParseError):
            list(tokenize("<!DOCTYPE html><a/>"))

    def test_unterminated_tag(self):
        with pytest.raises(XmlParseError):
            list(tokenize("<a foo"))

    def test_unterminated_comment(self):
        with pytest.raises(XmlParseError):
            list(tokenize("<!-- never ends"))

    def test_unquoted_attribute_rejected(self):
        with pytest.raises(XmlParseError):
            list(tokenize("<a x=1/>"))

    def test_lt_in_attribute_rejected(self):
        with pytest.raises(XmlParseError):
            list(tokenize('<a x="a<b"/>'))

    def test_error_carries_position(self):
        try:
            list(tokenize("<a>\n<b x=bad/></a>"))
        except XmlParseError as e:
            assert e.line == 2
        else:
            pytest.fail("expected XmlParseError")


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
