"""The reference (pre-fast-path) XML codec, kept as an executable spec.

The fast codec in :mod:`repro.xmlkit.tokenizer` and
:mod:`repro.xmlkit.serializer` must stay byte-for-byte compatible with
the original character-at-a-time implementation.  That original lives
here, frozen, for two jobs:

1. **Parity oracles** — the hypothesis property tests serialise every
   generated tree through both implementations and assert equality, and
   parse every document through both tokenizers and assert structural
   equality.
2. **Same-run baselines** — ``benchmarks/bench_e8_codec.py`` measures
   before/after throughput inside one process by flipping
   :func:`reference_codec`, which routes :func:`repro.xmlkit.parse` and
   :func:`repro.xmlkit.serialize` through this module and disables the
   derived-artifact caches.

Nothing outside tests and benchmarks should import this module on a hot
path.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.caching import set_fastpath_enabled, fastpath_enabled
from repro.xmlkit.errors import XmlParseError
from repro.xmlkit.element import Element
from repro.xmlkit.names import QName, XML_URI
from repro.xmlkit.tokenizer import TokenType

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_WS = " \t\r\n"


def _reference_char(code: int) -> str:
    # surrogates and values past U+10FFFF name no character (and chr()
    # raises OverflowError, not ValueError, beyond a C int)
    if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
        raise ValueError(code)
    return chr(code)


@dataclass
class ReferenceToken:
    """The eager-position token of the original tokenizer."""

    type: TokenType
    value: object
    line: int
    column: int
    attrs: list[tuple[str, str]] = field(default_factory=list)
    self_closing: bool = False


class ReferenceTokenizer:
    """The original tokenizer: per-character cursor with eager line/col."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    # -- low-level cursor ------------------------------------------------
    def _peek(self, n: int = 1) -> str:
        return self.text[self.pos : self.pos + n]

    def _advance(self, n: int = 1) -> str:
        chunk = self.text[self.pos : self.pos + n]
        for ch in chunk:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n
        return chunk

    def _error(self, msg: str) -> XmlParseError:
        return XmlParseError(msg, self.line, self.col)

    def _expect(self, literal: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise self._error(f"expected {literal!r}")
        self._advance(len(literal))

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in _WS:
            self._advance()

    def _read_until(self, literal: str, what: str) -> str:
        end = self.text.find(literal, self.pos)
        if end < 0:
            raise self._error(f"unterminated {what}")
        chunk = self.text[self.pos : end]
        self._advance(len(chunk) + len(literal))
        return chunk

    def _read_name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in _WS + "=/>\"'<&":
            self._advance()
        if self.pos == start:
            raise self._error("expected a name")
        return self.text[start : self.pos]

    # -- entity decoding --------------------------------------------------
    def _decode_entities(self, raw: str, line: int, col: int) -> str:
        if "&" not in raw:
            return raw
        out: list[str] = []
        i = 0
        while i < len(raw):
            ch = raw[i]
            if ch != "&":
                out.append(ch)
                i += 1
                continue
            end = raw.find(";", i + 1)
            if end < 0:
                raise XmlParseError("unterminated entity reference", line, col)
            name = raw[i + 1 : end]
            if name.startswith("#x") or name.startswith("#X"):
                try:
                    out.append(_reference_char(int(name[2:], 16)))
                except ValueError:
                    raise XmlParseError(f"bad character reference &{name};", line, col) from None
            elif name.startswith("#"):
                try:
                    out.append(_reference_char(int(name[1:])))
                except ValueError:
                    raise XmlParseError(f"bad character reference &{name};", line, col) from None
            elif name in _PREDEFINED_ENTITIES:
                out.append(_PREDEFINED_ENTITIES[name])
            else:
                raise XmlParseError(f"unknown entity &{name};", line, col)
            i = end + 1
        return "".join(out)

    # -- token production ---------------------------------------------------
    def tokens(self) -> Iterator[ReferenceToken]:
        while self.pos < len(self.text):
            line, col = self.line, self.col
            if self._peek() == "<":
                nxt2 = self._peek(2)
                nxt4 = self._peek(4)
                nxt9 = self._peek(9)
                if nxt4 == "<!--":
                    self._advance(4)
                    body = self._read_until("-->", "comment")
                    if "--" in body:
                        raise XmlParseError("'--' not allowed in comment", line, col)
                    yield ReferenceToken(TokenType.COMMENT, body, line, col)
                elif nxt9 == "<![CDATA[":
                    self._advance(9)
                    body = self._read_until("]]>", "CDATA section")
                    yield ReferenceToken(TokenType.TEXT, body, line, col)
                elif nxt2 == "<?":
                    self._advance(2)
                    body = self._read_until("?>", "processing instruction")
                    target, _, data = body.partition(" ")
                    if target.lower() == "xml":
                        yield ReferenceToken(TokenType.DECLARATION, data.strip(), line, col)
                    else:
                        yield ReferenceToken(TokenType.PI, (target, data.strip()), line, col)
                elif nxt2 == "<!":
                    raise XmlParseError("DTD / doctype declarations are not supported", line, col)
                elif nxt2 == "</":
                    self._advance(2)
                    name = self._read_name()
                    self._skip_ws()
                    self._expect(">")
                    yield ReferenceToken(TokenType.END_TAG, name, line, col)
                else:
                    yield self._read_start_tag(line, col)
            else:
                start = self.pos
                nxt = self.text.find("<", self.pos)
                if nxt < 0:
                    nxt = len(self.text)
                raw = self.text[start:nxt]
                self._advance(len(raw))
                yield ReferenceToken(
                    TokenType.TEXT, self._decode_entities(raw, line, col), line, col
                )

    def _read_start_tag(self, line: int, col: int) -> ReferenceToken:
        self._expect("<")
        name = self._read_name()
        attrs: list[tuple[str, str]] = []
        while True:
            self._skip_ws()
            nxt = self._peek()
            if nxt == ">":
                self._advance()
                return ReferenceToken(TokenType.START_TAG, name, line, col, attrs=attrs)
            if self._peek(2) == "/>":
                self._advance(2)
                return ReferenceToken(
                    TokenType.START_TAG, name, line, col, attrs=attrs, self_closing=True
                )
            if not nxt:
                raise self._error(f"unterminated start tag <{name}")
            aline, acol = self.line, self.col
            aname = self._read_name()
            self._skip_ws()
            self._expect("=")
            self._skip_ws()
            quote = self._peek()
            if quote not in "\"'":
                raise self._error(f"attribute {aname!r} value must be quoted")
            self._advance()
            raw = self._read_until(quote, f"attribute {aname!r} value")
            if "<" in raw:
                raise XmlParseError(f"'<' not allowed in attribute value of {aname!r}", aline, acol)
            attrs.append((aname, self._decode_entities(raw, aline, acol)))


# ----------------------------------------------------------------------
# the original serializer: parent-linked scope chain, chained .replace
# ----------------------------------------------------------------------
def escape_text_reference(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def escape_attr_reference(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
        .replace("\r", "&#13;")
    )


class _ReferenceScope:
    def __init__(self, parent: Optional["_ReferenceScope"] = None):
        self.parent = parent
        self.decls: dict[str, str] = {}  # prefix -> uri

    def resolve(self, prefix: str) -> Optional[str]:
        scope: Optional[_ReferenceScope] = self
        while scope is not None:
            if prefix in scope.decls:
                return scope.decls[prefix]
            scope = scope.parent
        if prefix == "xml":
            return XML_URI
        return None

    def prefix_for(self, uri: str) -> Optional[str]:
        """Innermost prefix bound to *uri*, honouring shadowing."""
        shadowed: set[str] = set()
        scope: Optional[_ReferenceScope] = self
        while scope is not None:
            for prefix, bound in scope.decls.items():
                if prefix in shadowed:
                    continue
                if bound == uri:
                    return prefix
                shadowed.add(prefix)
            scope = scope.parent
        if uri == XML_URI:
            return "xml"
        return None


class _ReferenceSerializer:
    def __init__(self, pretty: bool):
        self.pretty = pretty
        self.counter = 0
        self.parts: list[str] = []

    def fresh_prefix(self, scope: _ReferenceScope) -> str:
        while True:
            self.counter += 1
            candidate = f"ns{self.counter}"
            if scope.resolve(candidate) is None:
                return candidate

    def element(self, elem: Element, parent_scope: _ReferenceScope, depth: int) -> None:
        scope = _ReferenceScope(parent_scope)
        scope.decls.update(elem.nsdecls)
        extra_decls: dict[str, str] = {}

        def prefix_of(q: QName, is_attr: bool) -> str:
            if q.uri == "":
                if not is_attr and scope.resolve("") not in (None, ""):
                    extra_decls[""] = ""
                    scope.decls[""] = ""
                return ""
            if q.prefix and scope.resolve(q.prefix) == q.uri:
                return q.prefix
            existing = scope.prefix_for(q.uri)
            if existing is not None and not (is_attr and existing == ""):
                return existing
            prefix = q.prefix if (q.prefix and scope.resolve(q.prefix) is None) else ""
            if not prefix or (is_attr and prefix == ""):
                prefix = self.fresh_prefix(scope)
            extra_decls[prefix] = q.uri
            scope.decls[prefix] = q.uri
            return prefix

        tag_prefix = prefix_of(elem.name, is_attr=False)
        tag = f"{tag_prefix}:{elem.name.local}" if tag_prefix else elem.name.local

        attr_parts: list[str] = []
        for aname, avalue in elem.attributes.items():
            ap = prefix_of(aname, is_attr=True)
            key = f"{ap}:{aname.local}" if ap else aname.local
            attr_parts.append(f' {key}="{escape_attr_reference(avalue)}"')

        decl_parts: list[str] = []
        for prefix, uri in {**elem.nsdecls, **extra_decls}.items():
            key = f"xmlns:{prefix}" if prefix else "xmlns"
            decl_parts.append(f' {key}="{escape_attr_reference(uri)}"')

        indent = "  " * depth if self.pretty else ""
        open_tag = f"{indent}<{tag}{''.join(decl_parts)}{''.join(attr_parts)}"

        content = elem.content
        if not content:
            self.parts.append(open_tag + "/>")
            if self.pretty:
                self.parts.append("\n")
            return

        only_text = all(isinstance(c, str) for c in content)
        self.parts.append(open_tag + ">")
        if only_text:
            self.parts.append(escape_text_reference(elem.text))
            self.parts.append(f"</{tag}>")
            if self.pretty:
                self.parts.append("\n")
            return

        if self.pretty:
            self.parts.append("\n")
        for c in content:
            if isinstance(c, str):
                if self.pretty:
                    if c.strip():
                        self.parts.append(
                            "  " * (depth + 1) + escape_text_reference(c.strip()) + "\n"
                        )
                else:
                    self.parts.append(escape_text_reference(c))
            else:
                self.element(c, scope, depth + 1)
        self.parts.append(f"{indent}</{tag}>")
        if self.pretty:
            self.parts.append("\n")


def serialize_reference(
    elem: Element,
    *,
    pretty: bool = False,
    xml_declaration: bool = False,
) -> str:
    """Serialise through the original implementation (the parity oracle)."""
    ser = _ReferenceSerializer(pretty)
    ser.element(elem, _ReferenceScope(), 0)
    body = "".join(ser.parts)
    if pretty:
        body = body.rstrip("\n") + "\n"
    if xml_declaration:
        return '<?xml version="1.0" encoding="utf-8"?>' + ("\n" if pretty else "") + body
    return body


def parse_reference(text: str) -> Element:
    """Parse through the original tokenizer and non-interned QNames."""
    from repro.xmlkit import parser as _parser

    root, _ = _parser._parse_impl(
        text, fragment=False, tokenizer_cls=ReferenceTokenizer, make_qname=QName
    )
    return root


@contextmanager
def reference_codec():
    """Route the whole stack through the pre-change codec.

    Swaps the tokenizer and serializer implementations behind
    :func:`repro.xmlkit.parse` / :func:`repro.xmlkit.serialize` and
    disables the derived-artifact caches, so a benchmark can measure
    the genuine pre-change behaviour in the same process as the fast
    path.  Not thread-safe; intended for benchmarks and tests only.
    """
    from repro.xmlkit import parser as _parser
    from repro.xmlkit import serializer as _serializer

    saved = (
        _parser._ACTIVE_TOKENIZER,
        _parser._ACTIVE_QNAME,
        _serializer._ACTIVE_SERIALIZE,
        fastpath_enabled(),
    )
    _parser._ACTIVE_TOKENIZER = ReferenceTokenizer
    _parser._ACTIVE_QNAME = QName
    _serializer._ACTIVE_SERIALIZE = _serialize_reference_impl
    set_fastpath_enabled(False)
    try:
        yield
    finally:
        _parser._ACTIVE_TOKENIZER = saved[0]
        _parser._ACTIVE_QNAME = saved[1]
        _serializer._ACTIVE_SERIALIZE = saved[2]
        set_fastpath_enabled(saved[3])


def _serialize_reference_impl(elem: Element, pretty: bool, xml_declaration: bool) -> str:
    return serialize_reference(elem, pretty=pretty, xml_declaration=xml_declaration)
