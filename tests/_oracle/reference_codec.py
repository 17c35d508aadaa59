"""The reference XML codec: the original, character-at-a-time
implementation, frozen as an executable spec.

Writing: the production serialiser in :mod:`repro.xmlkit` (flattened
namespace scopes, interned names, the streaming twin) must stay
byte-for-byte compatible with :func:`serialize_reference`.

Reading: production reads through expat, which decides what is
accepted and words every refusal.  :func:`parse_reference` is the *tree*
oracle: on a document both accept, the trees must be equal (adjacent
text chunks joined).  It is looser than XML 1.0 — it accepts ``]]>``
and C0 controls in text, references to non-characters and duplicate
expanded attribute names, and normalises neither line ends nor
attribute whitespace — so where the two disagree on accepting, expat's
answer is the policy (DESIGN.md §2).

It stands alone on purpose: of :mod:`repro.xmlkit` it uses only the
data model (``Element``, ``QName``) and the error types — its
tokenizer, its token → tree loop, its namespace resolution and its
serializer share no code with production, so a bug there cannot pass
for parity here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Iterator, Optional

from repro.xmlkit.element import Element
from repro.xmlkit.errors import XmlParseError, XmlWellFormednessError
from repro.xmlkit.names import QName, XML_URI

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_WS = " \t\r\n"


class TokenType(Enum):
    START_TAG = auto()       # value: tag name, attrs: list[(name, value)], self_closing: bool
    END_TAG = auto()         # value: tag name
    TEXT = auto()            # value: decoded character data
    COMMENT = auto()         # value: comment body
    PI = auto()              # value: (target, data)
    DECLARATION = auto()     # value: the <?xml ...?> attribute string


def _reference_char(digits: str, base: int) -> str:
    # only plain digits spell a reference: int() would also take '_',
    # a sign, surrounding spaces and other scripts' digits
    allowed = "0123456789abcdefABCDEF" if base == 16 else "0123456789"
    if not digits or any(ch not in allowed for ch in digits):
        raise ValueError(digits)
    code = int(digits, base)
    # NUL, surrogates and values past U+10FFFF name no character (and
    # chr() raises OverflowError, not ValueError, beyond a C int)
    if code == 0 or 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
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
            if name.startswith("#x"):
                try:
                    out.append(_reference_char(name[2:], 16))
                except ValueError:
                    raise XmlParseError(f"bad character reference &{name};", line, col) from None
            elif name.startswith("#"):
                try:
                    out.append(_reference_char(name[1:], 10))
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


# ----------------------------------------------------------------------
# the reference parser: one dict of declarations per open element,
# searched innermost-first; a fresh QName per name
# ----------------------------------------------------------------------
def _split_name(name: str) -> tuple[str, str]:
    if ":" in name:
        prefix, _, local = name.partition(":")
        return prefix, local
    return "", name


def _reference_element(token: ReferenceToken, scopes: list[dict[str, str]]) -> Element:
    nsdecls: dict[str, str] = {}
    plain: list[tuple[str, str]] = []
    seen: set[str] = set()
    for name, value in token.attrs:
        if name in seen:
            raise XmlWellFormednessError(
                f"duplicate attribute {name!r}", token.line, token.column
            )
        seen.add(name)
        if name == "xmlns":
            nsdecls[""] = value
        elif name.startswith("xmlns:"):
            if name == "xmlns:":
                raise XmlWellFormednessError("empty xmlns prefix", token.line, token.column)
            nsdecls[name[6:]] = value
        else:
            plain.append((name, value))
    scopes.append(nsdecls)

    def lookup(prefix: str) -> Optional[str]:
        for decls in reversed(scopes):
            if prefix in decls:
                return decls[prefix]
        return None

    prefix, local = _split_name(token.value)
    uri = lookup(prefix)
    if uri is None:
        raise XmlWellFormednessError(
            f"undeclared namespace prefix {prefix!r} on element <{token.value}>",
            token.line,
            token.column,
        )
    elem = Element(QName(uri, local, prefix), nsdecls=nsdecls)
    for aname, avalue in plain:
        aprefix, alocal = _split_name(aname)
        auri = ""  # unprefixed attributes are in no namespace
        if aprefix:
            auri = lookup(aprefix)
            if auri is None:
                raise XmlWellFormednessError(
                    f"undeclared namespace prefix {aprefix!r} on attribute {aname!r}",
                    token.line,
                    token.column,
                )
        elem.attributes[QName(auri, alocal, aprefix)] = avalue
    return elem


def parse_reference(text: str) -> Element:
    """Parse through the original tokenizer, a chain-walked namespace
    stack and non-interned QNames."""
    root: Optional[Element] = None
    stack: list[Element] = []
    scopes: list[dict[str, str]] = [{"xml": XML_URI, "": ""}]
    for token in ReferenceTokenizer(text).tokens():
        if token.type is TokenType.START_TAG:
            if root is not None and not stack:
                raise XmlWellFormednessError(
                    "multiple root elements", token.line, token.column
                )
            elem = _reference_element(token, scopes)
            if stack:
                stack[-1].append(elem)
            else:
                root = elem
            if token.self_closing:
                scopes.pop()
            else:
                stack.append(elem)
        elif token.type is TokenType.TEXT:
            if stack:
                stack[-1].append_text(token.value)
            elif token.value.strip():
                where = "before" if root is None else "after"
                raise XmlWellFormednessError(
                    f"character data {where} root element", token.line, token.column
                )
        elif token.type is TokenType.END_TAG:
            if not stack:
                raise XmlWellFormednessError(
                    f"unexpected closing tag </{token.value}>", token.line, token.column
                )
            name = stack.pop().name
            opened = f"{name.prefix}:{name.local}" if name.prefix else name.local
            if _split_name(token.value) != (name.prefix, name.local):
                raise XmlWellFormednessError(
                    f"mismatched closing tag </{token.value}>; open element is <{opened}>",
                    token.line,
                    token.column,
                )
            scopes.pop()
        elif token.type is TokenType.DECLARATION:
            if root is not None or stack:
                raise XmlParseError("XML declaration after content", token.line, token.column)
    if stack:
        raise XmlWellFormednessError(f"unclosed element <{stack[-1].name.local}>")
    if root is None:
        raise XmlParseError("no root element found")
    return root


# ----------------------------------------------------------------------
# where production's reader answers otherwise, and why
# ----------------------------------------------------------------------
#: Where production's reader (expat and its tree builder) answers
#: otherwise than this reader, or than expat alone: row → (what
#: production does, a test that *text* may fall in the row).
#: The tests over-approximate: they are consulted only once the two
#: readers disagree, to tell a policy row from a fault.
POLICY = {
    "cdata-end": (
        "']]>' in character data is refused (XML 1.0 §2.4)",
        lambda text: "]]>" in _MARKUP.sub("", text),
    ),
    "not-a-char": (
        "a character outside the Char production is refused, written or referenced (§2.2)",
        lambda text: _NOT_CHAR.search(text) is not None
        or any(_not_char(digits, base) for digits, base in _char_references(text)),
    ),
    "duplicate-expanded-attribute": (
        "two attributes with one expanded name are refused (Namespaces §6.3)",
        lambda text: any(
            len(set(found)) < len(found)
            for found in (_PREFIXED_LOCALS.findall(tag) for tag in _START_TAG.findall(text))
        ),
    ),
    "prefix-undeclaration": (
        "xmlns:p=\"\" is refused: Namespaces 1.0 has no prefix undeclaration",
        lambda text: _UNDECLARATION.search(text) is not None,
    ),
    "line-ends": ("CR LF and a lone CR read as LF (§2.11)", lambda text: "\r" in text),
    "attribute-whitespace": (
        "a literal tab, LF or CR in an attribute value reads as a space (§3.3.3)",
        lambda text: any(_WS_IN_VALUE.search(tag) for tag in _START_TAG.findall(text)),
    ),
    "qualified-names": (
        "every element, attribute and declared prefix name is a QName (one colon at most,"
        " neither first nor last; Namespaces §3) of the ASCII subset QName takes, where"
        " expat alone would read any XML name",
        lambda text: any(
            not _QNAME_SHAPED.fullmatch(name)
            for tag in _TAG.findall(_STATIC.sub("", text))
            for name in _NAME.findall(_QUOTED.sub("", tag))
        ),
    ),
    "attribute-separation": (
        "attributes are separated by white space (§3.1)",
        lambda text: any(_UNSEPARATED.search(tag) for tag in _START_TAG.findall(text)),
    ),
    "reserved-namespaces": (
        "the xml and xmlns prefixes and namespaces are not rebound (Namespaces §3)",
        lambda text: _RESERVED.search(text) is not None,
    ),
    "comments": (
        "a comment may not hold '--' or end in '-' (§2.5)",
        lambda text: any(body.endswith("-") for body in _COMMENT.findall(text)),
    ),
    "white-space": (
        "only space, tab, CR and LF count as white space around the root (§2.3)",
        lambda text: _OTHER_SPACE.search(text) is not None,
    ),
    "prolog": (
        "the XML declaration is read, by its grammar and at the very start only, and a"
        " processing instruction must name a target other than xml (§2.6, §2.8)",
        lambda text: _prolog_awry(text),
    ),
    "doctype": (
        "a DOCTYPE is refused, where expat reads it (no Web-service format needs one)",
        lambda text: "<!DOCTYPE" in text,
    ),
    "byte-order-mark": ("a leading BOM is accepted", lambda text: text.startswith("\ufeff")),
}

#: CDATA sections, comments and PIs; and those or a tag
_STATIC = re.compile(r"<!\[CDATA\[.*?]]>|<!--.*?-->|<\?.*?\?>", re.S)
_MARKUP = re.compile(_STATIC.pattern + r"|<(?:[^>\"']|\"[^\"]*\"|'[^']*')*>", re.S)
_NOT_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_TAG = re.compile(r"</?[^!?](?:[^>\"']|\"[^\"]*\"|'[^']*')*>")
_QUOTED = re.compile(r"\"[^\"]*\"|'[^']*'")
_NAME = re.compile(r"[^\s<>/=]+")
_QNAME_SHAPED = re.compile(r"[A-Za-z_][\w.-]*(?::[A-Za-z_][\w.-]*)?", re.A)
_UNSEPARATED = re.compile(r"=[ \t\r\n]*(?:\"[^\"]*\"|'[^']*')[^ \t\r\n/>]")
_RESERVED = re.compile(
    r"xmlns:xml|=[ \t\r\n]*[\"'](?:http://www\.w3\.org/XML/1998/namespace|http://www\.w3\.org/2000/xmlns/)[\"']"
)
_COMMENT = re.compile(r"<!--(.*?)-->", re.S)
_OTHER_SPACE = re.compile("[\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")
_START_TAG = re.compile(r"<[^!?/](?:[^>\"']|\"[^\"]*\"|'[^']*')*>")
_PREFIXED_LOCALS = re.compile(r"\s[^\s=:]+:([^\s=]+)\s*=")
_UNDECLARATION = re.compile(r"xmlns:[^\s=]+\s*=\s*(?:\"\"|'')")
_WS_IN_VALUE = re.compile(r"=\s*(?:\"[^\"]*[\t\n\r][^\"]*\"|'[^']*[\t\n\r][^']*')")


_DECLARATION = re.compile(
    r"<\?xml[ \t\r\n]+version[ \t\r\n]*=[ \t\r\n]*(\"1\.[0-9]+\"|'1\.[0-9]+')"
    r"(?:[ \t\r\n]+encoding[ \t\r\n]*=[ \t\r\n]*(\"[A-Za-z][\w.-]*\"|'[A-Za-z][\w.-]*'))?"
    r"(?:[ \t\r\n]+standalone[ \t\r\n]*=[ \t\r\n]*(\"(yes|no)\"|'(yes|no)'))?[ \t\r\n]*\?>",
    re.A,
)
_BAD_PI = re.compile(r"<\?(?![A-Za-z_][\w.-]*(?:[ \t\r\n]|\?>))|<\?[xX][mM][lL](?:[ \t\r\n]|\?>)")


def _prolog_awry(text: str) -> bool:
    declared = _DECLARATION.match(text)
    if text.startswith("<?xml") and not declared:
        return True
    return _BAD_PI.search(text, declared.end() if declared else 0) is not None


def _char_references(text: str) -> Iterator[tuple[str, int]]:
    for found in re.finditer(r"&#([0-9]+);|&#x([0-9a-fA-F]+);", text):
        yield (found[1], 10) if found[1] else (found[2], 16)


def _not_char(digits: str, base: int) -> bool:
    digits = digits.lstrip("0") or "0"
    code = int(digits, base) if len(digits) < 9 else 0x110000
    return code > 0x10FFFF or _NOT_CHAR.match(chr(code)) is not None


def policy_rows(text: str) -> list[str]:
    """The :data:`POLICY` rows *text* may fall in."""
    return [row for row, (_, applies) in POLICY.items() if applies(text)]
