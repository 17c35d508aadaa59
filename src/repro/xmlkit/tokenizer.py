"""A hand-rolled XML tokenizer.

Produces a flat stream of tokens the parser assembles into an
:class:`~repro.xmlkit.element.Element` tree.  Supports the XML subset
our wire formats need: elements, attributes, character data, entity and
numeric character references, CDATA sections, comments, processing
instructions and the XML declaration.  DTDs are rejected (none of the
2004-era Web-service formats require them, and skipping them removes a
whole class of parser attacks).

Position tracking is *lazy*: the cursor is a single integer offset and
every move is O(1) — ``str.find`` jumps over text runs and attribute
values, a compiled regex eats names and whitespace.  Line/column pairs
(needed only to format error messages and carried by every token for
diagnostics) are derived from the offset on demand by counting
newlines, so the well-formed hot path never pays for them.

The same tokenizer serves the incremental parser: built with
``final=False`` it treats input that ends inside a construct as "need
more input" instead of an error — :meth:`Tokenizer.tokens` stops with
``pos`` at the start of the incomplete construct, and the caller
re-tokenises from there once more text has arrived.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import Iterator, Optional

from repro.xmlkit.errors import XmlParseError

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_WS = " \t\r\n"
_WS_RE = re.compile(r"[ \t\r\n]*")
# everything a name may NOT contain, mirroring the reference stop-set
_NAME_RE = re.compile(r"[^ \t\r\n=/>\"'<&]+")
# one whole well-formed attribute (ws + name + '=' + quoted value) OR
# the tag terminator, in a single scan; when this fails to match, the
# stepwise fallback reproduces the reference error message and
# position exactly
_ATTR_OR_END_RE = re.compile(
    r"[ \t\r\n]*(?:([^ \t\r\n=/>\"'<&]+)[ \t\r\n]*=[ \t\r\n]*"
    r"(?:\"([^\"<]*)\"|'([^'<]*)')|(/?>))"
)
# a whole well-formed end tag after '</'
_END_TAG_RE = re.compile(r"([^ \t\r\n=/>\"'<&]+)[ \t\r\n]*>")
# the only two spellings of a character reference (the name between
# '&' and ';'); int() alone would also take '_', signs, spaces and 'X'
_CHAR_REF_RE = re.compile(r"#(?:([0-9]+)|x([0-9a-fA-F]+))")


class _NeedMoreInput(Exception):
    """Input ended inside a construct and more may follow."""


def line_col_at(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of *offset* in *text*, computed on demand."""
    line = text.count("\n", 0, offset) + 1
    # rfind returns -1 when offset sits on the first line, which makes
    # the subtraction come out 1-based exactly.
    return line, offset - text.rfind("\n", 0, offset)


class TokenType(Enum):
    START_TAG = auto()       # value: tag name, attrs: list[(name, value)], self_closing: bool
    END_TAG = auto()         # value: tag name
    TEXT = auto()            # value: decoded character data
    COMMENT = auto()         # value: comment body
    PI = auto()              # value: (target, data)
    DECLARATION = auto()     # value: the <?xml ...?> attribute string


_NO_ATTRS: list[tuple[str, str]] = []


class Token:
    """One token.  ``line``/``column`` are computed lazily from the
    source offset, so producing a token costs no position bookkeeping."""

    __slots__ = ("type", "value", "source", "offset", "attrs", "self_closing")

    def __init__(
        self,
        type: TokenType,
        value: object,
        source: str,
        offset: int,
        attrs: Optional[list[tuple[str, str]]] = None,
        self_closing: bool = False,
    ):
        self.type = type
        self.value = value
        self.source = source
        self.offset = offset
        self.attrs = attrs if attrs is not None else _NO_ATTRS
        self.self_closing = self_closing

    @property
    def line(self) -> int:
        return line_col_at(self.source, self.offset)[0]

    @property
    def column(self) -> int:
        return line_col_at(self.source, self.offset)[1]

    def __repr__(self) -> str:
        return f"<Token {self.type.name} {self.value!r} @{self.offset}>"


class Tokenizer:
    """Single-pass cursor tokenizer over an XML string.

    With ``final=False`` *text* is the head of a document still
    arriving: :meth:`tokens` yields every complete construct, flushes a
    trailing text run (``text_open`` is then true: the run may continue
    in the next piece) and stops with ``pos`` at the first character it
    could not yet make a token of.
    """

    __slots__ = ("text", "pos", "final", "text_open")

    def __init__(self, text: str, final: bool = True):
        self.text = text
        self.pos = 0
        self.final = final
        self.text_open = False

    # -- lazy position reporting ----------------------------------------
    @property
    def line(self) -> int:
        return line_col_at(self.text, self.pos)[0]

    @property
    def col(self) -> int:
        return line_col_at(self.text, self.pos)[1]

    def _error(self, msg: str, offset: Optional[int] = None) -> Exception:
        if offset is None:
            offset = self.pos
            if not self.final and offset >= len(self.text):
                # the cursor ran off the end of a partial input
                return _NeedMoreInput()
        line, col = line_col_at(self.text, offset)
        return XmlParseError(msg, line, col)

    # -- low-level cursor ------------------------------------------------
    def _expect(self, literal: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise self._error(f"expected {literal!r}")
        self.pos += len(literal)

    def _skip_ws(self) -> None:
        self.pos = _WS_RE.match(self.text, self.pos).end()

    def _read_until(self, literal: str, what: str) -> str:
        end = self.text.find(literal, self.pos)
        if end < 0:
            if not self.final:
                raise _NeedMoreInput
            raise self._error(f"unterminated {what}")
        chunk = self.text[self.pos : end]
        self.pos = end + len(literal)
        return chunk

    def _read_name(self) -> str:
        match = _NAME_RE.match(self.text, self.pos)
        if match is None:
            raise self._error("expected a name")
        self.pos = match.end()
        return match.group()

    # -- entity decoding --------------------------------------------------
    def decode_entities(self, raw: str, offset: int) -> str:
        """*raw* with its references replaced; errors report *offset*."""
        if "&" not in raw:
            return raw
        out: list[str] = []
        i = 0
        n = len(raw)
        while i < n:
            amp = raw.find("&", i)
            if amp < 0:
                out.append(raw[i:])
                break
            if amp > i:
                out.append(raw[i:amp])
            end = raw.find(";", amp + 1)
            if end < 0:
                raise self._error("unterminated entity reference", offset)
            name = raw[amp + 1 : end]
            if name.startswith("#"):
                match = _CHAR_REF_RE.fullmatch(name)
                try:
                    code = 0 if match is None else int(match[1] or match[2], 16 if match[2] else 10)
                except ValueError:  # past int()'s digit limit
                    code = 0
                # NUL, a surrogate and anything past U+10FFFF name no character
                if not 0 < code <= 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                    raise self._error(f"bad character reference &{name};", offset)
                out.append(chr(code))
            elif name in _PREDEFINED_ENTITIES:
                out.append(_PREDEFINED_ENTITIES[name])
            else:
                raise self._error(f"unknown entity &{name};", offset)
            i = end + 1
        return "".join(out)

    # -- token production ---------------------------------------------------
    def tokens(self) -> Iterator[Token]:
        text = self.text
        length = len(text)
        try:
            while self.pos < length:
                start = self.pos
                if text[start] == "<":
                    nxt2 = text[start : start + 2]
                    if nxt2 == "<!":
                        if text.startswith("<!--", start):
                            self.pos = start + 4
                            body = self._read_until("-->", "comment")
                            if "--" in body:
                                raise self._error("'--' not allowed in comment", start)
                            yield Token(TokenType.COMMENT, body, text, start)
                        elif text.startswith("<![CDATA[", start):
                            self.pos = start + 9
                            body = self._read_until("]]>", "CDATA section")
                            yield Token(TokenType.TEXT, body, text, start)
                        else:
                            rest = text[start:]
                            if not self.final and (
                                "<!--".startswith(rest) or "<![CDATA[".startswith(rest)
                            ):
                                raise _NeedMoreInput  # not yet told apart from a DTD
                            raise self._error(
                                "DTD / doctype declarations are not supported", start
                            )
                    elif nxt2 == "<?":
                        self.pos = start + 2
                        body = self._read_until("?>", "processing instruction")
                        target, _, data = body.partition(" ")
                        if target.lower() == "xml":
                            yield Token(TokenType.DECLARATION, data.strip(), text, start)
                        else:
                            yield Token(TokenType.PI, (target, data.strip()), text, start)
                    elif nxt2 == "</":
                        match = _END_TAG_RE.match(text, start + 2)
                        if match is not None:
                            self.pos = match.end()
                            name = match.group(1)
                        else:  # malformed: reproduce the reference errors
                            self.pos = start + 2
                            name = self._read_name()
                            self._skip_ws()
                            self._expect(">")
                        yield Token(TokenType.END_TAG, name, text, start)
                    else:
                        yield self._read_start_tag(start)
                else:
                    nxt = text.find("<", start)
                    if nxt < 0:
                        nxt = length
                        if not self.final:
                            # the run may go on in the next piece: flush it
                            # now, short of a reference that may be split
                            amp = text.rfind("&", start)
                            if amp >= 0 and text.find(";", amp) < 0:
                                nxt = amp
                            if nxt == start:
                                return
                            self.text_open = True
                    raw = text[start:nxt]
                    self.pos = nxt
                    yield Token(
                        TokenType.TEXT, self.decode_entities(raw, start), text, start
                    )
        except _NeedMoreInput:
            self.pos = start

    def _read_start_tag(self, start: int) -> Token:
        text = self.text
        self.pos = start + 1  # consume '<'
        name = self._read_name()
        attrs: list[tuple[str, str]] = []
        while True:
            match = _ATTR_OR_END_RE.match(text, self.pos)
            if match is not None:
                end = match.group(4)
                if end is not None:
                    self.pos = match.end()
                    return Token(
                        TokenType.START_TAG,
                        name,
                        text,
                        start,
                        attrs=attrs,
                        self_closing=end != ">",
                    )
                raw = match.group(2)
                if raw is None:
                    raw = match.group(3)
                if "&" in raw:
                    raw = self.decode_entities(raw, match.start(1))
                attrs.append((match.group(1), raw))
                self.pos = match.end()
                continue
            # a malformed attribute or unterminated tag: the stepwise
            # path below reproduces the reference errors byte-for-byte
            self._skip_ws()
            pos = self.pos
            nxt = text[pos : pos + 1]
            if nxt == ">":
                self.pos = pos + 1
                return Token(TokenType.START_TAG, name, text, start, attrs=attrs)
            if nxt == "/" and text.startswith("/>", pos):
                self.pos = pos + 2
                return Token(
                    TokenType.START_TAG, name, text, start, attrs=attrs, self_closing=True
                )
            if not nxt:
                raise self._error(f"unterminated start tag <{name}")
            if nxt == "/" and pos + 1 == len(text) and not self.final:
                raise _NeedMoreInput  # the '>' of '/>' may be next
            astart = pos
            aname = self._read_name()
            self._skip_ws()
            self._expect("=")
            self._skip_ws()
            quote = text[self.pos : self.pos + 1]
            if quote not in ("\"", "'"):
                raise self._error(f"attribute {aname!r} value must be quoted")
            self.pos += 1
            raw = self._read_until(quote, f"attribute {aname!r} value")
            if "<" in raw:
                raise self._error(
                    f"'<' not allowed in attribute value of {aname!r}", astart
                )
            attrs.append((aname, self.decode_entities(raw, astart)))
