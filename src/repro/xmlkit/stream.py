"""Streaming codec path (E16): serialise and parse without ever
materialising the whole document.

Two halves, each the batch codec with the buffers turned inside out:

* :func:`iter_serialize` — the generator form of
  :func:`repro.xmlkit.serializer.serialize`.  Every open tag comes from
  the batch serializer's own ``_open_tag`` (namespace scopes, prefix
  choice, declaration and attribute order); only the emission differs:
  wire chunks are *yielded* instead of appended to a parts list, so
  peak memory is one chunk, not one document.  Large text nodes are
  escaped window-by-window — escaping is per-character, so a windowed
  escape concatenates to exactly the whole-string escape.  Output is
  byte-identical to ``serialize(...).encode("utf-8")``.

* :class:`FeedParser` — the incremental form of
  :func:`repro.xmlkit.parser.parse`: the same expat reader and tree
  builder, each ``feed()`` one ``Parse(data, False)``.  It takes
  ``bytes`` / ``memoryview`` slices (UTF-8; a character split across
  chunks is fine) or ``str``; expat keeps only an incomplete construct
  between feeds, and text runs split across feeds are one content
  string, so the tree is the batch parser's and error positions count
  from the start of the document.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from repro.xmlkit.element import Element
from repro.xmlkit.errors import XmlParseError
from repro.xmlkit.parser import _Builder
from repro.xmlkit.serializer import _ROOT_SCOPE, _Scope, _Serializer, escape_text

#: window for escaping large text nodes: escape_text is applied to
#: slices this long, never to the whole node
_TEXT_WINDOW = 64 * 1024


def _iter_escaped(text: str) -> Iterator[str]:
    """escape_text applied window-by-window.  Escaping replaces single
    characters, so the concatenation of windowed escapes is exactly the
    escape of the concatenation."""
    if len(text) <= _TEXT_WINDOW:
        yield escape_text(text)
        return
    for i in range(0, len(text), _TEXT_WINDOW):
        yield escape_text(text[i : i + _TEXT_WINDOW])


class _StreamSerializer(_Serializer):
    """:meth:`_Serializer.element` as a generator: the same open tags,
    yielded rather than appended."""

    def iter_element(
        self, elem: Element, parent_scope: _Scope, depth: int
    ) -> Iterator[str]:
        open_tag, tag, scope = self._open_tag(elem, parent_scope, depth)
        content = elem.content
        if not content:
            yield open_tag + "/>"
            if self.pretty:
                yield "\n"
            return

        only_text = all(isinstance(c, str) for c in content)
        yield open_tag + ">"
        if only_text:
            # batch: escape_text(elem.text) where .text joins the str
            # items — per-item windowed escapes concatenate identically
            for c in content:
                yield from _iter_escaped(c)
            yield f"</{tag}>"
            if self.pretty:
                yield "\n"
            return

        if self.pretty:
            yield "\n"
        for c in content:
            if isinstance(c, str):
                if self.pretty:
                    if c.strip():
                        yield "  " * (depth + 1)
                        yield from _iter_escaped(c.strip())
                        yield "\n"
                else:
                    yield from _iter_escaped(c)
            else:
                yield from self.iter_element(c, scope, depth + 1)
        yield ("  " * depth if self.pretty else "") + f"</{tag}>"
        if self.pretty:
            yield "\n"


def iter_serialize(
    elem: Element,
    *,
    chunk_size: int = 64 * 1024,
    pretty: bool = False,
    xml_declaration: bool = False,
) -> Iterator[bytes]:
    """Serialise *elem* as UTF-8 byte chunks of roughly *chunk_size*.

    ``b"".join(iter_serialize(e))`` is byte-identical to
    ``serialize(e).encode("utf-8")`` for every tree.
    """
    ser = _StreamSerializer(pretty)

    def parts() -> Iterator[str]:
        if xml_declaration:
            yield '<?xml version="1.0" encoding="utf-8"?>' + ("\n" if pretty else "")
        if pretty:
            # batch normalises the tail to exactly one newline
            # (body.rstrip("\n") + "\n"): hold back trailing newlines
            # until a non-newline part proves they are interior
            held = 0
            for part in ser.iter_element(elem, _ROOT_SCOPE, 0):
                stripped = part.rstrip("\n")
                if held and (stripped or part):
                    yield "\n" * held
                    held = 0
                held = len(part) - len(stripped)
                if stripped:
                    yield stripped
            yield "\n"
        else:
            yield from ser.iter_element(elem, _ROOT_SCOPE, 0)

    buf = bytearray()
    for part in parts():
        buf += part.encode("utf-8")
        if len(buf) >= chunk_size:
            yield bytes(buf)
            buf = bytearray()
    if buf:
        yield bytes(buf)


# ----------------------------------------------------------------------
# incremental parsing
# ----------------------------------------------------------------------

_BytesLike = Union[bytes, bytearray, memoryview]


class FeedParser:
    """Incremental ``feed()``/``close()`` XML parser.

    Produces a tree equal to ``parse("".join(chunks))`` while holding
    at most one incomplete construct besides the tree itself.
    """

    def __init__(self) -> None:
        self._builder = _Builder()
        self._parser = self._builder.reader()
        self._closed = False
        self.fed_bytes = 0

    def feed(self, data: Union[str, _BytesLike]) -> None:
        if self._closed:
            raise XmlParseError("feed() after close()")
        self.fed_bytes += len(data)
        self._builder.read(self._parser, data, False)

    def close(self) -> Element:
        if self._closed:
            raise XmlParseError("close() called twice")
        self._closed = True
        self._builder.read(self._parser, b"", True)
        return self._builder.root


def parse_stream(chunks: Iterable[Union[str, _BytesLike]]) -> Element:
    """Parse a document supplied as an iterable of chunks — the
    one-call façade over :class:`FeedParser`."""
    parser = FeedParser()
    for chunk in chunks:
        parser.feed(chunk)
    return parser.close()
