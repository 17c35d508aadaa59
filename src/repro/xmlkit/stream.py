"""Streaming codec path (E16): serialise and parse without ever
materialising the whole document.

* :func:`iter_serialize` — the batch serialiser's own walker, its text
  parts encoded into byte chunks (:mod:`repro.xmlkit.serializer`);
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

from typing import Iterable, Union

from repro.xmlkit.element import Element
from repro.xmlkit.errors import XmlParseError
from repro.xmlkit.parser import _Builder
from repro.xmlkit.serializer import iter_serialize

__all__ = ["FeedParser", "iter_serialize", "parse_stream"]

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
