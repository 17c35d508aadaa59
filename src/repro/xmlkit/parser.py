"""Reader: XML text → Element tree, over the standard library's expat.

Expat decides what is XML 1.0 with namespaces (well-formedness, the
``Char`` production, entity and character references, namespace
scoping, duplicate expanded attribute names) and words every refusal;
this module only builds the tree from its events.  One builder serves
:func:`parse` and :class:`~repro.xmlkit.stream.FeedParser` alike.

What the reader adds to expat: a DOCTYPE is refused (no 2004-era
Web-service format needs one, and refusing it closes the entity
expansion attacks), a ``str`` holding a lone surrogate is refused, and
an encoding declaration is ignored — text arrives decoded, bytes are
UTF-8.  Adjacent character data is always one content string, whatever
CDATA sections, comments or feed boundaries fall inside it.  A refusal
of the reader's own (a DOCTYPE, a name :class:`QName` does not take)
points at the start of the construct refused, as expat's own do.
"""

from __future__ import annotations

from typing import Optional, Union
from xml.parsers.expat import ErrorString, ExpatError, ParserCreate, XMLParserType

from repro.xmlkit.element import Element
from repro.xmlkit.errors import XmlParseError, XmlWellFormednessError
from repro.xmlkit.names import QName, intern_qname

#: what expat writes between a name's URI, local part and prefix: no XML
#: text can hold it
_SEPARATOR = "\x01"


def _qname(name: str) -> QName:
    uri, namespaced, rest = name.partition(_SEPARATOR)
    if not namespaced:
        return intern_qname("", name)
    local, _, prefix = rest.partition(_SEPARATOR)
    return intern_qname(uri, local, prefix)


class _Builder:
    """Expat's events → an :class:`Element` tree.  It holds its parser
    only inside :meth:`read`, so a finished parse (or one waiting for
    its next chunk) leaves no cycle behind."""

    __slots__ = ("root", "_stack", "_text", "_decls", "_parser")

    def __init__(self) -> None:
        self.root: Optional[Element] = None
        self._stack: list[Element] = []
        self._text: list[str] = []  # character data since the last tag
        self._decls: dict[str, str] = {}  # for the next start tag
        self._parser: Optional[XMLParserType] = None  # while reading

    def reader(self) -> XMLParserType:
        parser = ParserCreate("utf-8", _SEPARATOR)
        parser.namespace_prefixes = parser.ordered_attributes = parser.buffer_text = True
        parser.StartNamespaceDeclHandler = self._declare
        parser.StartElementHandler = self._start
        parser.EndElementHandler = self._end
        parser.CharacterDataHandler = self._text.append
        # the DOCTYPE's first token comes here (no doctype handler is set)
        # at its own position; the other markup nothing else takes does too
        parser.DefaultHandler = self._markup
        return parser

    def read(self, parser: XMLParserType, data: Union[str, bytes], final: bool) -> None:
        """Hand *data* to *parser*, every refusal raised as an :class:`XmlParseError`."""
        self._parser = parser
        try:
            parser.Parse(data, final)
        except ExpatError as exc:
            raise XmlWellFormednessError(ErrorString(exc.code), exc.lineno, exc.offset + 1) from None
        except UnicodeEncodeError as exc:
            raise XmlParseError(f"lone surrogate {exc.object[exc.start]!r} in text") from None
        finally:
            self._parser = None

    def _refusal(self, message: str) -> XmlParseError:
        """The refusal of the construct being reported, at the position where it starts."""
        parser = self._parser
        return XmlParseError(message, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)

    def _declare(self, prefix: Optional[str], uri: Optional[str]) -> None:
        self._decls[prefix or ""] = uri or ""

    def _start(self, name: str, attrs: list[str]) -> None:
        stack, text = self._stack, self._text
        if text:
            stack[-1]._content.append("".join(text))
            text.clear()
        try:
            elem = Element(_qname(name), nsdecls=self._decls)
            if attrs:
                attributes = elem.attributes
                for k in range(0, len(attrs), 2):
                    attributes[_qname(attrs[k])] = attrs[k + 1]
        except ValueError as exc:  # a name QName does not take
            raise self._refusal(str(exc)) from None
        self._decls.clear()
        if stack:
            stack[-1].append(elem)
        else:
            self.root = elem
        stack.append(elem)

    def _end(self, name: str) -> None:
        elem, text = self._stack.pop(), self._text
        if text:
            elem._content.append("".join(text))
            text.clear()

    def _markup(self, data: str) -> None:
        if data.startswith("<!DOCTYPE"):
            raise self._refusal("DTD / doctype declarations are not supported")


def parse(text: Union[str, bytes]) -> Element:
    """Parse an XML *document*: exactly one root element."""
    builder = _Builder()
    builder.read(builder.reader(), text, True)
    return builder.root


#: The same function under the name call sites use for an embedded
#: fragment (an advert inside a SOAP header): a single element either way.
parse_fragment = parse
