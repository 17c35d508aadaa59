"""Serialiser: Element tree → XML text.

The serialiser guarantees the output re-parses to a structurally equal
tree (the round-trip property the test suite checks with hypothesis).
Namespace handling: explicit ``nsdecls`` on elements are honoured;
elements or attributes whose namespace URI has no in-scope prefix get a
generated ``ns<N>`` declaration at the point of use.  A tree the reader
would refuse is refused here too (:class:`XmlSerializeError`): a prefix
bound to no namespace, or a reserved binding — ``xml`` to another URI,
``xmlns`` to any, or another prefix to the ``xml`` or ``xmlns``
namespace.

One walker writes every document: :meth:`_Writer.walk` yields text
parts, :func:`serialize` joins them and :func:`iter_serialize` encodes
them into byte chunks.  Each element's namespace scope is its own
declarations over its parent's, and nothing outlives the call.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from repro.xmlkit.element import Element
from repro.xmlkit.errors import XmlSerializeError
from repro.xmlkit.names import QName, XML_URI, XMLNS_URI

#: text longer than this is escaped one window at a time, so a streamed
#: multi-megabyte text node never exists escaped in one piece
_TEXT_WINDOW = 64 * 1024

_TEXT_NEEDS_ESCAPE = re.compile(r"[&<>\r]")
_ATTR_NEEDS_ESCAPE = re.compile(r'[&<"\n\t\r]')


def escape_text(value: str) -> str:
    # \r must become a character reference: a literal CR in content is
    # folded to LF by XML line-end normalisation on re-parse
    if _TEXT_NEEDS_ESCAPE.search(value) is None:
        return value
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def escape_attr(value: str) -> str:
    # \r, \n, \t must be character references: literal whitespace in an
    # attribute value is collapsed to spaces by attribute-value
    # normalisation on re-parse
    if _ATTR_NEEDS_ESCAPE.search(value) is None:
        return value
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
        .replace("\r", "&#13;")
    )


def _escaped(text: str) -> Iterator[str]:
    """escape_text window by window: it replaces single characters, so
    the windows' escapes concatenate to the escape of the whole."""
    for at in range(0, len(text), _TEXT_WINDOW):
        yield escape_text(text[at : at + _TEXT_WINDOW])


class _Scope:
    """One element's namespace declarations over its parent's."""

    __slots__ = ("parent", "decls", "bound")

    def __init__(self, parent: Optional["_Scope"], decls: dict[str, str]):
        self.parent = parent
        self.decls = dict(decls)  # this element's, in writing order
        self.bound = {**parent.bound, **decls} if parent is not None else dict(decls)

    def declare(self, prefix: str, uri: str) -> None:
        self.decls[prefix] = uri
        self.bound[prefix] = uri

    def resolve(self, prefix: str) -> Optional[str]:
        uri = self.bound.get(prefix)
        return XML_URI if uri is None and prefix == "xml" else uri

    def prefix_for(self, uri: str) -> Optional[str]:
        """Innermost prefix bound to *uri*: innermost scope first, each
        scope's declarations in order, shadowed prefixes skipped."""
        shadowed: set[str] = set()
        scope: Optional[_Scope] = self
        while scope is not None:
            for prefix, bound in scope.decls.items():
                if prefix in shadowed:
                    continue
                if bound == uri:
                    return prefix
                shadowed.add(prefix)
            scope = scope.parent
        return "xml" if uri == XML_URI else None


def _refusal(prefix: str, uri: str) -> Optional[str]:
    """Why Namespaces 1.0 forbids binding *prefix* to *uri*, if it does."""
    if prefix and not uri:
        return "a prefix cannot be undeclared"
    if prefix == "xmlns" or uri == XMLNS_URI or (prefix == "xml") != (uri == XML_URI):
        return "a reserved namespace binding"
    return None


class _Writer:
    def __init__(self, pretty: bool):
        self.pretty = pretty
        self.counter = 0

    def fresh_prefix(self, scope: _Scope) -> str:
        while True:
            self.counter += 1
            candidate = f"ns{self.counter}"
            if scope.resolve(candidate) is None:
                return candidate

    def prefix_of(self, scope: _Scope, q: QName, is_attr: bool) -> str:
        """The prefix *q* is written with, declaring one in *scope* if
        none is bound."""
        if not q.uri:
            # attributes never use the default namespace; an element in
            # no namespace must not inherit a non-empty default
            if not is_attr and scope.resolve(""):
                scope.declare("", "")
            return ""
        if q.prefix and scope.resolve(q.prefix) == q.uri:
            return q.prefix
        existing = scope.prefix_for(q.uri)
        if existing is not None and not (is_attr and existing == ""):
            return existing
        # need a declaration: use the hint if free, else generate
        prefix = q.prefix
        if not prefix or scope.resolve(prefix) is not None:
            prefix = self.fresh_prefix(scope)
        scope.declare(prefix, q.uri)
        return prefix

    def walk(self, elem: Element, parent: Optional[_Scope], depth: int) -> Iterator[str]:
        scope = _Scope(parent, elem.nsdecls)
        prefix = self.prefix_of(scope, elem.name, False)
        tag = f"{prefix}:{elem.name.local}" if prefix else elem.name.local
        attrs = ""
        for name, value in elem.attributes.items():
            prefix = self.prefix_of(scope, name, True)
            key = f"{prefix}:{name.local}" if prefix else name.local
            attrs += f' {key}="{escape_attr(value)}"'
        # declarations go before attributes: the element's own in its
        # order (a forced re-binding overriding in place), then the forced ones
        decls = ""
        for prefix, uri in scope.decls.items():
            key = f"xmlns:{prefix}" if prefix else "xmlns"
            decl = f'{key}="{escape_attr(uri)}"'
            refusal = _refusal(prefix, uri)
            if refusal:
                raise XmlSerializeError(f"{decl} on <{tag}>: {refusal}")
            decls += " " + decl

        pretty = self.pretty
        indent = "  " * depth if pretty else ""
        end = "\n" if pretty else ""
        content = elem.content
        if not content:
            yield f"{indent}<{tag}{decls}{attrs}/>{end}"
            return
        yield f"{indent}<{tag}{decls}{attrs}>"
        if all(isinstance(c, str) for c in content):
            for c in content:
                yield from _escaped(c)
            yield f"</{tag}>{end}"
            return
        if pretty:
            yield "\n"
        for c in content:
            if not isinstance(c, str):
                yield from self.walk(c, scope, depth + 1)
            elif not pretty:
                yield from _escaped(c)
            elif c.strip():
                yield "  " * (depth + 1)
                yield from _escaped(c.strip())
                yield "\n"
        yield f"{indent}</{tag}>{end}"


def _parts(elem: Element, pretty: bool, xml_declaration: bool) -> Iterator[str]:
    if xml_declaration:
        yield '<?xml version="1.0" encoding="utf-8"?>' + ("\n" if pretty else "")
    yield from _Writer(pretty).walk(elem, None, 0)


def serialize(
    elem: Element,
    *,
    pretty: bool = False,
    xml_declaration: bool = False,
) -> str:
    """Serialise *elem* (and subtree) to XML text.

    With ``pretty=True`` the output is indented; note pretty output
    inserts whitespace text nodes, so use it for humans, not for
    signature-sensitive exchange.
    """
    return "".join(_parts(elem, pretty, xml_declaration))


def iter_serialize(
    elem: Element,
    *,
    chunk_size: int = 64 * 1024,
    pretty: bool = False,
    xml_declaration: bool = False,
) -> Iterator[bytes]:
    """Serialise *elem* as UTF-8 byte chunks of roughly *chunk_size*
    (E16): peak memory is one chunk, not one document.

    ``b"".join(iter_serialize(e))`` is byte-identical to
    ``serialize(e).encode("utf-8")`` for every tree.
    """
    buf = bytearray()
    for part in _parts(elem, pretty, xml_declaration):
        buf += part.encode("utf-8")
        if len(buf) >= chunk_size:
            yield bytes(buf)
            buf = bytearray()
    if buf:
        yield bytes(buf)
