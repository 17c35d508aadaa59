"""Parser: token stream → Element tree, with namespace resolution."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.xmlkit.element import Element
from repro.xmlkit.errors import XmlParseError, XmlWellFormednessError
from repro.xmlkit.names import XML_URI, intern_qname, split_prefixed
from repro.xmlkit.tokenizer import Token, TokenType, Tokenizer

_MISSING = object()


class _NsScope:
    """Prefix → URI bindings mirroring the open-element stack.

    Kept as one flat dict plus an undo journal per frame, so
    :meth:`resolve` is a single dict lookup instead of a walk up the
    frame stack.
    """

    __slots__ = ("_flat", "_undo")

    def __init__(self) -> None:
        self._flat: dict[str, object] = {"xml": XML_URI, "": ""}
        self._undo: list[list[tuple[str, object]]] = []

    def push(self, decls: dict[str, str]) -> None:
        """Enter a frame for non-empty *decls*.  Decl-less elements skip
        push/pop entirely (the caller gates on truthiness)."""
        flat = self._flat
        undo = [(prefix, flat.get(prefix, _MISSING)) for prefix in decls]
        flat.update(decls)
        self._undo.append(undo)

    def pop(self) -> None:
        undo = self._undo.pop()
        flat = self._flat
        for prefix, old in reversed(undo):
            if old is _MISSING:
                del flat[prefix]
            else:
                flat[prefix] = old

    def resolve(self, prefix: str) -> Optional[str]:
        return self._flat.get(prefix)


_NO_DECLS: dict[str, str] = {}


def _split_tag_attrs(token: Token) -> tuple[dict[str, str], list[tuple[str, str]]]:
    """Separate xmlns declarations from ordinary attributes."""
    attrs = token.attrs
    if not attrs:
        return _NO_DECLS, attrs
    if len(attrs) == 1:
        # single attribute: no duplicate possible, one startswith test
        name, value = attrs[0]
        if not name.startswith("xmlns"):
            return _NO_DECLS, attrs
        if name == "xmlns":
            return {"": value}, []
        if name[5] == ":":
            prefix = name[6:]
            if not prefix:
                raise XmlWellFormednessError(
                    "empty xmlns prefix", token.line, token.column
                )
            return {prefix: value}, []
        return _NO_DECLS, attrs
    nsdecls: dict[str, str] = {}
    plain: list[tuple[str, str]] = []
    seen: set[str] = set()
    for name, value in attrs:
        if name in seen:
            raise XmlWellFormednessError(
                f"duplicate attribute {name!r}", token.line, token.column
            )
        seen.add(name)
        if not name.startswith("xmlns"):
            plain.append((name, value))
        elif name == "xmlns":
            nsdecls[""] = value
        elif name[5] == ":":
            prefix = name[6:]
            if not prefix:
                raise XmlWellFormednessError("empty xmlns prefix", token.line, token.column)
            nsdecls[prefix] = value
        else:
            plain.append((name, value))
    return nsdecls, plain


def _resolve_element(token: Token, scope: _NsScope) -> Element:
    nsdecls, plain_attrs = _split_tag_attrs(token)
    if nsdecls:
        scope.push(nsdecls)
    try:
        prefix, local = split_prefixed(token.value)
        uri = scope.resolve(prefix)
        if uri is None:
            raise XmlWellFormednessError(
                f"undeclared namespace prefix {prefix!r} on element <{token.value}>",
                token.line,
                token.column,
            )
        elem = Element(intern_qname(uri, local, prefix), nsdecls=nsdecls)
        for aname, avalue in plain_attrs:
            aprefix, alocal = split_prefixed(aname)
            if aprefix:
                auri = scope.resolve(aprefix)
                if auri is None:
                    raise XmlWellFormednessError(
                        f"undeclared namespace prefix {aprefix!r} on attribute {aname!r}",
                        token.line,
                        token.column,
                    )
            else:
                auri = ""  # unprefixed attributes are in no namespace
            elem.attributes[intern_qname(auri, alocal, aprefix)] = avalue
        return elem
    except Exception:
        if nsdecls:
            scope.pop()
        raise


class _TreeBuilder:
    """Token stream → Element tree: the one place namespace scope, the
    root/stack checks and the mismatched-tag and declaration errors are
    written.  :func:`parse` feeds it a whole document's tokens in one
    :meth:`consume`; :class:`~repro.xmlkit.stream.FeedParser` feeds it
    piece by piece."""

    __slots__ = ("root", "_stack", "_scope")

    def __init__(self) -> None:
        self.root: Optional[Element] = None
        self._stack: list[Element] = []
        self._scope = _NsScope()

    def consume(self, tokens: Iterable[Token], continuation: bool = False) -> None:
        """Build from *tokens*.  With *continuation* the first token is
        the rest of a text run whose head an earlier call appended, and
        is merged into that content node."""
        root, stack, scope = self.root, self._stack, self._scope
        _START, _END, _TEXT = TokenType.START_TAG, TokenType.END_TAG, TokenType.TEXT
        for token in tokens:
            ttype = token.type
            if ttype is _START:
                if root is not None and not stack:
                    raise XmlWellFormednessError(
                        "multiple root elements", token.line, token.column
                    )
                elem = _resolve_element(token, scope)
                if stack:
                    stack[-1].append(elem)
                else:
                    self.root = root = elem
                if token.self_closing:
                    if elem.nsdecls:
                        scope.pop()
                else:
                    stack.append(elem)
            elif ttype is _TEXT:
                chunk = token.value
                if not stack:
                    if chunk.strip():
                        where = "before" if root is None else "after"
                        raise XmlWellFormednessError(
                            f"character data {where} root element", token.line, token.column
                        )
                    continue
                content = stack[-1]._content
                if continuation and content and isinstance(content[-1], str):
                    content[-1] += chunk
                elif chunk:
                    content.append(chunk)
                continuation = False
            elif ttype is _END:
                if not stack:
                    raise XmlWellFormednessError(
                        f"unexpected closing tag </{token.value}>", token.line, token.column
                    )
                open_elem = stack.pop()
                prefix, local = split_prefixed(token.value)
                if open_elem.name.local != local or open_elem.name.prefix != prefix:
                    raise XmlWellFormednessError(
                        f"mismatched closing tag </{token.value}>; "
                        f"open element is <{open_elem.name.prefix + ':' if open_elem.name.prefix else ''}{open_elem.name.local}>",
                        token.line,
                        token.column,
                    )
                if open_elem.nsdecls:
                    scope.pop()
            elif ttype is TokenType.DECLARATION:
                if root is not None or stack:
                    raise XmlParseError("XML declaration after content", token.line, token.column)
            # COMMENT / PI carry no structure

    def close(self) -> Element:
        """The finished tree; raises unless exactly one root was closed."""
        if self._stack:
            raise XmlWellFormednessError(f"unclosed element <{self._stack[-1].name.local}>")
        if self.root is None:
            raise XmlParseError("no root element found")
        return self.root


def parse(text: str) -> Element:
    """Parse an XML *document*: exactly one root element."""
    builder = _TreeBuilder()
    builder.consume(Tokenizer(text).tokens())
    return builder.close()


#: The same function under the name call sites use for an embedded
#: fragment (an advert inside a SOAP header): a single element either way.
parse_fragment = parse
