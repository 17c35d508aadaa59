"""Serialiser: Element tree → XML text.

The serialiser guarantees the output re-parses to a structurally equal
tree (the round-trip property the test suite checks with hypothesis).
Namespace handling: explicit ``nsdecls`` on elements are honoured;
elements or attributes whose namespace URI has no in-scope prefix get a
generated ``ns<N>`` declaration at the point of use.

Namespace scopes are *flattened* — each :class:`_Scope` carries
complete ``prefix → uri`` and ``uri → prefix`` dicts, so
:meth:`_Scope.resolve` and :meth:`_Scope.prefix_for` are single dict
lookups instead of ancestor-chain walks.  Scopes that declare nothing
share their parent's dicts (copy-on-write), so the common body element
costs no allocation at all.  Prefix *choice* is byte-identical to a
plain chain-walking search — innermost scope first, each scope's
declarations in insertion order; that reference implementation is the
test suite's oracle (``tests/_oracle``), and the property tests diff
the two outputs.

This is the only serializer: :func:`serialize` appends to a parts list,
:func:`repro.xmlkit.stream.iter_serialize` yields instead, and both get
every open tag from :meth:`_Serializer._open_tag`.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.xmlkit.element import Element
from repro.xmlkit.errors import XmlSerializeError
from repro.xmlkit.names import QName, XML_URI

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


class _Scope:
    """One element's namespace scope, flattened for O(1) lookups.

    ``local`` holds only this scope's declarations (insertion-ordered,
    mirroring the reference implementation's per-scope dict), ``flat``
    the innermost binding of every in-scope prefix, and ``by_uri`` the
    prefix the reference algorithm's innermost-first search would
    return for every in-scope URI.
    """

    __slots__ = ("parent", "local", "flat", "by_uri", "_owned", "_child_memo")

    #: cap on each scope's child memo, so adversarial inputs with
    #: unbounded declaration vocabularies cannot grow it without limit
    _MEMO_MAX = 64

    def __init__(
        self,
        parent: Optional["_Scope"] = None,
        decls: Optional[dict[str, str]] = None,
    ):
        self.parent = parent
        self._child_memo: Optional[dict] = None
        if decls:
            self.local: dict[str, str] = dict(decls)
            if parent is not None:
                parent_flat = parent.flat
                flat = dict(parent_flat)
                flat.update(decls)
                self.flat = flat
                # Incremental winner update: a local binding wins its URI
                # (innermost-first); the full replay is needed only when
                # re-binding a prefix dethrones it as an ancestor winner.
                parent_by_uri = parent.by_uri
                for prefix, uri in decls.items():
                    old = parent_flat.get(prefix)
                    if old is not None and old != uri and parent_by_uri.get(old) == prefix:
                        self.by_uri = self._build_by_uri()
                        break
                else:
                    by_uri = dict(parent_by_uri)
                    won: set[str] = set()
                    for prefix, uri in decls.items():
                        if uri not in won:  # first local binding wins
                            by_uri[uri] = prefix
                            won.add(uri)
                    self.by_uri = by_uri
            else:
                self.flat = dict(decls)
                by_uri = {}
                for prefix, uri in decls.items():
                    if uri not in by_uri:
                        by_uri[uri] = prefix
                self.by_uri = by_uri
            self._owned = True
        else:
            self.local = {}
            self.flat = parent.flat if parent is not None else {}
            self.by_uri = parent.by_uri if parent is not None else {}
            self._owned = parent is None

    @classmethod
    def shared(cls, parent: "_Scope", decls: dict[str, str]) -> "_Scope":
        """The memoised child scope of *parent* for *decls*.

        Sibling elements routinely carry identical declaration dicts
        (every wsa: header block), and with the persistent root scope
        the whole scope tree of a recurring document shape is built
        exactly once per process.  Returned scopes are SHARED — callers
        must never mutate them (``_open_tag`` rebuilds a private
        equivalent before any ``declare``).
        """
        memo = parent._child_memo
        if memo is None:
            memo = parent._child_memo = {}
        key = tuple(decls.items())
        scope = memo.get(key)
        if scope is None:
            if len(memo) >= cls._MEMO_MAX:
                memo.clear()
            scope = cls(parent, decls)
            memo[key] = scope
        return scope

    def _build_by_uri(self) -> dict[str, str]:
        """Replay the reference search order: innermost scope first, each
        scope's declarations in insertion order, shadowed prefixes skipped."""
        by_uri: dict[str, str] = {}
        seen: set[str] = set()
        scope: Optional[_Scope] = self
        while scope is not None:
            for prefix, uri in scope.local.items():
                if prefix in seen:
                    continue
                seen.add(prefix)
                if uri not in by_uri:
                    by_uri[uri] = prefix
            scope = scope.parent
        return by_uri

    # ------------------------------------------------------------------
    def resolve(self, prefix: str) -> Optional[str]:
        uri = self.flat.get(prefix)
        if uri is None and prefix == "xml" and "xml" not in self.flat:
            return XML_URI
        return uri

    def prefix_for(self, uri: str) -> Optional[str]:
        """Innermost prefix bound to *uri*, honouring shadowing."""
        prefix = self.by_uri.get(uri)
        if prefix is None and uri == XML_URI:
            return "xml"
        return prefix

    def declare(self, prefix: str, uri: str) -> None:
        """Bind *prefix* at the end of this scope's declarations, exactly
        where the reference implementation appends it."""
        if not self._owned:
            self.local = dict(self.local)
            self.flat = dict(self.flat)
            self.by_uri = dict(self.by_uri)
            self._owned = True
        if prefix in self.flat:
            # Re-binding an in-scope prefix — overwriting this scope's
            # own declaration (the default-namespace undeclare) or
            # shadowing an ancestor's — dethrones it as the winner for
            # its old URI; replay the search (rare branch).
            self.local[prefix] = uri
            self.flat[prefix] = uri
            self.by_uri = self._build_by_uri()
            return
        self.local[prefix] = uri
        self.flat[prefix] = uri
        current = self.by_uri.get(uri)
        if current is None:
            self.by_uri[uri] = prefix
        elif current != prefix and current not in self.local:
            # The old winner lives in an ancestor scope; the new local
            # binding comes earlier in the reference search order.
            self.by_uri[uri] = prefix


class _Serializer:
    def __init__(self, pretty: bool):
        self.pretty = pretty
        self.counter = 0
        self.parts: list[str] = []

    def fresh_prefix(self, scope: _Scope) -> str:
        while True:
            self.counter += 1
            candidate = f"ns{self.counter}"
            if scope.resolve(candidate) is None:
                return candidate

    def _declare(
        self, st: list, parent_scope: _Scope, nsdecls: dict, prefix: str, uri: str
    ) -> None:
        """Bind *prefix* in the element state *st* = [scope, owned, extras].

        Materialises a private scope on first declaration so the
        mutation cannot pollute the shared memoised scope tree.
        """
        scope = st[0]
        if not st[1]:
            scope = _Scope(parent_scope, nsdecls) if nsdecls else _Scope(scope)
            st[0] = scope
            st[1] = True
        if st[2] is None:
            st[2] = {}
        st[2][prefix] = uri
        scope.declare(prefix, uri)

    def _prefix_of(
        self, st: list, parent_scope: _Scope, nsdecls: dict, q: QName, is_attr: bool
    ) -> str:
        """The full resolution cascade, byte-compatible with the
        reference implementation.  ``_open_tag`` inlines the two hot
        cases (no namespace, hint already bound) and only falls back
        here; after any call the caller must re-read ``st[0]`` because
        a declaration replaces the shared scope with a private one."""
        scope = st[0]
        if q.uri == "":
            # Attributes never use the default namespace; elements in
            # no namespace must not inherit a non-empty default.
            if not is_attr and scope.resolve("") not in (None, ""):
                self._declare(st, parent_scope, nsdecls, "", "")
            return ""
        # honour the hint when it is already bound correctly
        if q.prefix and scope.resolve(q.prefix) == q.uri:
            return q.prefix
        existing = scope.prefix_for(q.uri)
        if existing is not None and not (is_attr and existing == ""):
            return existing
        # need a declaration: use the hint if free, else generate
        prefix = q.prefix if (q.prefix and scope.resolve(q.prefix) is None) else ""
        if not prefix or (is_attr and prefix == ""):
            prefix = self.fresh_prefix(scope)
        self._declare(st, parent_scope, nsdecls, prefix, q.uri)
        return prefix

    def _open_tag(
        self, elem: Element, parent_scope: _Scope, depth: int
    ) -> tuple[str, str, _Scope]:
        """``(open tag short of its closing '>' or '/>', qualified tag
        name, scope for the children)`` — the prefix, xmlns and attribute
        assembly shared by the batch and streaming serializers."""
        nsdecls = elem.nsdecls
        # Elements that declare nothing share the parent scope object
        # outright, and decl-bearing elements share the memoised scope
        # tree; a private scope is materialised only if an undeclared-
        # namespace resolution forces a declaration.
        if nsdecls:
            scope = _Scope.shared(parent_scope, nsdecls)
        else:
            scope = parent_scope
        # [scope, owned, extra_decls] — mutated only by _declare
        st = [scope, False, None]

        q = elem.name
        flat = scope.flat
        if q.uri:
            tag_prefix = q.prefix
            if not tag_prefix or flat.get(tag_prefix) != q.uri:
                tag_prefix = self._prefix_of(st, parent_scope, nsdecls, q, False)
                flat = st[0].flat
        else:
            tag_prefix = ""
            default = flat.get("")
            if default is not None and default != "":
                self._declare(st, parent_scope, nsdecls, "", "")
                flat = st[0].flat
        tag = f"{tag_prefix}:{q.local}" if tag_prefix else q.local

        attrs = ""
        if elem.attributes:
            for aname, avalue in elem.attributes.items():
                if not aname.uri:
                    ap = ""
                else:
                    ap = aname.prefix
                    if not ap or flat.get(ap) != aname.uri:
                        ap = self._prefix_of(st, parent_scope, nsdecls, aname, True)
                        flat = st[0].flat
                key = f"{ap}:{aname.local}" if ap else aname.local
                attrs += f' {key}="{escape_attr(avalue)}"'

        # declarations go before attributes: the element's own in its
        # order (a forced re-binding overriding in place), then the forced
        head = f"{'  ' * depth}<{tag}" if self.pretty else f"<{tag}"
        extra_decls = st[2]
        decls = {**nsdecls, **extra_decls} if extra_decls else nsdecls
        for prefix, uri in decls.items():
            if not uri and prefix:
                raise XmlSerializeError(f'xmlns:{prefix}="" on <{tag}>: a prefix cannot be undeclared')
            key = f"xmlns:{prefix}" if prefix else "xmlns"
            head += f' {key}="{escape_attr(uri)}"'
        return head + attrs, tag, st[0]

    def element(self, elem: Element, parent_scope: _Scope, depth: int) -> None:
        open_tag, tag, scope = self._open_tag(elem, parent_scope, depth)
        content = elem.content
        if not content:
            self.parts.append(open_tag + "/>")
            if self.pretty:
                self.parts.append("\n")
            return

        only_text = all(isinstance(c, str) for c in content)
        self.parts.append(open_tag + ">")
        if only_text:
            self.parts.append(escape_text(elem.text))
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
                        self.parts.append("  " * (depth + 1) + escape_text(c.strip()) + "\n")
                else:
                    self.parts.append(escape_text(c))
            else:
                self.element(c, scope, depth + 1)
        self.parts.append(("  " * depth if self.pretty else "") + f"</{tag}>")
        if self.pretty:
            self.parts.append("\n")


#: The persistent document root scope.  Every serialisation starts
#: here, so the child-scope memo hanging off it (and off its cached
#: descendants) survives across calls: a recurring document shape —
#: every SOAP envelope this stack emits — flattens its scope tree
#: exactly once per process.  The root itself is never mutated
#: (``_open_tag`` materialises a private scope before any declare).
_ROOT_SCOPE = _Scope()


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
    ser = _Serializer(pretty)
    ser.element(elem, _ROOT_SCOPE, 0)
    body = "".join(ser.parts)
    if pretty:
        body = body.rstrip("\n") + "\n"
    if xml_declaration:
        return '<?xml version="1.0" encoding="utf-8"?>' + ("\n" if pretty else "") + body
    return body
