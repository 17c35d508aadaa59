"""The Element tree — the in-memory XML infoset."""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union
from weakref import ref

from repro.xmlkit.names import QName, intern_qname

NameLike = Union[QName, str]


def _as_qname(name: NameLike, default_uri: str = "") -> QName:
    if isinstance(name, QName):
        return name
    if name.startswith("{"):
        return QName.from_clark(name)
    return intern_qname(default_uri, name)


class Element:
    """A mutable XML element.

    Holds a :class:`QName`, an ordered attribute map keyed by QName,
    namespace declarations made *on this element* (prefix → URI), text
    content interleaved with child elements (stored as a content list),
    and a parent pointer maintained automatically.

    A parent owns its children; ``parent`` is a *weak* back-reference,
    so a tree holds no reference cycle and is freed the moment its root
    is dropped, without waiting for the cycle collector (four 66-element
    trees per call on a wide message otherwise).  Hold the root for as
    long as you navigate upwards: once it is gone, the ``parent`` of a
    surviving descendant reads ``None``.  :meth:`copy_with_scope`
    detaches a subtree with its in-scope namespaces intact.

    Content model: ``_content`` is a list whose items are ``str`` (text
    chunks) or :class:`Element`.  ``text`` is a convenience view over
    the concatenated text chunks.
    """

    __slots__ = ("name", "attributes", "nsdecls", "_content", "_parent", "__weakref__")

    def __init__(
        self,
        name: NameLike,
        *,
        attributes: Optional[dict[NameLike, str]] = None,
        text: Optional[str] = None,
        nsdecls: Optional[dict[str, str]] = None,
    ):
        self.name: QName = _as_qname(name)
        self.attributes: dict[QName, str] = {}
        if attributes:
            for k, v in attributes.items():
                self.attributes[_as_qname(k)] = str(v)
        self.nsdecls: dict[str, str] = dict(nsdecls or {})
        self._content: list[Union[str, "Element"]] = []
        self._parent: Optional[ref] = None
        if text:
            self._content.append(text)

    # ------------------------------------------------------------------
    # text handling
    # ------------------------------------------------------------------
    @property
    def text(self) -> str:
        """All direct text content, concatenated."""
        return "".join(c for c in self._content if isinstance(c, str))

    @text.setter
    def text(self, value: str) -> None:
        self._content = [c for c in self._content if isinstance(c, Element)]
        if value:
            self._content.insert(0, value)

    def full_text(self) -> str:
        """All descendant text, document order."""
        parts: list[str] = []
        for c in self._content:
            if isinstance(c, str):
                parts.append(c)
            else:
                parts.append(c.full_text())
        return "".join(parts)

    def append_text(self, chunk: str) -> None:
        if chunk:
            self._content.append(chunk)

    # ------------------------------------------------------------------
    # child handling
    # ------------------------------------------------------------------
    @property
    def children(self) -> list["Element"]:
        return [c for c in self._content if isinstance(c, Element)]

    @property
    def content(self) -> tuple[Union[str, "Element"], ...]:
        return tuple(self._content)

    @property
    def parent(self) -> Optional["Element"]:
        return None if self._parent is None else self._parent()

    def append(self, child: "Element") -> "Element":
        child._parent = ref(self)
        self._content.append(child)
        return child

    def extend(self, children: Iterable["Element"]) -> None:
        for c in children:
            self.append(c)

    def remove(self, child: "Element") -> None:
        self._content.remove(child)
        child._parent = None

    def add(self, tag: NameLike, text: Optional[str] = None, **attrs: str) -> "Element":
        """Create, append and return a child element (builder style).

        Keyword arguments become attributes, so attribute names that are
        common XML vocabulary (``name=``, ``type=``) stay usable.
        """
        child = Element(tag, text=text, attributes=attrs or None)
        return self.append(child)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def find(self, name: NameLike) -> Optional["Element"]:
        """First direct child whose name matches.

        A bare string with no namespace matches on local name alone,
        which keeps call sites terse inside single-vocabulary documents.
        """
        want = _as_qname(name)
        for c in self.children:
            if c.name == want or (want.uri == "" and c.name.local == want.local):
                return c
        return None

    def find_all(self, name: NameLike) -> list["Element"]:
        """All direct children whose name matches."""
        want = _as_qname(name)
        return [
            c
            for c in self.children
            if c.name == want or (want.uri == "" and c.name.local == want.local)
        ]

    def find_text(self, name: NameLike, default: str = "") -> str:
        child = self.find(name)
        return child.text if child is not None else default

    def iter(self) -> Iterator["Element"]:
        """Depth-first iteration over this element and all descendants."""
        yield self
        for c in self.children:
            yield from c.iter()

    def descendants(self, name: NameLike) -> list["Element"]:
        want = _as_qname(name)
        return [
            e
            for e in self.iter()
            if e.name == want or (want.uri == "" and e.name.local == want.local)
        ]

    # ------------------------------------------------------------------
    # attributes
    # ------------------------------------------------------------------
    def get(self, name: NameLike, default: Optional[str] = None) -> Optional[str]:
        want = _as_qname(name)
        if want in self.attributes:
            return self.attributes[want]
        if want.uri == "":
            for k, v in self.attributes.items():
                if k.local == want.local and k.uri == "":
                    return v
        return default

    def set(self, name: NameLike, value: str) -> None:
        self.attributes[_as_qname(name)] = str(value)

    # ------------------------------------------------------------------
    # namespace resolution
    # ------------------------------------------------------------------
    def namespace_for_prefix(self, prefix: str) -> Optional[str]:
        """Resolve *prefix* by walking ancestor nsdecls."""
        node: Optional[Element] = self
        while node is not None:
            if prefix in node.nsdecls:
                return node.nsdecls[prefix]
            node = node.parent
        return None

    def prefix_for_namespace(self, uri: str) -> Optional[str]:
        """Find an in-scope prefix bound to *uri* (innermost wins)."""
        node: Optional[Element] = self
        shadowed: set[str] = set()
        while node is not None:
            for prefix, bound in node.nsdecls.items():
                if prefix in shadowed:
                    continue
                if bound == uri:
                    return prefix
                shadowed.add(prefix)
            node = node.parent
        return None

    def resolve_qname_text(self, text: str) -> QName:
        """Resolve a ``prefix:local`` string in this element's scope.

        Used for QName-typed content such as WSDL ``message=`` values
        and ``xsi:type`` attributes.
        """
        if ":" in text:
            prefix, _, local = text.partition(":")
            uri = self.namespace_for_prefix(prefix)
            if uri is None:
                raise ValueError(f"undeclared prefix in QName content: {text!r}")
            return QName(uri, local, prefix)
        default = self.namespace_for_prefix("") or ""
        return QName(default, text)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def copy_with_scope(self) -> "Element":
        """Deep copy that folds all *in-scope* namespace declarations
        into the copy's own ``nsdecls``.

        Use when detaching a subtree from its document (e.g. pulling a
        header block out of a SOAP envelope): QName-valued content like
        ``xsi:type="xsd:int"`` keeps resolving after the parent chain is
        severed.
        """
        dup = self.copy()
        node: Optional[Element] = self.parent
        while node is not None:
            for prefix, uri in node.nsdecls.items():
                dup.nsdecls.setdefault(prefix, uri)
            node = node.parent
        return dup

    def copy(self) -> "Element":
        """Deep copy (parent pointer of the copy is None)."""
        dup = Element(self.name, nsdecls=dict(self.nsdecls))
        dup.attributes = dict(self.attributes)
        for c in self._content:
            if isinstance(c, str):
                dup._content.append(c)
            else:
                dup.append(c.copy())
        return dup

    def __repr__(self) -> str:
        return f"<Element {self.name} attrs={len(self.attributes)} children={len(self.children)}>"

    def __eq__(self, other: object) -> bool:
        """Structural equality: name, attributes, normalised content."""
        if not isinstance(other, Element):
            return NotImplemented
        if self.name != other.name or self.attributes != other.attributes:
            return False
        a = [c for c in self._content if isinstance(c, Element) or c.strip()]
        b = [c for c in other._content if isinstance(c, Element) or c.strip()]
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if isinstance(x, str) != isinstance(y, str):
                return False
            if isinstance(x, str):
                if x.strip() != y.strip():  # type: ignore[union-attr]
                    return False
            elif x != y:
                return False
        return True

    __hash__ = None  # type: ignore[assignment]
