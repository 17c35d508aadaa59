"""Typed Python ⇄ XML value encoding.

The mapping follows the SOAP-encoding conventions Axis used:

=================  ===========================  =========================
Python             wire (``xsi:type``)          decoded back as
=================  ===========================  =========================
``str``            ``xsd:string``               ``str``
``int``            ``xsd:int``                  ``int``
``float``          ``xsd:double``               ``float``
``bool``           ``xsd:boolean``              ``bool``
``bytes``          ``xsd:base64Binary``         ``bytes``
``None``           ``xsi:nil="true"``           ``None``
``list``/``tuple`` ``soapenc:Array`` of item    ``list``
``dict``           anonymous struct             ``dict``
dataclass          registered complexType name  dataclass instance
=================  ===========================  =========================

Every element this module writes carries enough type information
(``xsi:type`` or nil) for the receiving side to decode without any
out-of-band schema, which is what lets WSPeer invoke services it only
discovered at runtime.  A **group** — a list of one scalar type — says
its item type once, as SOAP 1.1 §5.4.2 does: ``soapenc:arrayType=
"xsd:double[]"`` on the Array and untyped items; an item's own
``xsi:type`` still wins, so the form with typed items reads the same.

:func:`encode_value` / :func:`decode_value` are the element path and
the reference.  Values that cross the wire without an element tree take
one walk, :func:`value_shape`, whose shape :func:`value_tree` turns into
the tree of :mod:`repro.soap.shapes` that templates, grows and reads
them.  A ``str`` holding a code point XML 1.0 cannot carry raises
:class:`EncodingError` on either path, when the value is encoded.
"""

from __future__ import annotations

import base64
import dataclasses
import re
from typing import Any, Callable, Optional

from repro.soap.attachments import Attachment, cid_of, resolve_attachment
from repro.soap.shapes import SCALAR_READERS, SLOT, Group, array_item_type
from repro.xmlkit import Element, QName, ns
from repro.xmlkit.names import is_ncname

XSI_TYPE = QName(ns.XSI, "type", "xsi")
XSI_NIL = QName(ns.XSI, "nil", "xsi")
ARRAY_TYPE = QName(ns.SOAP_ENC, "arrayType", "soapenc")
HREF = QName("", "href")


class EncodingError(ValueError):
    """A value could not be encoded or an element could not be decoded."""


class StructRegistry:
    """Registry of dataclass types exchangeable as named complex types.

    Both ends register the same dataclasses (the analogue of sharing a
    schema); a registered type's instances serialise with
    ``xsi:type="tns:<Name>"`` and decode back to the dataclass.
    """

    def __init__(self, namespace: str = ns.WSPEER + "/types"):
        self.namespace = namespace
        self._by_name: dict[str, type] = {}
        self._by_type: dict[type, str] = {}

    def register(self, cls: type, name: Optional[str] = None) -> type:
        """Register *cls* (must be a dataclass).  Usable as a decorator."""
        if not dataclasses.is_dataclass(cls):
            raise EncodingError(f"{cls.__name__} is not a dataclass")
        name = name or cls.__name__
        self._by_name[name] = cls
        self._by_type[cls] = name
        return cls

    def name_of(self, cls: type) -> Optional[str]:
        return self._by_type.get(cls)

    def type_of(self, name: str) -> Optional[type]:
        return self._by_name.get(name)

    @property
    def names(self) -> list[str]:
        return sorted(self._by_name)


_EMPTY_REGISTRY = StructRegistry()


#: code points outside the XML 1.0 ``Char`` production: no conforming
#: parser accepts a document holding one, escaped or not
_NOT_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _xml_text(value: str) -> str:
    # a printable string holds no control, surrogate or noncharacter
    found = None if value.isprintable() else _NOT_XML_CHAR.search(value)
    if found is not None:
        raise EncodingError(
            f"U+{ord(found.group()):04X} at {found.start()} is not an XML 1.0 character"
        )
    return str.__str__(value)


#: The scalar ladder, written once.  Encode: exact type -> (``xsi:type``
#: text, text writer); ``bool`` sits before ``int`` because a subclass
#: instance takes the first row it is an instance of.  The ``str`` writer
#: is the plain text of a subclass too, and refuses what XML cannot carry.
#: Decode: :data:`repro.soap.shapes.SCALAR_READERS`.
_SCALAR_WRITERS: dict[type, tuple[str, Callable[[Any], str]]] = {
    bool: ("xsd:boolean", ("false", "true").__getitem__),
    int: ("xsd:int", str),
    float: ("xsd:double", repr),
    str: ("xsd:string", _xml_text),
}
_STRING = _SCALAR_WRITERS[str][0]
_ITEM = QName("", "item")
_ARRAY = ({XSI_TYPE: "soapenc:Array"}, {"soapenc": ns.SOAP_ENC})
_STRUCT = ({XSI_TYPE: "soapenc:Struct"}, {"soapenc": ns.SOAP_ENC})
#: the same, as parts of a shape tree
_XSI_TYPE = (ns.XSI, "type", "xsi")
_ITEM_NAME = ("", "item", "")
_NIL_ATTRS = (((ns.XSI, "nil", "xsi"), "true"),)
_ARRAY_TREE = (((_XSI_TYPE, "soapenc:Array"),), (("soapenc", ns.SOAP_ENC),))
_ARRAY_TYPE = (ns.SOAP_ENC, "arrayType", "soapenc")
#: a group's ``arrayType`` size: none, so every length has one shape
#: (§5.4.2: "the size may be determined by inspection of the actual members")
_ANY_SIZE = "[]"
_STRUCT_TREE = (((_XSI_TYPE, "soapenc:Struct"),), (("soapenc", ns.SOAP_ENC),))
#: shapes of the two values that write no text: ``None`` and ``''``
NIL, EMPTY = "nil", "empty"
#: the exact types of a value whose shape is one slot at most
SCALAR_TYPES = frozenset([*_SCALAR_WRITERS, type(None)])


def _scalar_row(value: Any) -> Optional[tuple[str, Callable[[Any], str]]]:
    row = _SCALAR_WRITERS.get(value.__class__)
    if row is None:
        for base, row in _SCALAR_WRITERS.items():
            if isinstance(value, base):
                return row
        return None
    return row


def _group_row(value: Any) -> Optional[tuple[str, Callable[[Any], str]]]:
    """The scalar row of a **group** — a non-empty ``list`` or ``tuple``
    (exact types) whose items are all one exact scalar type, no ``''``
    in a string list — else None.  A group names its item type once, in
    ``soapenc:arrayType``, and its items are untyped leaves."""
    kind = value.__class__
    if kind is not list and kind is not tuple:
        return None
    kinds = set(map(type, value))
    if len(kinds) != 1:
        return None
    item_kind = kinds.pop()
    row = _SCALAR_WRITERS.get(item_kind)
    return None if row is None or item_kind is str and "" in value else row


def encode_value(
    name: QName | str,
    value: Any,
    registry: Optional[StructRegistry] = None,
) -> Element:
    """Encode *value* into an element called *name* with type info."""
    registry = registry or _EMPTY_REGISTRY
    elem = Element(name)
    _encode_into(elem, value, registry)
    return elem


def _encode_into(elem: Element, value: Any, registry: StructRegistry) -> None:
    if value is None:
        elem.set(XSI_NIL, "true")
        return
    row = _scalar_row(value)
    if row is not None:
        elem.set(XSI_TYPE, row[0])
        elem.text = row[1](value)
        return
    if isinstance(value, Attachment):
        # SOAP-with-Attachments style (E16): the element is an empty
        # href reference; the raw bytes travel as a multipart part and
        # never pass through base64 or XML escaping.
        elem.set(HREF, value.href)
        return
    if isinstance(value, bytes):
        elem.set(XSI_TYPE, "xsd:base64Binary")
        elem.text = base64.b64encode(value).decode("ascii")
        return
    if isinstance(value, (list, tuple)):
        elem.attributes.update(_ARRAY[0])
        elem.nsdecls.update(_ARRAY[1])
        row = _group_row(value)
        if row is not None:
            elem.set(ARRAY_TYPE, row[0] + _ANY_SIZE)
            write = row[1]
            for item in value:
                elem.append(Element(_ITEM, text=write(item)))
            return
        for item in value:
            _encode_into(elem.append(Element(_ITEM)), item, registry)
        return
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        type_name = registry.name_of(type(value))
        if type_name is None:
            raise EncodingError(
                f"dataclass {type(value).__name__} is not registered; "
                "register it on both ends' StructRegistry"
            )
        elem.set(XSI_TYPE, f"tns:{type_name}")
        elem.nsdecls.setdefault("tns", registry.namespace)
        for field in dataclasses.fields(value):
            child = elem.add(field.name)
            _encode_into(child, getattr(value, field.name), registry)
        return
    if isinstance(value, dict):
        elem.attributes.update(_STRUCT[0])
        elem.nsdecls.update(_STRUCT[1])
        for key, item in value.items():
            if not isinstance(key, str):
                raise EncodingError(f"struct keys must be str, got {type(key).__name__}")
            child = elem.add(key)
            _encode_into(child, item, registry)
        return
    raise EncodingError(f"cannot encode value of type {type(value).__name__}")


def decode_value(
    elem: Element,
    registry: Optional[StructRegistry] = None,
) -> Any:
    """Decode an element produced by :func:`encode_value`."""
    return _decode(elem, registry or _EMPTY_REGISTRY, None)


def _type_local(elem: Element, text: str) -> str:
    """The local part of the QName *text* in *elem*'s scope."""
    try:
        return elem.resolve_qname_text(text).local
    except ValueError:
        # Unresolvable prefix: fall back to the local part, which keeps
        # us liberal in what we accept from foreign stacks.
        return text.rpartition(":")[2]


def _scalar(row: tuple, text: str) -> Any:
    try:
        return row[0](text)
    except ValueError:
        raise EncodingError(f"bad {row[1]} literal: {text!r}") from None


def _decode(elem: Element, registry: StructRegistry, item: Optional[tuple]) -> Any:
    """:func:`decode_value`; *item* is the :data:`SCALAR_READERS` row an
    *elem* without ``xsi:type`` takes: its Array's ``arrayType``."""
    if elem.get(XSI_NIL) in ("true", "1"):
        return None

    href = elem.get(HREF)
    if href is not None:
        content_id = cid_of(href)
        if content_id is not None:
            return resolve_attachment(content_id)

    type_text = elem.get(XSI_TYPE)
    if type_text is None:
        return _decode_untyped(elem, registry) if item is None else _scalar(item, elem.text)

    local = _type_local(elem, type_text)
    row = SCALAR_READERS.get(local)
    if row is not None:
        return _scalar(row, elem.text)
    if local == "base64Binary":
        try:
            return base64.b64decode(elem.text.encode("ascii"), validate=True)
        except Exception:
            raise EncodingError("bad base64 content") from None
    if local == "Array":
        atype = array_item_type(elem.get(ARRAY_TYPE))
        item = None if atype is None else SCALAR_READERS.get(_type_local(elem, atype))
        return [_decode(child, registry, item) for child in elem.children]
    if local == "Struct":
        return {child.name.local: _decode(child, registry, None) for child in elem.children}

    cls = registry.type_of(local)
    if cls is not None:
        kwargs = {child.name.local: _decode(child, registry, None) for child in elem.children}
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise EncodingError(f"cannot build {cls.__name__}: {exc}") from None

    raise EncodingError(f"unknown xsi:type {type_text!r}")


def _decode_untyped(elem: Element, registry: StructRegistry) -> Any:
    """Best-effort decoding when no xsi:type is present."""
    if elem.children:
        locals_seen = [c.name.local for c in elem.children]
        if all(local == "item" for local in locals_seen):
            return [_decode(c, registry, None) for c in elem.children]
        return {c.name.local: _decode(c, registry, None) for c in elem.children}
    return elem.text


def python_type_to_xsd(py_type: Any) -> str:
    """Map a Python annotation to an XSD type name for WSDL generation."""
    if py_type in _SCALAR_WRITERS:
        return _SCALAR_WRITERS[py_type][0]
    if py_type is bytes:
        return "xsd:base64Binary"
    if py_type in (list, tuple) or str(py_type).startswith(("list", "tuple", "typing.List")):
        return "soapenc:Array"
    if py_type is dict or str(py_type).startswith(("dict", "typing.Dict")):
        return "soapenc:Struct"
    if py_type is None or py_type is type(None):
        return "xsd:anyType"
    if dataclasses.is_dataclass(py_type):
        return f"tns:{py_type.__name__}"
    return "xsd:anyType"


# ----------------------------------------------------------------------
# values without an element tree: the value walk and the shape it derives
# ----------------------------------------------------------------------
def value_shape(value: Any, texts: list, found: list[Attachment]) -> Optional[Any]:
    """The one walk over an outgoing *value*: its **shape** — ``NIL``,
    ``EMPTY``, a scalar's ``xsi:type`` text, ``("struct", ((key, shape),
    ...))``, ``("array", (shape, ...))`` or, for a non-empty list of one
    exact scalar type, ``("group", xsi:type)`` — with its slot texts
    appended to *texts* (one list for a group).  Types are exact; None
    means no shape: the element path.  Every :class:`Attachment` met is
    appended to *found* once, in encoding order; a value with a shape
    has none.
    """
    kind = value.__class__
    if kind is dict:
        fields = []
        items = iter(value.items())
        for key, item in items:
            if item.__class__ is str and item and item.isprintable():
                texts.append(item)  # the common leaf: its own text, inline
                shape = _STRING
            else:
                row = _SCALAR_WRITERS.get(item.__class__)
                if row is not None and item != "":  # a scalar, walked inline
                    texts.append(row[1](item))
                    shape = row[0]
                else:
                    shape = value_shape(item, texts, found)
                    if shape is None:
                        break
            # an ASCII identifier is an NCName; the regex for the rest
            if key.__class__ is not str or not (key.isascii() and key.isidentifier() or is_ncname(key)):
                break
            fields.append((key, shape))
        else:
            return ("struct", tuple(fields))
        for _, item in items:  # no shape, but every value is walked
            value_shape(item, texts, found)
        return None
    row = _SCALAR_WRITERS.get(kind)
    if row is not None:
        if kind is str and not value:
            return EMPTY
        texts.append(row[1](value))
        return row[0]
    if value is None:
        return NIL
    if isinstance(value, Attachment):
        if value not in found:
            found.append(value)
    elif isinstance(value, (list, tuple)):
        row = _group_row(value)
        if row is not None:
            texts.append(list(map(row[1], value)))
            return ("group", row[0])
        shapes = tuple([value_shape(item, texts, found) for item in value]) if value else ()
        if (kind is list or kind is tuple) and None not in shapes:
            return ("array", shapes)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            value_shape(getattr(value, field.name), texts, found)
    elif isinstance(value, dict):
        for item in value.values():
            value_shape(item, texts, found)
    return None


def value_tree(name: tuple, shape: Any) -> tuple:
    """The shape tree (:mod:`repro.soap.shapes`) of the element called
    *name* — ``(uri, local, prefix)`` — that :func:`_encode_into` writes
    for a value of *shape*; its slots are :func:`value_shape`'s texts."""
    if shape == NIL:
        return (name, _NIL_ATTRS, (), ())
    if shape == EMPTY:
        return (name, ((_XSI_TYPE, "xsd:string"),), (), ())
    if shape.__class__ is str:
        return (name, ((_XSI_TYPE, shape),), (), SLOT)
    kind, inner = shape
    if kind == "struct":
        return (name, *_STRUCT_TREE, tuple([value_tree(("", key, ""), sub) for key, sub in inner]))
    if kind == "array":
        return (name, *_ARRAY_TREE, tuple([value_tree(_ITEM_NAME, sub) for sub in inner]))
    attributes = (*_ARRAY_TREE[0], (_ARRAY_TYPE, inner + _ANY_SIZE))
    return (name, attributes, _ARRAY_TREE[1], (Group((_ITEM_NAME, (), (), SLOT)),))


def rpc_tree(namespace: str, local: str, params: tuple) -> tuple:
    """The shape tree of the ``<tns:local xmlns:tns=namespace>`` RPC
    wrapper around parameters of the value shapes *params*
    (``((name, shape), ...)``, a struct's inside)."""
    return (
        (namespace, local, "tns"), (), (("tns", namespace),),
        tuple([value_tree(("", key, ""), sub) for key, sub in params]),
    )
