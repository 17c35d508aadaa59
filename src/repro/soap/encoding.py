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
discovered at runtime.

:func:`encode_value` / :func:`decode_value` are the element path and
the reference.  Beside them, for values that cross the wire without an
element tree: :func:`value_shape` (one walk: shape, slot texts,
attachments), :func:`value_plan` (shape -> the build plan of the same
element) and :func:`compile_readers` (build plan -> ``decode_value``
specialised per parameter).  All of them read the two scalar tables
below, so the ladder exists once in each direction.
"""

from __future__ import annotations

import base64
import dataclasses
from typing import Any, Callable, Optional

from repro.soap.attachments import Attachment, cid_of, resolve_attachment
from repro.xmlkit import Element, QName, ns
from repro.xmlkit.names import intern_qname, is_ncname

XSI_TYPE = QName(ns.XSI, "type", "xsi")
XSI_NIL = QName(ns.XSI, "nil", "xsi")
SOAPENC_ARRAY = QName(ns.SOAP_ENC, "Array", "soapenc")
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


def _boolean(text: str) -> bool:
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    raise ValueError(text)


#: The scalar ladder, written once.  Encode: exact type -> (``xsi:type``
#: text, text writer); ``bool`` sits before ``int`` because a subclass
#: instance takes the first row it is an instance of.  ``str.__str__``
#: is the identity on a ``str`` and the plain text of a subclass.
_SCALAR_WRITERS: dict[type, tuple[str, Callable[[Any], str]]] = {
    bool: ("xsd:boolean", ("false", "true").__getitem__),
    int: ("xsd:int", str),
    float: ("xsd:double", repr),
    str: ("xsd:string", str.__str__),
}
#: Decode: ``xsi:type`` local name -> (converter that raises ValueError,
#: what :func:`decode_value` calls a literal it refused).
_SCALAR_READERS: dict[str, tuple[Callable[[str], Any], str]] = {
    "string": (str, "string"),
    **dict.fromkeys(("int", "long", "short", "integer", "byte"), (int, "integer")),
    **dict.fromkeys(("double", "float", "decimal"), (float, "float")),
    "boolean": (_boolean, "boolean"),
}
_ITEM = QName("", "item")
_ARRAY = ({XSI_TYPE: "soapenc:Array"}, {"soapenc": ns.SOAP_ENC})
_STRUCT = ({XSI_TYPE: "soapenc:Struct"}, {"soapenc": ns.SOAP_ENC})
#: shapes of the two values that write no text: ``None`` and ``''``
NIL, EMPTY = "nil", "empty"


def _scalar_row(value: Any) -> Optional[tuple[str, Callable[[Any], str]]]:
    row = _SCALAR_WRITERS.get(value.__class__)
    if row is None:
        for base, row in _SCALAR_WRITERS.items():
            if isinstance(value, base):
                return row
        return None
    return row


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
    registry = registry or _EMPTY_REGISTRY
    if elem.get(XSI_NIL) in ("true", "1"):
        return None

    href = elem.get(HREF)
    if href is not None:
        content_id = cid_of(href)
        if content_id is not None:
            return resolve_attachment(content_id)

    type_text = elem.get(XSI_TYPE)
    if type_text is None:
        return _decode_untyped(elem, registry)

    try:
        type_qname = elem.resolve_qname_text(type_text)
    except ValueError:
        # Unresolvable prefix: fall back to the local part, which keeps
        # us liberal in what we accept from foreign stacks.
        _, _, local = type_text.rpartition(":")
        type_qname = QName("", local)

    local = type_qname.local
    text = elem.text
    row = _SCALAR_READERS.get(local)
    if row is not None:
        try:
            return row[0](text)
        except ValueError:
            raise EncodingError(f"bad {row[1]} literal: {text!r}") from None
    if local == "base64Binary":
        try:
            return base64.b64decode(text.encode("ascii"), validate=True)
        except Exception:
            raise EncodingError("bad base64 content") from None
    if local == "Array":
        return [decode_value(child, registry) for child in elem.children]
    if local == "Struct":
        return {child.name.local: decode_value(child, registry) for child in elem.children}

    cls = registry.type_of(local)
    if cls is not None:
        kwargs = {child.name.local: decode_value(child, registry) for child in elem.children}
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
            return [decode_value(c, registry) for c in elem.children]
        return {c.name.local: decode_value(c, registry) for c in elem.children}
    return elem.text


def primitive_xsi_type(value: Any) -> Optional[str]:
    """The ``xsi:type`` text :func:`encode_value` writes for a scalar
    *value*; None for anything the scalar table does not hold."""
    row = _scalar_row(value)
    return None if row is None else row[0]


def primitive_text(value: Any) -> Optional[str]:
    """The element text :func:`encode_value` writes for a scalar *value*."""
    row = _scalar_row(value)
    return None if row is None else row[1](value)


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
# values without an element tree: shapes, build plans and readers
# ----------------------------------------------------------------------
def value_shape(value: Any, texts: list, found: list[Attachment]) -> Optional[Any]:
    """The one walk over an outgoing *value*.

    Returns its **shape** — everything :func:`_encode_into` would write
    for it except the texts: ``NIL``, ``EMPTY``, a scalar's ``xsi:type``
    text, ``("struct", ((key, shape), ...))``, ``("array", (shape,
    ...))`` or, for a non-empty list of one exact scalar type,
    ``("group", xsi:type)`` whatever its length — and appends the slot
    texts to *texts* in document order (one list for a group).  Types
    are exact (``type()``, never ``isinstance``); None means the value
    has no shape and takes the element path.  Every
    :class:`Attachment` met, dataclass fields included, is appended to
    *found* once, in encoding order; a value with a shape has none.
    """
    kind = value.__class__
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
        exact = kind is list or kind is tuple
        kinds = set(map(type, value))
        if exact and len(kinds) == 1:
            item_kind = kinds.pop()
            row = _SCALAR_WRITERS.get(item_kind)
            if row is not None and not (item_kind is str and "" in value):
                texts.append(list(map(row[1], value)))
                return ("group", row[0])
        shapes = tuple([value_shape(item, texts, found) for item in value])
        if exact and None not in shapes:
            return ("array", shapes)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            value_shape(getattr(value, field.name), texts, found)
    elif isinstance(value, dict):
        shapes = tuple([(key, value_shape(item, texts, found)) for key, item in value.items()])
        if kind is dict and all(
            shape is not None and key.__class__ is str and is_ncname(key)
            for key, shape in shapes
        ):
            return ("struct", shapes)
    return None


def value_plan(name: QName, shape: Any, kinds: list) -> tuple:
    """The build plan (see ``envelope._grow``) of the element
    :func:`_encode_into` writes for a value of *shape*.  Slots are
    numbered in :func:`value_shape`'s text order; *kinds* receives each
    slot's ``(xsi:type text, is a group)``."""
    if shape == NIL:
        return (name, {XSI_NIL: "true"}, {}, ())
    if shape == EMPTY:
        return (name, {XSI_TYPE: "xsd:string"}, {}, ())
    if shape.__class__ is str:
        kinds.append((shape, False))
        return (name, {XSI_TYPE: shape}, {}, len(kinds) - 1)
    kind, inner = shape
    if kind == "struct":
        kids = tuple([value_plan(intern_qname("", key), sub, kinds) for key, sub in inner])
        return (name, *_STRUCT, kids)
    if kind == "array":
        return (name, *_ARRAY, tuple([value_plan(_ITEM, sub, kinds) for sub in inner]))
    kinds.append((inner, True))
    return (name, *_ARRAY, ((_ITEM, {XSI_TYPE: inner}, {}, -len(kinds)),))


def compile_readers(plan: tuple) -> Optional[tuple]:
    """``(parameter local name, reader)`` for each child of the RPC
    wrapper *plan* describes, a reader being :func:`decode_value`
    specialised on the plan's static attributes: ``reader(texts)`` is
    the parameter's value.  None when any parameter needs the element
    path: an ``href``, no ``xsi:type`` or one the scalar table, Array
    and Struct do not cover (a registered dataclass), a group anywhere
    but in an Array."""
    kids = plan[3]
    readers = []
    for kid in () if kids.__class__ is int else kids:
        if kid.__class__ is not str:
            reader = _reader(kid)
            if reader is None or _is_group(kid):
                return None
            readers.append((kid[0].local, reader))
    return tuple(readers)


def _is_group(plan: tuple) -> bool:
    return plan[3].__class__ is int and plan[3] < 0


def _reader(plan: tuple) -> Optional[Callable[[list], Any]]:
    _, attributes, _, kids = plan
    if attributes.get(XSI_NIL) in ("true", "1"):
        return None if _is_group(plan) else lambda texts: None
    type_text = attributes.get(XSI_TYPE)
    if type_text is None or HREF in attributes:
        return None
    # all decode_value takes from the resolved QName is its local part
    local = type_text.partition(":")[2] or type_text
    row = _SCALAR_READERS.get(local)
    if row is not None:
        convert = row[0]
        if kids.__class__ is not int:  # static content: convert it once
            try:
                value = convert("".join([kid for kid in kids if kid.__class__ is str]))
            except ValueError:
                return None
            return lambda texts: value
        if kids < 0:
            return lambda texts: list(map(convert, texts[~kids]))
        return lambda texts: convert(texts[kids])
    if local not in ("Array", "Struct") or kids.__class__ is int:
        return None
    parts = [
        (kid[0].local, _reader(kid), _is_group(kid)) for kid in kids if kid.__class__ is not str
    ]
    if any(reader is None for _, reader, _ in parts):
        return None
    if local == "Struct":
        if any(group for _, _, group in parts):
            return None
        return lambda texts: {name: reader(texts) for name, reader, _ in parts}
    if len(parts) == 1 and parts[0][2]:
        return parts[0][1]  # the whole array is one group

    def read_array(texts: list) -> list:
        out: list = []
        for _, reader, group in parts:
            if group:
                out += reader(texts)
            else:
                out.append(reader(texts))
        return out

    return read_array
