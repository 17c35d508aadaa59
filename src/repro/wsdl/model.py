"""The WSDL 1.1 object model and its XML form.

:data:`FIELDS` says once what each item writes, where and in which
order; both readers and both writers walk it — the element path
(:meth:`WsdlDefinition.to_element`, ``parser.parse_wsdl_element``) and
the texts path (:meth:`WsdlDefinition.texts`, ``parser._read``).
Definitions of one *class* — the same elements, whatever the names,
namespace and locations in their attributes — share one wire template
(:mod:`repro.soap.shapes`) that :meth:`WsdlDefinition.to_wire` splices
the texts into; the element path draws each class's template once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

from repro.caching import ArtifactCache
from repro.soap.shapes import Wire, shape_of, template
from repro.xmlkit import Element, QName, ns, serialize

#: soap:binding transport URIs.  The HTTP one is the standard constant;
#: the P2PS one is this reproduction's identifier for pipe transport.
SOAP_HTTP_TRANSPORT = "http://schemas.xmlsoap.org/soap/http"
SOAP_HTTPG_TRANSPORT = "http://repro.wspeer/transports/httpg"
SOAP_P2PS_TRANSPORT = "http://repro.wspeer/transports/p2ps"


class WsdlError(ValueError):
    """Structurally invalid or unresolvable WSDL."""


def wsdl_name(local: str) -> QName:
    """The name of a WSDL 1.1 element, written with the ``wsdl`` prefix."""
    return QName(ns.WSDL, local, "wsdl")


def xsd_name(local: str) -> QName:
    """The name of an XML Schema element, written with the ``xsd`` prefix."""
    return QName(ns.XSD, local, "xsd")


@dataclass
class Part:
    """A message part: a named, typed slot."""

    name: str
    type_text: str  # e.g. "xsd:int", "tns:Point", "soapenc:Array"


@dataclass
class Message:
    name: str
    parts: list[Part] = field(default_factory=list)


@dataclass
class Operation:
    """An operation of a portType: input message → output message (None:
    a one-way, notification-style operation)."""

    name: str
    input: str  # message name (local, in target namespace)
    output: Optional[str] = None
    documentation: str = ""


@dataclass
class PortType:
    name: str
    operations: list[Operation] = field(default_factory=list)

    def operation(self, name: str) -> Optional[Operation]:
        return next((op for op in self.operations if op.name == name), None)


@dataclass
class Binding:
    """Concrete protocol binding of a portType."""

    name: str
    port_type: str  # portType name
    transport: str = SOAP_HTTP_TRANSPORT
    style: str = "rpc"


@dataclass
class Port:
    """An endpoint: binding + address."""

    name: str
    binding: str  # binding name
    location: str  # endpoint URI text (http://..., p2ps://...)


@dataclass
class Service:
    name: str
    ports: list[Port] = field(default_factory=list)

    def port(self, name: str) -> Optional[Port]:
        return next((port for port in self.ports if port.name == name), None)


#: a field every item writes; a name, which the element path requires;
#: an element the element path requires
REQUIRED, NAMED, NEEDED = object(), object(), object()


class Field(NamedTuple):
    """One text an item writes: its *attr*, in *attribute* (None: the
    text) of *element* (None: the item's own).  *ref* writes ``tns:``
    before it.  *absent* is REQUIRED or the value that is not written
    (``""``: written when true; None: when not None), which the class key
    flags.  *default* is what the element path reads when the element or
    attribute is missing; NAMED and NEEDED ones raise instead."""

    attr: str
    element: Optional[QName] = None
    attribute: Optional[str] = "name"
    ref: bool = False
    absent: Any = REQUIRED
    default: Any = NAMED


_SOAP_BINDING = QName(ns.WSDL_SOAP, "binding", "soap")
_SOAP_ADDRESS = QName(ns.WSDL_SOAP, "address", "soap")
#: Per kind of item: its element, its fields in document order, and its
#: children (list attribute, kind).
FIELDS: dict[type, tuple] = {
    Message: (wsdl_name("message"), (Field("name"),), ("parts", Part)),
    Part: (wsdl_name("part"), (Field("name"), Field("type_text", None, "type", default="xsd:anyType")), None),
    PortType: (wsdl_name("portType"), (Field("name"),), ("operations", Operation)),
    Operation: (wsdl_name("operation"), (
        Field("name"),
        Field("documentation", wsdl_name("documentation"), None, absent="", default=""),
        Field("input", wsdl_name("input"), "message", True, default=NEEDED),
        Field("output", wsdl_name("output"), "message", True, absent=None, default=""),
    ), None),
    Binding: (wsdl_name("binding"), (
        Field("name"),
        Field("port_type", None, "type", True, default=""),
        Field("transport", _SOAP_BINDING, "transport", default=SOAP_HTTP_TRANSPORT),
        Field("style", _SOAP_BINDING, "style", default="rpc"),
    ), None),
    Service: (wsdl_name("service"), (Field("name"),), ("ports", Port)),
    Port: (wsdl_name("port"), (
        Field("name"),
        Field("binding", None, "binding", True, default=""),
        Field("location", _SOAP_ADDRESS, "location", default=""),
    ), None),
}
#: a definition's tables in document order, with the kind of their items
SECTIONS = (("messages", Message), ("port_types", PortType), ("bindings", Binding), ("services", Service))


def _given(value: Any, absent: Any) -> bool:
    """Whether an optional field of value *value* is written."""
    return bool(value) if absent == "" else value is not None


def _write(items, kind: type, texts: list, key: list) -> None:
    _, fields, children = FIELDS[kind]
    key.append(len(items))
    for item in items:
        for f in fields:
            value = getattr(item, f.attr)
            if f.absent is not REQUIRED:
                key.append(_given(value, f.absent))
                if not key[-1]:
                    continue
            texts.append(f"tns:{value}" if f.ref else value)
        if children is not None:
            _write(getattr(item, children[0]), children[1], texts, key)


def _element(parent: Element, item, kind: type) -> None:
    tag, fields, children = FIELDS[kind]
    own, inner = {}, {}
    for f in fields:
        value = getattr(item, f.attr)
        if f.absent is REQUIRED or _given(value, f.absent):
            (own if f.element is None else inner.setdefault(f.element, {}))[f.attribute] = (
                f"tns:{value}" if f.ref else value
            )
    elem = parent.add(tag, **own)
    for element, attributes in inner.items():
        elem.add(element, text=attributes.pop(None, None), **attributes)
    for child in getattr(item, children[0]) if children else ():
        _element(elem, child, children[1])


class WsdlDefinition:
    """A complete WSDL document."""

    def __init__(self, name: str, target_namespace: str):
        self.name = name
        self.target_namespace = target_namespace
        self.messages: dict[str, Message] = {}
        self.port_types: dict[str, PortType] = {}
        self.bindings: dict[str, Binding] = {}
        self.services: dict[str, Service] = {}
        #: named complexTypes (the <wsdl:types> schema):
        #: type name -> ordered (field name, type text) pairs
        self.schema_types: dict[str, list[tuple[str, str]]] = {}

    def add_schema_type(self, name: str, fields: list[tuple[str, str]]) -> None:
        if name in self.schema_types:
            raise WsdlError(f"duplicate schema type {name!r}")
        self.schema_types[name] = list(fields)

    @staticmethod
    def _add(table: dict, item, kind: str):
        if item.name in table:
            raise WsdlError(f"duplicate {kind} {item.name!r}")
        table[item.name] = item
        return item

    def add_message(self, message: Message) -> Message:
        return self._add(self.messages, message, "message")

    def add_port_type(self, port_type: PortType) -> PortType:
        return self._add(self.port_types, port_type, "portType")

    def add_binding(self, binding: Binding) -> Binding:
        return self._add(self.bindings, binding, "binding")

    def add_service(self, service: Service) -> Service:
        return self._add(self.services, service, "service")

    def first_service(self) -> Service:
        if not self.services:
            raise WsdlError("definition has no service")
        return next(iter(self.services.values()))

    def port_type_for_port(self, port: Port) -> PortType:
        binding = self.bindings.get(port.binding)
        if binding is None:
            raise WsdlError(f"port {port.name!r} references unknown binding {port.binding!r}")
        port_type = self.port_types.get(binding.port_type)
        if port_type is None:
            raise WsdlError(f"binding {binding.name!r} references unknown portType {binding.port_type!r}")
        return port_type

    def to_element(self) -> Element:
        root = Element(
            wsdl_name("definitions"),
            attributes={"name": self.name, "targetNamespace": self.target_namespace},
            nsdecls={"wsdl": ns.WSDL, "soap": ns.WSDL_SOAP, "xsd": ns.XSD,
                     "soapenc": ns.SOAP_ENC, "tns": self.target_namespace},
        )
        if self.schema_types:
            schema = root.add(wsdl_name("types")).add(xsd_name("schema"))
            schema.set("targetNamespace", self.target_namespace)
            for type_name, fields in self.schema_types.items():
                sequence = schema.add(xsd_name("complexType"), name=type_name).add(xsd_name("sequence"))
                for field_name, field_type in fields:
                    sequence.add(xsd_name("element"), name=field_name, type=field_type)
        for table, kind in SECTIONS:
            for item in getattr(self, table).values():
                _element(root, item, kind)
        return root

    def texts(self) -> tuple[tuple, list[str]]:
        """``(class key, texts)`` from one walk of :data:`FIELDS`: the
        ``tns`` declaration and every attribute value (and documentation)
        in the order :meth:`to_element` writes them, as strings (an
        element's attributes are), and the counts and flags that say which
        elements it writes."""
        texts = [self.target_namespace, self.name, self.target_namespace]
        key = [tuple(map(len, self.schema_types.values())) if self.schema_types else None]
        if self.schema_types:
            texts.append(self.target_namespace)
            for type_name, fields in self.schema_types.items():
                texts += (type_name, *(text for pair in fields for text in pair))
        for table, kind in SECTIONS:
            _write(getattr(self, table).values(), kind, texts, key)
        return tuple(key), list(map(str, texts))

    def to_wire(self, pretty: bool = False) -> str:
        if not pretty:
            key, texts = self.texts()
            wire = class_template(self, key)
            wire = None if wire is None else wire.render(texts)
            if wire is not None:
                return wire
        return serialize(self.to_element(), pretty=pretty, xml_declaration=True)

    def __repr__(self) -> str:
        return f"<WsdlDefinition {self.name!r} messages={len(self.messages)} services={len(self.services)}>"


#: Wire templates of definitions by class key, shared by ``to_wire`` and
#: the skeletons ``parse_wsdl`` learns.
wsdl_templates = ArtifactCache("wsdl-templates", 64)


def class_template(definition: WsdlDefinition, key: tuple) -> Optional[Wire]:
    """The template of *definition*'s class *key*, drawn from its element
    tree on a miss; None (not cached) when that tree has no shape."""
    wire = wsdl_templates.get(key)
    if wire is None:
        node = shape_of(definition.to_element(), [], values={"tns"})
        wire = None if node is None else template(node)
        if wire is not None:
            wsdl_templates.put(key, wire)
    return wire
