"""The WSDL 1.1 object model and its XML form.

Definitions of one *class* — the same elements, whatever the names,
namespace and locations in their attributes — share one wire template
(:mod:`repro.soap.shapes`): :meth:`WsdlDefinition.to_wire` splices the
texts of one walk of the model (:meth:`WsdlDefinition.texts`) into it.
:meth:`WsdlDefinition.to_element` is the slow path it equals, and draws
each class's template once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
    """An operation of a portType: input message → output message.

    ``output`` of None models a one-way (notification-style) operation.
    """

    name: str
    input: str  # message name (local, in target namespace)
    output: Optional[str] = None
    documentation: str = ""


@dataclass
class PortType:
    name: str
    operations: list[Operation] = field(default_factory=list)

    def operation(self, name: str) -> Optional[Operation]:
        for op in self.operations:
            if op.name == name:
                return op
        return None


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
        for p in self.ports:
            if p.name == name:
                return p
        return None


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

    # -- construction helpers ------------------------------------------------
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

    # -- navigation ------------------------------------------------------------
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
            raise WsdlError(
                f"binding {binding.name!r} references unknown portType {binding.port_type!r}"
            )
        return port_type

    # -- XML form ------------------------------------------------------------
    def to_element(self) -> Element:
        root = Element(
            wsdl_name("definitions"),
            attributes={"name": self.name, "targetNamespace": self.target_namespace},
            nsdecls={
                "wsdl": ns.WSDL,
                "soap": ns.WSDL_SOAP,
                "xsd": ns.XSD,
                "soapenc": ns.SOAP_ENC,
                "tns": self.target_namespace,
            },
        )
        if self.schema_types:
            types = root.add(wsdl_name("types"))
            schema = types.add(
                QName(ns.XSD, "schema", "xsd"),
                targetNamespace=self.target_namespace,
            )
            for type_name, fields in self.schema_types.items():
                complex_type = schema.add(
                    QName(ns.XSD, "complexType", "xsd"), name=type_name
                )
                sequence = complex_type.add(QName(ns.XSD, "sequence", "xsd"))
                for field_name, field_type in fields:
                    sequence.add(
                        QName(ns.XSD, "element", "xsd"),
                        name=field_name,
                        type=field_type,
                    )
        for message in self.messages.values():
            m = root.add(wsdl_name("message"), name=message.name)
            for part in message.parts:
                m.add(wsdl_name("part"), name=part.name, type=part.type_text)
        for port_type in self.port_types.values():
            pt = root.add(wsdl_name("portType"), name=port_type.name)
            for op in port_type.operations:
                o = pt.add(wsdl_name("operation"), name=op.name)
                if op.documentation:
                    o.add(wsdl_name("documentation"), text=op.documentation)
                o.add(wsdl_name("input"), message=f"tns:{op.input}")
                if op.output is not None:
                    o.add(wsdl_name("output"), message=f"tns:{op.output}")
        for binding in self.bindings.values():
            b = root.add(
                wsdl_name("binding"),
                name=binding.name,
                type=f"tns:{binding.port_type}",
            )
            b.add(
                QName(ns.WSDL_SOAP, "binding", "soap"),
                transport=binding.transport,
                style=binding.style,
            )
        for service in self.services.values():
            s = root.add(wsdl_name("service"), name=service.name)
            for port in service.ports:
                p = s.add(
                    wsdl_name("port"),
                    name=port.name,
                    binding=f"tns:{port.binding}",
                )
                p.add(QName(ns.WSDL_SOAP, "address", "soap"), location=port.location)
        return root

    def texts(self) -> tuple[tuple, list[str]]:
        """``(class key, texts)`` from one walk of the model: the ``tns``
        declaration and every attribute value (and documentation) in the
        order :meth:`to_element` writes them, as strings (an element's
        attributes are), and the counts and flags that say which elements
        it writes."""
        texts = [self.target_namespace, self.name, self.target_namespace]
        if self.schema_types:
            texts.append(self.target_namespace)
            for type_name, fields in self.schema_types.items():
                texts += (type_name, *(text for pair in fields for text in pair))
        for message in self.messages.values():
            texts += (message.name, *(t for part in message.parts for t in (part.name, part.type_text)))
        for port_type in self.port_types.values():
            texts.append(port_type.name)
            for op in port_type.operations:
                texts += (op.name, op.documentation) if op.documentation else (op.name,)
                texts += (f"tns:{op.input}",) if op.output is None else (f"tns:{op.input}", f"tns:{op.output}")
        for binding in self.bindings.values():
            texts += (binding.name, f"tns:{binding.port_type}", binding.transport, binding.style)
        for service in self.services.values():
            texts.append(service.name)
            for port in service.ports:
                texts += (port.name, f"tns:{port.binding}", port.location)
        return (
            tuple(map(len, self.schema_types.values())) if self.schema_types else None,
            tuple(len(message.parts) for message in self.messages.values()),
            tuple(
                tuple((bool(op.documentation), op.output is not None) for op in port_type.operations)
                for port_type in self.port_types.values()
            ),
            len(self.bindings),
            tuple(len(service.ports) for service in self.services.values()),
        ), list(map(str, texts))

    def to_wire(self, pretty: bool = False) -> str:
        if not pretty:
            key, texts = self.texts()
            wire = class_template(self, key)
            wire = None if wire is None else wire.render(texts)
            if wire is not None:
                return wire
        return serialize(self.to_element(), pretty=pretty, xml_declaration=True)

    def __repr__(self) -> str:
        return (
            f"<WsdlDefinition {self.name!r} messages={len(self.messages)} "
            f"portTypes={len(self.port_types)} services={len(self.services)}>"
        )


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
