"""WSDL from live Python objects — the deployment-time half of WSPeer's
hosting (§III).  Signatures come from :mod:`inspect`; annotations map to
XSD types by :func:`~repro.soap.encoding.python_type_to_xsd`, and an
unannotated parameter is ``xsd:anyType``."""

from __future__ import annotations

import dataclasses
import inspect
from typing import Optional

from repro.caching import ArtifactCache
from repro.soap.encoding import python_type_to_xsd
from repro.soap.rpc import ServiceObject
from repro.soap.shapes import sentinel, splice
from repro.wsdl.model import (
    SOAP_HTTP_TRANSPORT, Binding, Message, Operation, Part, Port, PortType, Service, WsdlDefinition,
    class_template,
)


def generate_wsdl(
    service: ServiceObject,
    locations: Optional[dict[str, str]] = None,
    transport: str = SOAP_HTTP_TRANSPORT,
    registry=None,
) -> WsdlDefinition:
    """Generate the WSDL definition describing *service*.

    *locations* maps port name → endpoint URI text, one port per
    transport the deployer exposes; without them the service has no
    ports (an *abstract* WSDL, which P2PS publication concretises with
    pipe endpoints).  *registry* (a
    :class:`~repro.soap.encoding.StructRegistry`) adds a
    ``<wsdl:types>`` schema declaring every registered dataclass, so
    clients learn the struct field layout from the description alone.
    """
    definition = WsdlDefinition(service.name, service.namespace)
    for type_name in registry.names if registry is not None else ():
        definition.add_schema_type(type_name, [
            (field.name, python_type_to_xsd(field.type))
            for field in dataclasses.fields(registry.type_of(type_name))
        ])
    port_type = definition.add_port_type(PortType(f"{service.name}PortType"))
    for op_name in service.operation_names:
        operation = service.operations[op_name]
        signature = operation.signature
        parameters = signature.parameters.values() if signature is not None else ()
        request = definition.add_message(Message(f"{op_name}Request", [
            Part(p.name, python_type_to_xsd(_annotation(p.annotation)))
            for p in parameters if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        ]))
        returns = None if signature is None else _annotation(signature.return_annotation)
        response = definition.add_message(
            Message(f"{op_name}Response", [Part("return", python_type_to_xsd(returns))])
        )
        doc = inspect.getdoc(operation.callable) or ""
        port_type.operations.append(Operation(
            op_name, request.name, response.name, doc.splitlines()[0] if doc else ""
        ))
    binding = definition.add_binding(
        Binding(f"{service.name}SoapBinding", port_type.name, transport=transport)
    )
    definition.add_service(Service(service.name, [
        Port(port_name, binding.name, location) for port_name, location in (locations or {}).items()
    ]))
    return definition


def _annotation(annotation):
    return None if annotation is inspect.Parameter.empty else annotation


#: Per class of service — each operation's name and
#: :attr:`~repro.soap.rpc.Operation.key`, the struct types declared, the
#: transport and the number of ports — its document bound at the values
#: that name one service (:meth:`~repro.soap.shapes.Wire.bind`): the
#: name, the namespace, the port names, the locations.
_classes = ArtifactCache("wsdl-classes", 64)


def wsdl_wire(
    service: ServiceObject,
    locations: dict[str, str],
    transport: str = SOAP_HTTP_TRANSPORT,
    registry=None,
) -> str:
    """``generate_wsdl(...).to_wire()``, spliced from *service*'s class:
    the document is written once per class, with sentinels for the
    values, and a new name builds no model."""
    types = () if registry is None else tuple([(name, registry.type_of(name)) for name in registry.names])
    ops = tuple([(name, op.key) for name, op in service.operations.items()])
    key = (ops, types, transport, len(locations))
    bound = _classes.get(key)
    if bound is None and all(operation.key for operation in service.operations.values()):
        bound = _classes.put(key, _bind(service, len(locations), transport, registry) or ())
    values = [*map(str, (service.name, service.namespace, *locations, *locations.values()))]
    wire = splice(bound, values) if bound else None
    return wire or generate_wsdl(service, locations, transport, registry).to_wire()


def _bind(service: ServiceObject, ports: int, transport: str, registry) -> Optional[tuple]:
    marked = ServiceObject(sentinel(0), sentinel(1))
    marked.operations = service.operations
    locations = {sentinel(2 + k): sentinel(2 + ports + k) for k in range(ports)}
    definition = generate_wsdl(marked, locations, transport, registry)
    key, texts = definition.texts()
    wire = class_template(definition, key)
    return None if wire is None else wire.bind(texts)
