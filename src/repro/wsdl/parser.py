"""WSDL parsing: document text → :class:`WsdlDefinition`.

The element path is ``parse`` + :func:`parse_wsdl_element`.  A document
of a class seen twice — the template of its definition's class
(:func:`~repro.wsdl.model.class_template`) writes it byte for byte — is
a *skeleton*: the next document that template matches is read off its
slot texts (:func:`_read`) without tokenising.
"""

from __future__ import annotations

from typing import Optional

from repro.caching import ArtifactCache
from repro.wsdl.model import (
    Binding,
    Message,
    Operation,
    Part,
    Port,
    PortType,
    Service,
    WsdlDefinition,
    WsdlError,
    SOAP_HTTP_TRANSPORT,
    class_template,
    wsdl_name,
)
from repro.xmlkit import Element, QName, XmlError, ns, parse


def _local_ref(text: str) -> str:
    """Strip the prefix off a ``tns:name`` reference."""
    _, _, local = text.rpartition(":")
    return local


_skeletons = ArtifactCache("wsdl-skeletons", 16)
_probation = ArtifactCache("wsdl-skeleton-probation", 64)


def parse_wsdl(text: str) -> WsdlDefinition:
    for key, wire in _skeletons.recent():
        texts = wire.match(text)
        definition = None if texts is None else _read(key, texts)
        if definition is not None:
            _skeletons.get(key)  # counts the hit, makes it most recent
            return definition
    _skeletons.stats.misses += 1
    try:
        root = parse(text)
    except XmlError as exc:
        raise WsdlError(f"WSDL is not well-formed XML: {exc}") from exc
    definition = parse_wsdl_element(root)
    key, texts = definition.texts()
    if key not in _skeletons and _probation.invalidate(key):
        wire = class_template(definition, key)
        if wire is not None and wire.render(texts) == text:
            _skeletons.put(key, (key, wire))
    elif key not in _skeletons:
        _probation.put(key, True)  # a second sighting learns
    return definition


def _read(key: tuple, texts: list[str]) -> Optional[WsdlDefinition]:
    """What :func:`parse_wsdl_element` reads off a document of class
    *key* holding *texts* (in :meth:`WsdlDefinition.texts` order); None
    for an empty text (a missing name: the element path decides)."""
    if "" in texts:
        return None
    take = iter(texts).__next__
    take()  # the tns declaration: the element path reads targetNamespace
    definition = WsdlDefinition(take(), take())
    types, messages, port_types, bindings, services = key
    if types is not None:
        take()  # the schema's targetNamespace
        for fields in types:
            definition.add_schema_type(take(), [(take(), take()) for _ in range(fields)])
    for parts in messages:
        definition.add_message(Message(take(), [Part(take(), take()) for _ in range(parts)]))
    for operations in port_types:
        port_type = definition.add_port_type(PortType(take()))
        for documented, answered in operations:
            name, documentation = take(), take() if documented else ""
            port_type.operations.append(Operation(
                name, _local_ref(take()), _local_ref(take()) if answered else None, documentation
            ))
    for _ in range(bindings):
        definition.add_binding(Binding(take(), _local_ref(take()), take(), take()))
    for ports in services:
        service = definition.add_service(Service(take()))
        service.ports += [Port(take(), _local_ref(take()), take()) for _ in range(ports)]
    return definition


_wsdl_cache = ArtifactCache("wsdl-definitions", max_entries=128)


def parse_wsdl_cached(text: str) -> WsdlDefinition:
    """Parse WSDL, reusing the definition for repeated document text.

    Keyed by the text itself, so identical documents served by
    different providers share one parsed :class:`WsdlDefinition`
    (discovery sweeps fetch the same WSDL once per provider): string
    equality is exact, and no digest is computed.  The shared
    definition is immutable by convention; a provider that redeploys
    serves different text, which is a fresh entry — stale definitions
    age out of the LRU rather than being served.
    """
    definition = _wsdl_cache.get(text)
    if definition is None:
        definition = _wsdl_cache.put(text, parse_wsdl(text))
    return definition


def _named(elem: Element, error: str) -> str:
    """The name of *elem*; raises *error* when it has none."""
    name = elem.get("name")
    if not name:
        raise WsdlError(error)
    return name


def parse_wsdl_element(root: Element) -> WsdlDefinition:
    if root.name != wsdl_name("definitions"):
        raise WsdlError(f"not a WSDL document: root is {root.name}")
    target_namespace = root.get("targetNamespace")
    if not target_namespace:
        raise WsdlError("definitions element lacks targetNamespace")
    definition = WsdlDefinition(root.get("name", ""), target_namespace)

    types_elem = root.find(wsdl_name("types"))
    if types_elem is not None:
        for schema in types_elem.find_all(QName(ns.XSD, "schema")):
            for complex_type in schema.find_all(QName(ns.XSD, "complexType")):
                type_name = complex_type.get("name")
                if not type_name:
                    continue
                fields: list[tuple[str, str]] = []
                sequence = complex_type.find(QName(ns.XSD, "sequence"))
                if sequence is not None:
                    for field in sequence.find_all(QName(ns.XSD, "element")):
                        fields.append(
                            (field.get("name", ""), field.get("type", "xsd:anyType"))
                        )
                definition.add_schema_type(type_name, fields)

    for m in root.find_all(wsdl_name("message")):
        name = _named(m, "message without a name")
        parts = []
        for p in m.find_all(wsdl_name("part")):
            part_name = _named(p, f"part without a name in message {name!r}")
            parts.append(Part(part_name, p.get("type", "xsd:anyType")))
        definition.add_message(Message(name, parts))

    for pt in root.find_all(wsdl_name("portType")):
        name = _named(pt, "portType without a name")
        port_type = PortType(name)
        for o in pt.find_all(wsdl_name("operation")):
            op_name = _named(o, f"operation without a name in portType {name!r}")
            input_elem = o.find(wsdl_name("input"))
            if input_elem is None:
                raise WsdlError(f"operation {op_name!r} has no input message")
            output_elem = o.find(wsdl_name("output"))
            doc_elem = o.find(wsdl_name("documentation"))
            port_type.operations.append(
                Operation(
                    op_name,
                    input=_local_ref(input_elem.get("message", "")),
                    output=(
                        _local_ref(output_elem.get("message", ""))
                        if output_elem is not None
                        else None
                    ),
                    documentation=doc_elem.text if doc_elem is not None else "",
                )
            )
        definition.add_port_type(port_type)

    for b in root.find_all(wsdl_name("binding")):
        name = _named(b, "binding without a name")
        soap_binding = b.find(QName(ns.WSDL_SOAP, "binding"))
        transport = SOAP_HTTP_TRANSPORT
        style = "rpc"
        if soap_binding is not None:
            transport = soap_binding.get("transport", transport)
            style = soap_binding.get("style", style)
        definition.add_binding(
            Binding(name, _local_ref(b.get("type", "")), transport=transport, style=style)
        )

    for s in root.find_all(wsdl_name("service")):
        name = _named(s, "service without a name")
        service = Service(name)
        for p in s.find_all(wsdl_name("port")):
            port_name = _named(p, f"port without a name in service {name!r}")
            address = p.find(QName(ns.WSDL_SOAP, "address"))
            location = address.get("location", "") if address is not None else ""
            service.ports.append(Port(port_name, _local_ref(p.get("binding", "")), location))
        definition.add_service(service)

    return definition
