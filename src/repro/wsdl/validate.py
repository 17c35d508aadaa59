"""Referential-integrity validation for WSDL definitions."""

from __future__ import annotations

from repro.wsdl.model import WsdlDefinition


def validate_wsdl(definition: WsdlDefinition) -> list[str]:
    """The problems of *definition* (empty: valid): operations naming a
    missing message, duplicate operations in a portType, bindings naming
    a missing portType, ports naming a missing binding or no address."""
    problems: list[str] = []
    for port_type in definition.port_types.values():
        seen: set[str] = set()
        for op in port_type.operations:
            if op.name in seen:
                problems.append(f"portType {port_type.name!r}: duplicate operation {op.name!r}")
            seen.add(op.name)
            for kind, message in (("input", op.input), ("output", op.output)):
                if message is not None and message not in definition.messages:
                    problems.append(f"operation {op.name!r}: unknown {kind} message {message!r}")
    for binding in definition.bindings.values():
        if binding.port_type not in definition.port_types:
            problems.append(f"binding {binding.name!r}: unknown portType {binding.port_type!r}")
    for service in definition.services.values():
        for port in service.ports:
            where = f"port {port.name!r} in service {service.name!r}"
            if port.binding not in definition.bindings:
                problems.append(f"{where}: unknown binding {port.binding!r}")
            if not port.location:
                problems.append(f"{where}: missing address")
    return problems
