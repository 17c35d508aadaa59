"""Bridge: WSDL definition → stub specification, the shapes of the
operations a client proxy exposes (WSPeer's client side)."""

from __future__ import annotations

from typing import Optional

from repro.caching import ArtifactCache
from repro.soap.stubs import OperationSpec, StubSpec
from repro.wsdl.model import Service, WsdlDefinition, WsdlError


def to_stub_spec(
    definition: WsdlDefinition,
    service_name: Optional[str] = None,
    port_name: Optional[str] = None,
) -> StubSpec:
    """A :class:`StubSpec` for one port of one service: by default the
    first service and its first port, or for a portless (abstract)
    service the definition's first portType."""
    service, interface = _interface(definition, service_name, port_name)
    return StubSpec(service.name, tuple(OperationSpec(*row) for row in interface))


def _interface(
    definition: WsdlDefinition, service_name: Optional[str], port_name: Optional[str]
) -> tuple[Service, tuple]:
    """The service, and what its stub is a function of besides its name:
    per operation, its name, its input parts' names, its documentation."""
    service = (
        definition.first_service() if service_name is None else definition.services.get(service_name)
    )
    if service is None:
        raise WsdlError(f"no service {service_name!r} in definition")
    port = service.ports[0] if port_name is None and service.ports else None
    if port_name is not None and (port := service.port(port_name)) is None:
        raise WsdlError(f"no port {port_name!r} in service {service.name!r}")
    if port is not None:
        port_type = definition.port_type_for_port(port)
    elif definition.port_types:
        port_type = next(iter(definition.port_types.values()))
    else:
        raise WsdlError("definition has no portType")
    interface = []
    for op in port_type.operations:
        message = definition.messages.get(op.input)
        if message is None:
            raise WsdlError(f"operation {op.name!r}: unknown input message {op.input!r}")
        interface.append((op.name, tuple(part.name for part in message.parts), op.documentation))
    return service, tuple(interface)


#: the last spec made for each interface: the service name is its slot
_spec_cache = ArtifactCache("stub-specs", max_entries=256)


def stub_spec_cached(
    definition: WsdlDefinition,
    service_name: Optional[str] = None,
    port_name: Optional[str] = None,
) -> StubSpec:
    """:func:`to_stub_spec`, keyed on the interface: its services share
    their operation specs, and a service asking again (none other of its
    interface in between) gets the same spec."""
    service, interface = _interface(definition, service_name, port_name)
    spec = _spec_cache.get(interface)
    if spec is not None and spec.service_name == service.name:
        return spec
    operations = tuple(OperationSpec(*row) for row in interface) if spec is None else spec.operations
    return _spec_cache.put(interface, StubSpec(service.name, operations))
