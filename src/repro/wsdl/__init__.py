"""WSDL 1.1 — service description.

WSPeer "uses ... WSDL for service description"; deploying a service
means "taking a code source, generating a service interface description
from it" (§III).  This package provides:

``model``
    The WSDL object model: definitions, messages, port types,
    operations, bindings, ports, services — and its XML (de)serialisation.
``generator``
    Python object → :class:`WsdlDefinition` via signature introspection
    (the "generate WSDL from a code source" step of deployment).
``parser``
    WSDL text → :class:`WsdlDefinition` (the client side of "locating a
    service involves retrieving ... its interface description").
``validate``
    Referential-integrity checks over a definition.

A definition converts to a :class:`~repro.soap.stubs.StubSpec` with
:func:`to_stub_spec`, which is how discovered WSDL turns into a live
client proxy.
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".model": (
        "Binding", "Message", "Operation", "Part", "Port", "PortType", "Service",
        "WsdlDefinition", "WsdlError", "SOAP_HTTP_TRANSPORT", "SOAP_P2PS_TRANSPORT",
    ),
    ".generator": ("generate_wsdl",),
    ".parser": ("parse_wsdl",),
    ".validate": ("validate_wsdl",),
    ".stubspec": ("to_stub_spec",),
})
