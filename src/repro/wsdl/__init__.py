"""WSDL 1.1 — service description: deploying a service means "taking a
code source, generating a service interface description from it" (§III).

``model`` — the object model and its XML form; ``generator`` — a live
object's description, by signature introspection; ``parser`` — WSDL
text back into the model (the client side of locating a service);
``validate`` — referential integrity; ``stubspec`` — a definition as the
:class:`~repro.soap.stubs.StubSpec` a client proxy is built from.
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
