"""The SOAP engine — this reproduction's Apache Axis.

WSPeer "uses SOAP as its messaging format (via Apache's Axis SOAP
engine)".  This package is the Axis stand-in, built from scratch:

``envelope``
    :class:`SoapEnvelope` — header blocks + body, (de)serialised
    through :mod:`repro.xmlkit` so real XML crosses the wire.
``encoding``
    Typed Python ⇄ XML value mapping (xsd primitives, arrays, structs,
    registered dataclasses, nil) driven by ``xsi:type`` attributes.
``faults``
    :class:`SoapFault` — the SOAP fault model, raisable and
    serialisable both ways.
``handlers``
    The request/response handler-chain pipeline (Axis's architecture),
    including the mustUnderstand check.
``attachments``
    SOAP-with-Attachments-style binary parts (E16): raw ``bytes``
    carried in a multipart-lite container next to the envelope and
    referenced by ``cid:`` href — no base64, no XML escaping.
``rpc``
    Server-side RPC dispatcher: body → method call → response body.
``stubs``
    Client stubs generated "directly to bytes" — dynamic proxy classes
    built at runtime with no source-code generation step (§IV-A), plus
    the source-codegen comparator used by experiment E5.
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".attachments": (
        "Attachment", "AttachmentError", "MULTIPART_CONTENT_TYPE",
        "MultipartFeedParser", "attachment_scope", "is_multipart",
    ),
    ".faults": ("FaultCode", "SoapFault"),
    ".envelope": ("SoapEnvelope",),
    ".encoding": ("EncodingError", "StructRegistry", "decode_value", "encode_value"),
    ".handlers": ("Handler", "HandlerChain", "MessageContext", "MustUnderstandHandler"),
    ".rpc": ("RpcDispatcher", "ServiceObject"),
    ".stubs": ("DynamicStubBuilder", "SourceCodegenStubBuilder"),
})
