"""From-scratch, namespace-aware XML infoset for the WSPeer reproduction.

Every document that crosses the simulated wire in this repository — SOAP
envelopes, WSDL definitions, UDDI messages, P2PS advertisements — is real
XML text produced and consumed by this package.  Nothing in the rest of
the codebase touches :mod:`xml.etree`; the tokenizer, parser and
serialiser here are self-contained so the wire format is fully under our
control (and fully testable).  This is the only codec in the product and
nothing selects another: one tokenizer, one token → tree builder and one
open-tag routine serve the batch and the streaming entry points alike.
The original character-at-a-time implementation it must stay
byte-compatible with is a test oracle and lives with the tests.

Public surface:

``QName``
    Namespace-qualified name with URI/local-part/prefix.
``Element``
    Mutable tree node carrying a :class:`QName`, attributes, namespaces,
    text and children.
``parse`` / ``parse_fragment``
    Text → :class:`Element` tree (two names, one function).
``serialize``
    :class:`Element` tree → text (optionally pretty-printed).
``iter_serialize`` / ``FeedParser`` / ``parse_stream``
    The same codec driven incrementally (E16): byte-chunk
    serialisation and ``feed()``/``close()`` parsing with O(chunk) peak
    memory, byte-identical to the batch entry points.
``XmlError`` and subclasses
    Raised on malformed input.

Common namespace URIs used by the stack live in :mod:`repro.xmlkit.ns`.
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".errors": ("XmlError", "XmlParseError", "XmlWellFormednessError"),
    ".names": ("QName",),
    ".element": ("Element",),
    ".parser": ("parse", "parse_fragment"),
    ".serializer": ("serialize",),
    ".stream": ("FeedParser", "iter_serialize", "parse_stream"),
    ".ns": ("ns",),
})
