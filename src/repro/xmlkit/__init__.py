"""Namespace-aware XML infoset for the WSPeer reproduction.

Every document that crosses the simulated wire in this repository — SOAP
envelopes, WSDL definitions, UDDI messages, P2PS advertisements — is real
XML text produced and consumed by this package.  Expat reads, xmlkit
writes: the reader is one tree builder over the standard library's
``xml.parsers.expat``, which decides what is XML and words every
refusal; the serialiser, element model and names are our own, so every
byte sent is under our control (and fully testable).  Nothing in the
rest of the codebase touches :mod:`xml.etree` or expat, and nothing
selects another codec: one tree builder serves the batch and the
streaming reader, one open-tag routine both serialisers.  The original
hand-written implementation is a test oracle and lives with the tests.

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
    serialisation with O(chunk) peak memory, byte-identical to the
    batch serialiser, and ``feed()``/``close()`` parsing to the batch
    parser's tree.
``XmlError`` and subclasses
    Raised on malformed input.

Common namespace URIs used by the stack live in :mod:`repro.xmlkit.ns`.
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".errors": ("XmlError", "XmlParseError", "XmlSerializeError", "XmlWellFormednessError"),
    ".names": ("QName",),
    ".element": ("Element",),
    ".parser": ("parse", "parse_fragment"),
    ".serializer": ("serialize",),
    ".stream": ("FeedParser", "iter_serialize", "parse_stream"),
    ".ns": ("ns",),
})
