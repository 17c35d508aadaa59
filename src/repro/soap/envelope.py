"""The SOAP envelope: header blocks and body.

Each direction of the wire has a fast path, exact by construction:
``to_wire`` splices per-call text into a pre-serialised template
(:class:`WireTemplateCache`) and ``from_wire`` recognises a known
envelope skeleton and slices out only its text slots
(:class:`DecodeSkeletons`), never running the parser.  The slow paths
they must equal are ``serialize(envelope.to_element(),
xml_declaration=True)`` and ``SoapEnvelope.from_element(parse(wire))``.

Between the two an RPC body is a :class:`DeferredBody` — slot texts plus
a build plan — that becomes an element tree only when someone reads
``body_content``; a template or skeleton hit therefore builds no
per-value object.  Both caches know one repeating slot, the *group*: a
run of sibling leaves that differ only in their text (a list of floats)
is one hole whose separator is static text, whatever the run's length.

Header blocks get the same treatment: a decoded envelope's blocks are
:class:`DeferredHeaders` (the skeleton's plans plus the slot texts) and
an encoded one's are whatever ``defer_headers`` was handed (the
addressing headers, :mod:`repro.wsa.headers`), grown into elements only
when someone reads ``headers``.  ``header_text`` and ``header_epr`` read
the texts without growing; an EndpointReference is read as a *struct of
leaves* — an address plus N leaf properties.
"""

from __future__ import annotations

from typing import Optional

from repro.caching import ArtifactCache
from repro.soap.attachments import (
    Attachment,
    is_multipart,
    message_from_wire,
    message_to_wire,
)
from repro.soap.encoding import compile_readers, value_plan
from repro.soap.faults import SoapFault
from repro.xmlkit import Element, QName, XmlParseError, ns, parse, serialize
from repro.xmlkit.serializer import escape_text
from repro.xmlkit.tokenizer import Tokenizer, TokenType


class SoapEnvelopeError(ValueError):
    """Raised for documents that are not valid SOAP envelopes."""


_ENVELOPE = QName(ns.SOAP_ENV, "Envelope", "soapenv")
_HEADER = QName(ns.SOAP_ENV, "Header", "soapenv")
_BODY = QName(ns.SOAP_ENV, "Body", "soapenv")
_FAULT = QName(ns.SOAP_ENV, "Fault", "soapenv")
MUST_UNDERSTAND = QName(ns.SOAP_ENV, "mustUnderstand", "soapenv")
#: the two children of an EndpointReference a skeleton reads as slots
_WSA_ADDRESS = QName(ns.WSA, "Address", "wsa")
_WSA_REF_PROPS = QName(ns.WSA, "ReferenceProperties", "wsa")


class DeferredBody:
    """An RPC body nobody has looked at yet: its slot *texts* (taken
    when the envelope was made) and what grows them into the tree —
    the build *plan* of the skeleton that decoded it, or the value
    *shape* ``(namespace, wrapper local name, parameter shapes)`` that
    ``build_rpc_request`` observed, from which the plan derives."""

    __slots__ = ("name", "texts", "plan", "shape", "readers")

    def __init__(self, name: QName, texts: list, plan=None, shape=None, readers=None):
        self.name = name
        self.texts = texts
        self.plan = plan
        self.shape = shape
        self.readers = readers

    def grow(self) -> Element:
        return _grow(self.plan or rpc_plan(self.shape, []), self.texts)


def rpc_plan(shape: tuple, kinds: list) -> tuple:
    """The build plan of the ``<tns:local xmlns:tns=namespace>`` RPC
    wrapper around the parameters of a value *shape*."""
    namespace, local, params = shape
    plan = value_plan(QName(namespace, local, "tns"), ("struct", params), kinds)
    return (plan[0], {}, {"tns": namespace}, plan[3])


class DeferredHeaders:
    """Header blocks nobody has looked at yet, as a decode skeleton found
    them: the wire's slot *texts* and the skeleton's *head* — ``(build
    plans, {(uri, local): position of its first block}, names of the
    blocks marked mustUnderstand, {position: EPR struct})``, an EPR
    struct being ``(address slot, property shape, property slots)``.

    The other kind of deferred head, handed over by ``apply_to``, offers
    the same readers plus the ``shape`` wire templates key on."""

    __slots__ = ("head", "texts")
    #: decoded blocks template as elements: no shape of their own
    shape = None

    def __init__(self, head: tuple, texts: list):
        self.head = head
        self.texts = texts

    def grow(self) -> list[Element]:
        return [_grow(plan, self.texts) for plan in self.head[0]]

    def __len__(self) -> int:
        return len(self.head[0])

    def _first(self, name: QName | str) -> Optional[int]:
        if isinstance(name, str):
            return next((at for at, plan in enumerate(self.head[0]) if plan[0].local == name), None)
        return self.head[1].get((name.uri, name.local))

    def text(self, name: QName | str) -> Optional[str]:
        at = self._first(name)
        return None if at is None else plan_text(self.head[0][at], self.texts)

    def epr(self, name: QName | str) -> Optional[tuple]:
        struct = self.head[3].get(self._first(name))
        if struct is None:
            return None
        address, shape, slots = struct
        return self.texts[address], shape, [self.texts[slot] for slot in slots]

    def must_understand(self) -> tuple:
        return self.head[2]


class SoapEnvelope:
    """A SOAP 1.1 envelope.

    ``headers`` is the ordered list of header block elements;
    ``body_content`` is the single body child (RPC operation element or
    Fault).  An empty body is legal for pure-header messages.
    ``attachments`` (E16) are raw binary parts carried next to the
    envelope and referenced from the body by ``cid:`` href; an envelope
    with attachments serialises to a multipart byte wire via
    :meth:`to_wire_message`.

    An RPC body is *deferred*: ``build_rpc_request`` and ``from_wire``
    hand over slot texts, and ``body_content`` builds the tree on its
    first read.  From then on the tree is the truth — ``_body`` holds it
    and both codec fast paths step aside for this envelope.
    ``body_name`` and ``is_fault`` never build.

    Header blocks are deferred the same way: ``from_wire`` and
    ``apply_to`` hand over texts (``_head``) and ``headers`` grows them
    on its first read, after which the element list is the truth.
    ``header_text``, ``header_epr`` and ``must_understand`` never grow.
    """

    def __init__(
        self,
        body_content: Optional[Element] = None,
        headers: Optional[list[Element]] = None,
        attachments: Optional[list[Attachment]] = None,
    ):
        self._headers: list[Element] = list(headers or [])
        #: header blocks still texts (:class:`DeferredHeaders` or the
        #: addressing headers of ``apply_to``); None once grown
        self._head = None
        self._body = body_content
        self._deferred: Optional[DeferredBody] = None
        self.attachments: list[Attachment] = list(attachments or [])

    @classmethod
    def for_deferred(cls, deferred: Optional[DeferredBody], head=None) -> "SoapEnvelope":
        envelope = cls()
        envelope._deferred = deferred
        envelope._head = head
        return envelope

    @property
    def headers(self) -> list[Element]:
        if self._head is not None:
            self._headers, self._head = self._head.grow(), None
        return self._headers

    @headers.setter
    def headers(self, blocks: list[Element]) -> None:
        self._headers, self._head = blocks, None

    def defer_headers(self, head) -> bool:
        """Take *head* as this envelope's header blocks, still texts —
        only while it has none at all; False means the caller adds
        elements instead."""
        if self._head is not None or self._headers:
            return False
        self._head = head
        return True

    @property
    def body_content(self) -> Optional[Element]:
        if self._deferred is not None:
            self._body, self._deferred = self._deferred.grow(), None
        return self._body

    @body_content.setter
    def body_content(self, content: Optional[Element]) -> None:
        self._body, self._deferred = content, None

    @property
    def body_name(self) -> Optional[QName]:
        """The name of ``body_content``; None for an empty body."""
        if self._deferred is not None:
            return self._deferred.name
        return None if self._body is None else self._body.name

    def rpc_values(self) -> Optional[list[tuple[str, object]]]:
        """``(parameter local name, value)`` for each child of a body
        still deferred, read straight off its slot texts; None when
        there are no readers or one refused its text — the caller then
        decodes ``body_content``, which raises the canonical error."""
        deferred = self._deferred
        if deferred is None or deferred.readers is None:
            return None
        try:
            return [(name, reader(deferred.texts)) for name, reader in deferred.readers]
        except ValueError:
            return None

    # ------------------------------------------------------------------
    # header conveniences
    # ------------------------------------------------------------------
    def add_header(self, block: Element, must_understand: bool = False) -> Element:
        if must_understand:
            block.set(MUST_UNDERSTAND, "1")
        self.headers.append(block)
        return block

    def find_header(self, name: QName | str) -> Optional[Element]:
        """First block named *name*; a string matches the local name."""
        by_local = isinstance(name, str)
        for block in self.headers:
            if (block.name.local if by_local else block.name) == name:
                return block
        return None

    def find_headers(self, uri: str) -> list[Element]:
        """All header blocks in namespace *uri*."""
        return [b for b in self.headers if b.name.uri == uri]

    def header_text(self, name: QName | str) -> Optional[str]:
        """The text of the first block named *name* (None: no such block),
        read without growing the blocks."""
        if self._head is not None:
            return self._head.text(name)
        block = self.find_header(name)
        return None if block is None else block.text

    def header_epr(self, name: QName | str) -> Optional[tuple]:
        """``(address, property shape, property texts)`` of the first block
        named *name* while it is still texts and a struct of leaves; None
        otherwise — the caller then reads ``headers``."""
        return None if self._head is None else self._head.epr(name)

    def must_understand(self) -> tuple:
        """Names of the blocks marked ``mustUnderstand``, in order."""
        if self._head is not None:
            return self._head.must_understand()
        return tuple(b.name for b in self._headers if b.get(MUST_UNDERSTAND) in ("1", "true"))

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------
    @property
    def is_fault(self) -> bool:
        return self.body_name == _FAULT

    def fault(self) -> Optional[SoapFault]:
        if not self.is_fault:
            return None
        assert self.body_content is not None
        return SoapFault.from_element(self.body_content)

    @classmethod
    def for_fault(cls, fault: SoapFault) -> "SoapEnvelope":
        return cls(body_content=fault.to_element())

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def to_element(self) -> Element:
        env = Element(
            _ENVELOPE,
            nsdecls={
                "soapenv": ns.SOAP_ENV,
                "xsd": ns.XSD,
                "xsi": ns.XSI,
            },
        )
        header = env.add(_HEADER)
        for block in self.headers:
            header.append(block.copy())
        body = env.add(_BODY)
        if self.body_content is not None:
            body.append(self.body_content.copy())
        return env

    def to_wire(self, pretty: bool = False) -> str:
        if not pretty:
            wire = wire_templates.render(self)
            if wire is not None:
                return wire
        return serialize(self.to_element(), pretty=pretty, xml_declaration=True)

    @classmethod
    def from_element(cls, env: Element) -> "SoapEnvelope":
        if env.name != _ENVELOPE:
            raise SoapEnvelopeError(f"not a SOAP envelope: {env.name}")
        header = env.find(_HEADER)
        body = env.find(_BODY)
        if body is None:
            raise SoapEnvelopeError("SOAP envelope has no Body")
        headers = [b.copy_with_scope() for b in header.children] if header is not None else []
        children = body.children
        if len(children) > 1:
            raise SoapEnvelopeError("multiple Body children are not supported")
        content = children[0].copy_with_scope() if children else None
        return cls(body_content=content, headers=headers)

    def to_wire_message(self):
        """The full wire representation: plain XML text when there are
        no attachments, multipart ``bytes`` when there are."""
        if not self.attachments:
            return self.to_wire()
        return message_to_wire(self.to_wire(), self.attachments)

    @classmethod
    def from_wire(cls, text: str) -> "SoapEnvelope":
        parts = decode_skeletons.decode(text)
        if parts is not None:
            return cls.for_deferred(parts[1], parts[0])
        root = parse(text)
        envelope = cls.from_element(root)
        decode_skeletons.learn(text, root, envelope)
        return envelope

    @classmethod
    def from_wire_message(cls, wire) -> "SoapEnvelope":
        """Decode either wire shape: XML text (``str`` or UTF-8
        ``bytes``) or a multipart attachment container (``bytes``)."""
        if isinstance(wire, (bytes, bytearray, memoryview)):
            if is_multipart(wire):
                envelope_text, attachments = message_from_wire(wire)
                envelope = cls.from_wire(envelope_text)
                envelope.attachments = attachments
                return envelope
            wire = bytes(wire).decode("utf-8")
        return cls.from_wire(wire)

    def __repr__(self) -> str:
        op = self.body_name.local if self.body_name is not None else "(empty)"
        blocks = self._head if self._head is not None else self._headers
        return f"<SoapEnvelope body={op} headers={len(blocks)}>"


def wire_carries_fault(wire) -> bool:
    """Does a wire *this codec wrote* carry a Fault body?  No parse is
    needed: the Body's only child follows the Body tag directly and ``<``
    is escaped in text (a multipart wire is searched whole, so a binary
    part repeating the marker reads as a fault)."""
    marker = "<soapenv:Body><soapenv:Fault>"
    return (marker if isinstance(wire, str) else marker.encode("ascii")) in wire


class EnvelopeTemplate:
    """A pre-serialised envelope with holes for the per-call fields.

    Most of an RPC request envelope is invariant across calls to the
    same operation of the same endpoint — the skeleton, the addressing
    headers, the parameter names and ``xsi:type`` markers.  A template
    captures that invariant text once (produced by the *real* slow
    path, so the bytes are identical by construction) and splits it at
    sentinel markers into ``segments``; :meth:`render` interleaves the
    per-call field texts to rebuild the full wire string with plain
    ``str.join``.

    Field values passed to :meth:`render` must already be escaped —
    the caller applies :func:`repro.xmlkit.serializer.escape_text`
    exactly where the slow path would.
    """

    __slots__ = ("segments", "fields", "joins")

    def __init__(self, segments: list[str], fields: list):
        self.segments = segments
        self.fields = fields
        #: for a value-shaped body, per slot: (a group's separator or
        #: None, whether its texts can need escaping)
        self.joins: Optional[list[tuple[Optional[str], bool]]] = None

    @classmethod
    def from_wire(cls, wire: str, sentinels: dict) -> Optional["EnvelopeTemplate"]:
        """Split *wire* at the planted sentinel strings.

        *sentinels* maps a field key to the sentinel text that stands
        in for it in the prototype wire.  Returns None when any
        sentinel does not occur exactly once (static document content
        collided with the marker alphabet) — the caller falls back to
        the slow path.
        """
        spans: list[tuple[int, int, object]] = []
        for key, marker in sentinels.items():
            first = wire.find(marker)
            if first < 0 or wire.find(marker, first + 1) >= 0:
                return None
            spans.append((first, len(marker), key))
        spans.sort()
        segments: list[str] = []
        fields: list = []
        prev = 0
        for start, length, key in spans:
            if start < prev:
                return None  # overlapping markers
            segments.append(wire[prev:start])
            fields.append(key)
            prev = start + length
        segments.append(wire[prev:])
        return cls(segments, fields)

    def render(self, values: dict) -> str:
        segments = self.segments
        parts = [segments[0]]
        append = parts.append
        for i, key in enumerate(self.fields):
            append(values[key])
            append(segments[i + 1])
        return "".join(parts)

    def __repr__(self) -> str:
        return f"<EnvelopeTemplate fields={len(self.fields)}>"


# ----------------------------------------------------------------------
# generic wire templates (the :meth:`SoapEnvelope.to_wire` fast path)
# ----------------------------------------------------------------------
#: marks a shape whose template build failed (sentinel collision with
#: static document content); cached so the probe is not re-run.
_UNTEMPLATABLE = object()


def _leaf_shape(elem: Element) -> Optional[tuple]:
    """Static identity of a childless element; its text is the hole.

    Returns None for elements with child elements — those shapes are
    left to the ordinary serialiser.
    """
    for item in elem.content:
        if not isinstance(item, str):
            return None
    name = elem.name
    return (
        (name.uri, name.local, name.prefix),
        tuple(elem.nsdecls.items()),
        tuple(((a.uri, a.local, a.prefix), v) for a, v in elem.attributes.items()),
        bool(elem.content),
    )


class WireTemplateCache:
    """Pre-serialised envelope skeletons keyed by envelope *shape*.

    Most envelopes this stack emits — RPC responses, acks, retained
    dedup replays — share a small set of shapes: text-only header
    blocks plus a body wrapper whose children are text-only parameter
    elements.  The shape (names, prefix hints, namespace declarations,
    attributes, text presence — everything byte-affecting except the
    text values) keys a template whose prototype is serialised by the
    real serialiser with sentinel text, so rendering is a string splice
    with bytes identical to the slow path by construction.  Body
    content is shaped *recursively*: element trees whose leaves carry
    only text (RPC responses, struct returns, faults with detail
    trees — the ``Server.Busy`` shed path in particular) all template;
    mixed content (text alongside child elements) and header blocks
    with children make :meth:`render` return None and the caller runs
    the ordinary serialiser.
    """

    #: body trees deeper than this fall back to the ordinary serialiser
    MAX_DEPTH = 6

    def __init__(self, max_entries: int = 256):
        self._cache = ArtifactCache("wire-templates", max_entries)

    def render(self, envelope: "SoapEnvelope") -> Optional[str]:
        """The full wire text of *envelope*, or None to signal slow-path."""
        key = self._key(envelope)
        if key is None:
            return None
        template = self._cache.get(key)
        if template is _UNTEMPLATABLE:
            return None
        if template is None:
            template = self._build(key, envelope._head)
            self._cache.put(key, template if template is not None else _UNTEMPLATABLE)
            if template is None:
                return None
        return template.render(self._values(envelope, template.joins))

    def invalidate_all(self) -> int:
        return self._cache.clear()

    @classmethod
    def _tree_shape(cls, elem: Element, depth: int = 0) -> Optional[tuple]:
        """Recursive static identity of *elem*; leaf texts are the holes.

        Mixed content (text next to child elements) and over-deep trees
        return None — those shapes go to the ordinary serialiser.
        """
        if depth > cls.MAX_DEPTH:
            return None
        name = elem.name
        static = (
            (name.uri, name.local, name.prefix),
            tuple(elem.nsdecls.items()),
            tuple(((a.uri, a.local, a.prefix), v) for a, v in elem.attributes.items()),
        )
        if any(not isinstance(item, str) for item in elem.content):
            kids = []
            for item in elem.content:
                if isinstance(item, str):
                    return None  # mixed content
                sub = cls._tree_shape(item, depth + 1)
                if sub is None:
                    return None
                kids.append(sub)
            return static + (("node", tuple(kids)),)
        return static + (("leaf", bool(elem.content)),)

    @classmethod
    def _key(cls, envelope: "SoapEnvelope") -> Optional[tuple]:
        head = envelope._head
        if head is not None and head.shape is not None:
            # headers still texts: the head's own static shape, tagged
            # with its kind so that no tuple of leaf shapes can equal it
            headers = (head.__class__, head.shape)
        else:
            leaves = []
            for block in envelope.headers:
                leaf = _leaf_shape(block)
                if leaf is None:
                    return None
                leaves.append(leaf)
            headers = tuple(leaves)
        deferred = envelope._deferred
        if deferred is not None and deferred.shape is not None:
            # a value shape starts with a namespace string, a tree
            # shape with a name tuple: the two cannot collide
            return (headers, deferred.shape)
        body = envelope.body_content
        body_shape = None
        if body is not None:
            body_shape = cls._tree_shape(body)
            if body_shape is None:
                return None
        return (headers, body_shape)

    @staticmethod
    def _build(key: tuple, head) -> Optional[EnvelopeTemplate]:
        """The template of *key*, cut from a prototype the real code
        wrote: header texts (*head*'s, when they are still texts) and
        body texts replaced by sentinels, then serialised."""
        header_shapes, body_shape = key
        sentinels: dict = {}

        def plant(hole_key: tuple) -> str:
            # NUL never survives escaping, so a collision requires
            # NUL in static content — caught by from_wire
            marker = f"\x00{len(sentinels)}\x00"
            sentinels[hole_key] = marker
            return marker

        def leaf_from(shape: tuple, hole_key: tuple) -> Element:
            name, nsd, attrs, has_text = shape
            elem = Element(QName(*name), nsdecls=dict(nsd) or None)
            for aname, avalue in attrs:
                elem.attributes[QName(*aname)] = avalue
            if has_text:
                elem.append_text(plant(hole_key))
            return elem

        def tree_from(shape: tuple, path: tuple) -> Element:
            name, nsd, attrs, tail = shape
            kind, payload = tail
            if kind == "leaf":
                return leaf_from((name, nsd, attrs, payload), ("c",) + path)
            elem = Element(QName(*name), nsdecls=dict(nsd) or None)
            for aname, avalue in attrs:
                elem.attributes[QName(*aname)] = avalue
            for j, sub in enumerate(payload):
                elem.append(tree_from(sub, path + (j,)))
            return elem

        if head is not None:  # _key grew any head without a shape
            headers = head.grow([plant(("h", k)) for k in range(len(head.texts))])
        else:
            headers = [leaf_from(shape, ("h", i)) for i, shape in enumerate(header_shapes)]
        body: Optional[Element] = None
        joins: Optional[list] = None
        if body_shape is not None and body_shape[0].__class__ is str:
            # a value shape: the prototype is the tree body_content
            # would show, each group cut to two items
            kinds: list = []
            plan = rpc_plan(body_shape, kinds)
            body = _grow(plan, [
                [plant(("c", k)), plant(("c", k, 1))] if group else plant(("c", k))
                for k, (_, group) in enumerate(kinds)
            ])
            joins = [(None, kind == "xsd:string") for kind, _ in kinds]
        elif body_shape is not None:
            body = tree_from(body_shape, ())
        proto = SoapEnvelope(body_content=body, headers=headers)
        wire = serialize(proto.to_element(), xml_declaration=True)
        template = EnvelopeTemplate.from_wire(wire, sentinels)
        if template is not None and joins is not None:
            # fold each group's two holes into one: the static text
            # between them is the group's separator
            for at in reversed(range(len(template.fields))):
                if len(template.fields[at]) == 3:
                    slot = template.fields.pop(at)[1]
                    joins[slot] = (template.segments.pop(at), joins[slot][1])
            template.joins = joins
        return template

    @staticmethod
    def _values(envelope: "SoapEnvelope", joins: Optional[list]) -> dict:
        values: dict = {}
        head = envelope._head
        if head is not None:  # still texts, so keyed on its shape
            for k, text in enumerate(head.texts):
                values[("h", k)] = escape_text(text)
        else:
            for i, block in enumerate(envelope.headers):
                if block.content:
                    values[("h", i)] = escape_text(block.text)
        if joins is not None:
            # a deferred body: splice its texts; numeric alphabets
            # cannot need escaping
            for k, text in enumerate(envelope._deferred.texts):
                separator, escape = joins[k]
                if separator is not None:
                    text = separator.join(map(escape_text, text) if escape else text)
                elif escape:
                    text = escape_text(text)
                values[("c", k)] = text
            return values

        def walk(elem: Element, path: tuple) -> None:
            if any(not isinstance(item, str) for item in elem.content):
                for j, item in enumerate(elem.content):
                    walk(item, path + (j,))
                return
            if elem.content:
                values[("c",) + path] = escape_text(elem.text)

        body = envelope.body_content
        if body is not None:
            walk(body, ())
        return values


#: Process-wide wire-template cache consulted by every ``to_wire``.
wire_templates = WireTemplateCache()


# ----------------------------------------------------------------------
# decode skeletons (the :meth:`SoapEnvelope.from_wire` fast path)
# ----------------------------------------------------------------------
def _slot_texts(wire: str, pos: int, segments: tuple) -> Optional[list]:
    """The slot texts when *wire* continues from *pos* with *segments*
    around them and nothing else, else None.  A slot ends at the next
    ``<``, as a text token does: a match implies the parser's tokens.
    A repeating group's segment is ``(separator, closing text)`` and its
    slot text a list: the run up to the closing text, split at the
    separators, matches when every ``<`` in it belongs to a separator —
    each item then ends at the next ``<`` too."""
    texts: list = []
    try:
        for segment in segments:
            if segment.__class__ is tuple:
                separator, segment = segment
                end = wire.find(segment, pos)
                if end < 0:
                    return None
                run = wire[pos:end]
                raw = run.split(separator)
                if run.count("<") != separator.count("<") * (len(raw) - 1):
                    return None
                if "&" in run:
                    decode = Tokenizer(wire).decode_entities
                    raw = [decode(item, pos) for item in raw]
            else:
                end = wire.find("<", pos)
                if not wire.startswith(segment, end):  # also when no '<' is left
                    return None
                raw = wire[pos:end]
                if "&" in raw:
                    raw = Tokenizer(wire).decode_entities(raw, pos)
            texts.append(raw)
            pos = end + len(segment)
    except XmlParseError:
        return None  # the slow path raises it
    return texts if pos == len(wire) else None


def _leaf(plan: tuple, text: str) -> Element:
    name, attributes, nsdecls, _ = plan
    elem = Element(name, text=text, nsdecls=nsdecls)
    if attributes:
        elem.attributes = attributes.copy()
    return elem


def _grow(plan: tuple, texts: list) -> Element:
    """A fresh tree from a build plan ``(name, attributes, nsdecls,
    kids)``: every build has its own ``attributes`` / ``nsdecls`` dicts,
    so decoded envelopes stay isolated.  *kids* is a leaf's slot index,
    ``~index`` for a repeating group of such leaves (one per text of the
    slot), or a tuple of static text chunks and child plans."""
    name, attributes, nsdecls, kids = plan
    if kids.__class__ is int:
        return _leaf(plan, texts[kids])
    elem = Element(name, nsdecls=nsdecls)
    for kid in kids:
        if kid.__class__ is str:
            elem.append_text(kid)
        elif kid[3].__class__ is int and kid[3] < 0:
            for text in texts[~kid[3]]:
                elem.append(_leaf(kid, text))
        else:
            elem.append(_grow(kid, texts))
    if attributes:
        elem.attributes = attributes.copy()
    return elem


def plan_text(plan: tuple, texts: list) -> str:
    """``Element.text`` of the tree *plan* grows, without growing it."""
    kids = plan[3]
    if kids.__class__ is int:
        return texts[kids]
    return "".join(kid for kid in kids if kid.__class__ is str)


def _epr_struct(plan: tuple) -> Optional[tuple]:
    """``(address slot, property shape, property slots)`` when the header
    block of *plan* is an EndpointReference whose properties are a struct
    of leaves: its children are a ``wsa:Address`` slot and, optionally, a
    ``wsa:ReferenceProperties`` wrapper of attribute-free slot leaves.
    Each property's namespaces are its own, then its wrapper's, then its
    block's — what ``EndpointReference.from_element`` (``copy_with_scope``)
    gives it.  Anything else is None and is read from the grown block."""

    def slot(kid: tuple) -> bool:  # a leaf's one text, not a group's
        return kid[3].__class__ is int and kid[3] >= 0

    if plan[3].__class__ is int:
        return None
    kids = [kid for kid in plan[3] if kid.__class__ is not str]
    if not 1 <= len(kids) <= 2 or kids[0][0] != _WSA_ADDRESS or not slot(kids[0]):
        return None
    shape, slots = [], []
    if len(kids) == 2:
        wrapper = kids[1]
        if wrapper[0] != _WSA_REF_PROPS or wrapper[3].__class__ is int:
            return None
        for prop in wrapper[3]:
            if prop.__class__ is str:
                continue
            if prop[1] or not slot(prop):
                return None
            scope = dict(prop[2])
            for outer in (wrapper[2], plan[2]):
                for prefix, uri in outer.items():
                    scope.setdefault(prefix, uri)
            name = prop[0]
            shape.append(((name.uri, name.local, name.prefix), tuple(scope.items())))
            slots.append(prop[3])
    return kids[0][3], tuple(shape), tuple(slots)


def _cut(key: tuple, wire: str, envelope: SoapEnvelope) -> tuple:
    """The skeleton of *wire*: ``(key, first segment, segments after each
    slot, head (see :class:`DeferredHeaders`), body plan, body
    readers)``.  A slot is the one optional plain text run of an
    element below Header / Body; other content (children, CDATA, a
    comment) is static and copied: no slot value is retained.  Sibling leaves written back to back with the
    same tags — they differ only in their text — fold into one
    repeating group, which matches a run of any length."""
    start_tag, end_tag, text = TokenType.START_TAG, TokenType.END_TAG, TokenType.TEXT
    tokens = list(Tokenizer(wire).tokens())
    spans = []  # per element below Header / Body, in document order
    depth = 0
    for i, token in enumerate(tokens):
        if token.type is end_tag:
            depth -= 1
        elif token.type is start_tag:
            if depth >= 2:
                j = i + 1
                # a TEXT token that starts at '<' is a CDATA section
                if tokens[j].type is text and wire[tokens[j].offset] != "<":
                    j += 1
                slot = not token.self_closing and tokens[j].type is end_tag
                # a slot leaf: where its open tag, text, end tag and successor start
                spans.append(
                    (token.offset, tokens[i + 1].offset, tokens[j].offset, tokens[j + 1].offset)
                    if slot else None
                )
            depth += not token.self_closing
    edges = [0]
    separators: dict[int, str] = {}
    at = 0

    def plan(elem: Element) -> tuple:
        nonlocal at
        span, at = spans[at], at + 1
        if span is not None:
            edges.extend(span[1:3])
            return (elem.name, dict(elem.attributes), dict(elem.nsdecls), len(edges) // 2 - 1)
        kids: list = []
        last = None  # the span of the slot leaf just planned
        for item in elem.content:
            span = None if isinstance(item, str) else spans[at]
            if (
                last and span and last[3] == span[0]  # two slot leaves, back to back,
                and wire[last[0]:last[1]] == wire[span[0]:span[1]]  # same open tag
                and wire[last[2]:last[3]] == wire[span[2]:span[3]]  # and end tag
            ):
                at += 1  # the leaf before it becomes (or stays) a repeating group
                slot = len(edges) // 2 - 1
                kids[-1] = kids[-1][:3] + (~slot,)
                separators[slot] = wire[last[2]:span[1]]
                edges[-1] = span[2]
            else:
                kids.append(item if isinstance(item, str) else plan(item))
            last = span
        return (elem.name, dict(elem.attributes), dict(elem.nsdecls), tuple(kids))

    plans = tuple(plan(block) for block in envelope.headers)
    body = envelope.body_content
    body_plan = None if body is None else plan(body)
    head = None
    if plans:
        first: dict = {}
        eprs = {}
        for position, block in enumerate(plans):
            first.setdefault((block[0].uri, block[0].local), position)
            struct = _epr_struct(block)
            if struct is not None:
                eprs[position] = struct
        must = tuple(p[0] for p in plans if p[1].get(MUST_UNDERSTAND) in ("1", "true"))
        head = (plans, first, must, eprs)
    edges.append(len(wire))
    segments = [wire[a:b] for a, b in zip(edges[::2], edges[1::2])]
    after = tuple(
        (separators[k], segment) if k in separators else segment
        for k, segment in enumerate(segments[1:])
    )
    readers = None if body_plan is None else compile_readers(body_plan)
    return key, segments[0], after, head, body_plan, readers


def _repeats(elem: Element) -> int:
    """How many leaves below *elem* repeat the sibling just before them
    (same name, text only, nothing in between): roughly what the
    repeating groups of its skeleton absorb."""
    count, last = 0, None
    for item in elem.content:
        name = None
        if not isinstance(item, str):
            if any(not isinstance(kid, str) for kid in item.content):
                count += _repeats(item)
            elif item.content:
                name = item.name
                count += name == last
        last = name
    return count


class DecodeSkeletons:
    """Envelope skeletons, the decode-side mirror of :class:`WireTemplateCache`.

    The envelopes a peer parses differ from call to call only in the
    text of a few leaf elements (``wsa:MessageID``, parameter values).
    A *skeleton* is a wire split at those texts: static segments, each
    starting at a ``<``, plus a build plan for the header blocks and
    body content, inherited ``nsdecls`` folded in as ``from_element``
    leaves them.  Anything but an exact match (another attribute value,
    CDATA in a slot, an entity error) goes to the ordinary parse, which
    also raises the canonical error.  Learning costs that path nothing:
    a missed wire's cheap shape key enters a bounded probation set and
    only its second sighting re-tokenises the wire to cut a skeleton, so
    shapes that rotate faster than they recur are never cut.
    """

    MAX_SKELETONS = 64
    MAX_PROBATION = 256
    #: a skeleton keeps its wire's static text and the store bounds
    #: entries, not bytes: wires with more markup than this are not cut
    MAX_TAGS = 4096

    def __init__(self) -> None:
        self._store = ArtifactCache("decode-skeletons", self.MAX_SKELETONS)
        self._probation = ArtifactCache("decode-skeleton-probation", self.MAX_PROBATION)

    def decode(self, wire: str) -> Optional[tuple]:
        """``(deferred headers, deferred body)`` from the skeleton that
        matches *wire*, or None to signal slow-path."""
        for key, first, segments, head, body, readers in self._store.recent():
            if not wire.startswith(first):
                continue
            texts = _slot_texts(wire, len(first), segments)
            if texts is not None:
                self._store.get(key)  # counts the hit, makes it most recent
                deferred = None
                if body is not None:
                    deferred = DeferredBody(body[0], texts, plan=body, readers=readers)
                return (None if head is None else DeferredHeaders(head, texts)), deferred
        self._store.stats.misses += 1
        return None

    def learn(self, wire: str, root: Element, envelope: SoapEnvelope) -> None:
        """Cut a slow-path wire's skeleton on its shape's second sighting."""
        body = envelope.body_content
        tags = wire.count("<")
        if tags > self.MAX_TAGS:
            return
        # a run of repeating leaves counts once, so that lists of any
        # two lengths are two sightings of one shape; names as strings,
        # whose hash is C's: every decode walks (and hashes) the keys
        shape, repeats = (None, 0) if body is None else (body.name.clark(), _repeats(body))
        names = tuple(block.name.clark() for block in envelope.headers)
        key = (names, shape, tags - 2 * repeats, repeats > 0)
        if key in self._store:
            # in the store and not matched: the shape varies outside its
            # slots, and cutting it again would be as futile
            return
        if key not in self._probation:
            self._probation.put(key, True)
            return
        self._probation.invalidate(key)
        # only below an Envelope of [Header,] Body are the wire's
        # elements the envelope's, in the same order
        if [kid.name for kid in root.children] in ([_BODY], [_HEADER, _BODY]):
            self._store.put(key, _cut(key, wire, envelope))


#: Process-wide skeleton store consulted by every ``from_wire``.
decode_skeletons = DecodeSkeletons()
