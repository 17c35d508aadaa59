"""The SOAP envelope: header blocks and body.

Each direction of the wire has a fast path, exact by construction and
compiled from the one shape grammar of :mod:`repro.soap.shapes`:
``to_wire`` splices texts into a template of the envelope's shape
(:class:`WireTemplateCache`), ``from_wire`` takes them out of a wire a
known skeleton matches (:class:`DecodeSkeletons`) without parsing.  The
slow paths they equal are ``serialize(envelope.to_element(),
xml_declaration=True)`` and ``SoapEnvelope.from_element(parse(wire))``.
In between, an RPC body (:class:`DeferredBody`) and header blocks
(:class:`DeferredHeaders`) stay slot texts plus the key of their shape
until someone reads the elements, so a hit builds no per-value object.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.caching import ArtifactCache
from repro.soap.attachments import (
    Attachment,
    is_multipart,
    message_from_wire,
    message_to_wire,
)
from repro.soap.encoding import rpc_tree
from repro.soap.faults import SoapFault
from repro.soap.shapes import (
    SLOT, Group, attribute, cut, grow, own_declaration, readers, shape_of, slot_kinds, template,
)
from repro.xmlkit import Element, QName, ns, parse, serialize
from repro.xmlkit.names import intern_qname


class SoapEnvelopeError(ValueError):
    """Raised for documents that are not valid SOAP envelopes."""


_ENVELOPE = QName(ns.SOAP_ENV, "Envelope", "soapenv")
_HEADER = QName(ns.SOAP_ENV, "Header", "soapenv")
_BODY = QName(ns.SOAP_ENV, "Body", "soapenv")
_FAULT = QName(ns.SOAP_ENV, "Fault", "soapenv")
MUST_UNDERSTAND = QName(ns.SOAP_ENV, "mustUnderstand", "soapenv")
#: the two children of an EndpointReference a head plan reads as slots
_WSA_ADDRESS = (ns.WSA, "Address")
_WSA_REF_PROPS = (ns.WSA, "ReferenceProperties")


#: what ``soapenv:Envelope`` declares, in scope for every header block
_ENVELOPE_DECLS = (("soapenv", ns.SOAP_ENV), ("xsd", ns.XSD), ("xsi", ns.XSI))


def header_layout(names) -> tuple[tuple, frozenset]:
    """Where the header blocks' namespaces are declared, from *names*:
    ``(prefix, uri, declared)`` for every declaration (True) and every
    element or attribute name (False) in the blocks and their
    descendants, in document order; uri SLOT is a slotted one.

    Returns the declarations ``soapenv:Header`` takes, each once and in
    the order first met, and the prefixes whose declarations leave the
    blocks: those and the ones the Envelope already makes alike.  A
    prefix stays declared where it is when it is the default
    namespace, slotted, bound to two URIs among the blocks or bound
    otherwise by the Envelope.  So every name resolves as before, and
    a decoder that folds the in-scope declarations into each block
    (``copy_with_scope``) reads the same blocks either way."""
    uris: dict = {}
    declared = set()
    for prefix, uri, declares in names:
        uris.setdefault(prefix, set()).add(uri)
        if declares:
            declared.add(prefix)
    envelope = dict(_ENVELOPE_DECLS)
    moved = [
        (prefix, uri) for prefix, (uri, *more) in uris.items()
        if prefix and prefix in declared and not more and uri is not SLOT
        and envelope.get(prefix, uri) == uri
    ]
    return (
        tuple([(prefix, uri) for prefix, uri in moved if prefix not in envelope]),
        frozenset([prefix for prefix, _ in moved]),
    )


def body_layout(names) -> tuple[tuple, frozenset]:
    """Where the Body's content declares ``soapenc``, which every Array
    and Struct declares for itself: :func:`header_layout`'s rule over
    the content's *names* (root and descendants, as that takes them),
    with the root in the Header's place and ``soapenc`` the only prefix
    that moves.  Returns the declaration the root takes and the prefixes
    whose declarations leave its descendants.  Every other declaration
    stays where it is, the wrapper's own ``tns`` included."""
    return header_layout([name for name in names if name[0] == "soapenc"])


def _content_decls(own, moved) -> tuple:
    """The declarations of the Body's content root: its *own* but those
    the Envelope makes alike — a decoder detaches the content with the
    Envelope's declarations folded in (``copy_with_scope``), and written
    again they would repeat on it — then the *moved* ones it lacks."""
    kept = [decl for decl in own if decl not in _ENVELOPE_DECLS]
    return tuple(kept + [decl for decl in moved if decl not in own])


def _element_names(elems) -> list:
    """:func:`header_layout`'s names of the elements *elems*."""
    names: list = []
    for elem in elems:
        names += [(prefix, uri, True) for prefix, uri in elem.nsdecls.items()]
        names += [(q.prefix, q.uri, False) for q in (elem.name, *elem.attributes)]
    return names


def _shape_names(node: tuple, names: list) -> None:
    """Append :func:`header_layout`'s *names* of the shape *node* to *names*."""
    name, attributes, nsdecls, content = node
    names += [(prefix, uri, True) for prefix, uri in nsdecls]
    names += [(ref[2], ref[0], False) for ref in (name, *[attr for attr, _ in attributes])]
    for part in () if content is SLOT else content:
        if part.__class__ is not str:
            _shape_names(part.item if part.__class__ is Group else part, names)


def _without(node: tuple, gone: frozenset) -> tuple:
    """The shape *node* with no declaration of a prefix in *gone*."""
    name, attributes, nsdecls, content = node
    if content is not SLOT:
        content = tuple([
            part if part.__class__ is str
            else Group(_without(part.item, gone)) if part.__class__ is Group
            else _without(part, gone)
            for part in content
        ])
    return name, attributes, tuple([decl for decl in nsdecls if decl[0] not in gone]), content


def _content_shape(node: tuple) -> tuple:
    """The Body's content *node* laid out by :func:`body_layout`."""
    names: list = []
    _shape_names(node, names)
    moved, gone = body_layout(names)
    name, attributes, _, content = _without(node, gone)
    return name, attributes, _content_decls(node[2], moved), content


def envelope_shape(blocks: tuple = (), body: tuple = ()) -> tuple:
    """The shape of an envelope around the header block shapes *blocks*
    and *body*, its one content shape or none; the blocks' namespaces
    are declared where :func:`header_layout` puts them, the content's
    where :func:`body_layout` does."""
    names: list = []
    for block in blocks:
        _shape_names(block, names)
    header, gone = header_layout(names)
    return (
        (ns.SOAP_ENV, "Envelope", "soapenv"), (), _ENVELOPE_DECLS,
        (
            ((ns.SOAP_ENV, "Header", "soapenv"), (), header,
             tuple([_without(block, gone) for block in blocks]) if gone else blocks),
            ((ns.SOAP_ENV, "Body", "soapenv"), (), (), tuple([_content_shape(node) for node in body])),
        ),
    )


class DeferredBody:
    """An RPC body nobody has looked at yet: its slot *texts* and the
    *key* of their shape — the skeleton's *node* itself, or what
    ``build_rpc_request`` recorded, ``(wrapper local name, parameter
    value shapes)``, from which the node derives; the namespace is the
    first text."""

    __slots__ = ("name", "texts", "key", "_node", "readers")

    def __init__(self, name: QName, texts: list, key: tuple, node=None, readers=None):
        self.name, self.texts, self.key, self._node, self.readers = name, texts, key, node, readers

    @property
    def node(self) -> tuple:
        if self._node is None:
            self._node = rpc_tree(SLOT, *self.key)
        return self._node


def _epr_view(block: tuple, at: int) -> Optional[tuple]:
    """``(address slot, property shape, property slots)`` when the header
    *block* (first slot *at*) is an EndpointReference whose properties are
    a struct of leaves: a ``wsa:Address`` leaf and, optionally, a
    ``wsa:ReferenceProperties`` wrapper of attribute-free leaves, each
    with the namespaces ``EndpointReference.from_element`` gives it."""
    kids = [] if block[3] is SLOT else [part for part in block[3] if part.__class__ is not str]
    names = [None if kid.__class__ is Group else kid[0][:2] for kid in kids]
    if names not in ([_WSA_ADDRESS], [_WSA_ADDRESS, _WSA_REF_PROPS]) or kids[0][3] is not SLOT:
        return None
    props = [] if len(kids) == 1 else kids[1][3]
    shape = []
    for prop in () if props is SLOT else props:
        if prop.__class__ is str:
            continue
        if prop.__class__ is Group or prop[1] or prop[3] is not SLOT:
            return None
        scope = dict(prop[2])
        for prefix, uri in kids[1][2] + block[2]:
            scope.setdefault(prefix, uri)
        shape.append((prop[0], tuple(scope.items())))
    return at, tuple(shape), tuple(range(at + 1, at + 1 + len(shape)))


class HeadIndex:
    """What a head's shape answers without its texts, once per shape: its
    *blocks*, per ``(uri, local)`` where the text of the first such block
    is — the position of its slot when it is a leaf, else its static text
    — (*sources*) and its EPR view when it has one (*eprs*), the names
    marked mustUnderstand (*must*) and the *plan* that
    :meth:`SoapEnvelope.header_plan` builds on the first read."""

    __slots__ = ("blocks", "sources", "eprs", "must", "plan")

    def __init__(self, blocks: tuple):
        self.blocks, self.sources, self.eprs, self.plan, at = blocks, {}, {}, None, 0
        for block in blocks:
            key, content = block[0][:2], block[3]
            if key not in self.sources:
                self.sources[key] = at if content is SLOT else "".join(
                    [part for part in content if part.__class__ is str]
                )
                self.eprs[key] = _epr_view(block, at)
            at += len(slot_kinds(block))
        self.must = tuple(
            intern_qname(*block[0]) for block in blocks
            if attribute(block, ns.SOAP_ENV, "mustUnderstand") in ("1", "true")
        )


class DeferredHeaders:
    """Header blocks nobody has looked at yet: their slot *texts* and the
    *key* of their shape — the shape itself (a decoded head, which comes
    with the skeleton's index) or a record it derives from (:meth:`blocks_of`)."""

    __slots__ = ("key", "texts", "_index")

    def __init__(self, key: tuple, texts: list, index: Optional[HeadIndex] = None):
        self.key, self.texts, self._index = key, texts, index

    blocks_of = staticmethod(lambda key: key)

    @property
    def index(self) -> HeadIndex:
        if self._index is None:
            self._index = HeadIndex(self.blocks_of(self.key))
        return self._index

    def grow(self) -> list[Element]:
        texts = iter(self.texts)
        return [grow(block, texts) for block in self.index.blocks]

    def __len__(self) -> int:
        return len(self.index.blocks)

    def text(self, name: QName | str) -> Optional[str]:
        sources = self.index.sources
        if isinstance(name, str):  # keys are in the order their first blocks are
            at = next((at for key, at in sources.items() if key[1] == name), None)
        else:
            at = sources.get((name.uri, name.local))
        return self.texts[at] if at.__class__ is int else at


class SoapEnvelope:
    """A SOAP 1.1 envelope.

    ``headers`` is the ordered list of header block elements;
    ``body_content`` is the single body child (RPC operation element or
    Fault), or None.  ``attachments`` (E16) are raw binary parts carried
    next to the envelope, referenced from the body by ``cid:`` href; with
    any, :meth:`to_wire_message` writes a multipart byte wire.

    Both parts may still be texts: ``build_rpc_request``, ``apply_to``
    and ``from_wire`` hand over slot texts (``_deferred``, ``_head``) and
    ``body_content`` / ``headers`` grow them on the first read, after
    which the elements are the truth and the codec fast paths step aside
    for that part.  ``body_name``, ``is_fault``, ``rpc_values``,
    ``header_text``, ``header_plan`` and ``must_understand`` never grow.
    """

    def __init__(
        self,
        body_content: Optional[Element] = None,
        headers: Optional[list[Element]] = None,
        attachments: Optional[list[Attachment]] = None,
    ):
        self._headers: list[Element] = list(headers or [])
        self._head: Optional[DeferredHeaders] = None
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
            deferred = self._deferred
            self._body, self._deferred = grow(deferred.node, deferred.texts), None
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

    def header_text(self, name: QName | str) -> Optional[str]:
        """The text of the first block named *name* (None: no such block),
        read without growing the blocks."""
        if self._head is not None:
            return self._head.text(name)
        block = self.find_header(name)
        return None if block is None else block.text

    def header_plan(self, build: Callable[[HeadIndex], tuple]) -> Optional[tuple]:
        """``(plan, texts)`` while the header blocks are texts: the plan
        *build* makes of their shape's :class:`HeadIndex`, made on the
        shape's first read and kept with it; None once they are elements."""
        head = self._head
        if head is None:
            return None
        index = head.index
        plan = index.plan
        if plan is None:
            plan = index.plan = build(index)
        return plan, head.texts

    def must_understand(self) -> tuple:
        """Names of the blocks marked ``mustUnderstand``, in order."""
        if self._head is not None:
            return self._head.index.must
        return tuple(b.name for b in self._headers if b.get(MUST_UNDERSTAND) in ("1", "true"))

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

    def to_element(self) -> Element:
        blocks = [block.copy() for block in self.headers]
        elems = [elem for block in blocks for elem in block.iter()]
        decls, gone = header_layout(_element_names(elems))
        for elem in elems:
            for prefix in gone.intersection(elem.nsdecls):
                del elem.nsdecls[prefix]
        env = grow(envelope_shape(), ())
        header, body = env.children
        header.nsdecls.update(decls)
        header.extend(blocks)
        if self.body_content is not None:
            content = body.append(self.body_content.copy())
            own, elems = tuple(content.nsdecls.items()), list(content.iter())
            moved, gone = body_layout(_element_names(elems))
            for elem in elems:
                for prefix in gone.intersection(elem.nsdecls):
                    del elem.nsdecls[prefix]
            content.nsdecls = dict(_content_decls(own, moved))
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


# ----------------------------------------------------------------------
# wire templates (the :meth:`SoapEnvelope.to_wire` fast path)
# ----------------------------------------------------------------------
#: marks a shape whose template build failed (sentinel collision with
#: static document content); cached so the probe is not re-run.
_UNTEMPLATABLE = object()

#: envelope templates the one :data:`wire_templates` cache keeps
WIRE_TEMPLATES_CAP = 256


class WireTemplateCache:
    """Envelope templates (:func:`repro.soap.shapes.template`) by shape.

    A part still texts is keyed by the key it carries, element parts by
    their :func:`~repro.soap.shapes.shape_of`; the envelope's shape is
    built on a miss only.  A tree with no shape (mixed content, too deep)
    makes :meth:`render` return None: the caller serialises.
    """

    def __init__(self):
        self._cache = ArtifactCache("wire-templates", WIRE_TEMPLATES_CAP)

    def render(self, envelope: "SoapEnvelope") -> Optional[str]:
        """The full wire text of *envelope*, or None to signal slow-path."""
        head, deferred, content = envelope._head, envelope._deferred, envelope._body
        texts: list = []
        if head is not None:
            head_key = head.key
            texts += head.texts
        else:
            head_key = tuple([shape_of(block, texts) for block in envelope._headers])
            if None in head_key:
                return None
        if deferred is not None:
            body_key = deferred.key
            texts += deferred.texts
        else:
            body_key = None if content is None else shape_of(content, texts)
            if content is not None and body_key is None:
                return None
        key = (head_key, body_key)
        wire = self._cache.get(key)
        if wire is None:
            body = deferred.node if deferred is not None else body_key
            blocks = head_key if head is None else head.index.blocks
            wire = template(envelope_shape(blocks, () if body is None else (body,)))
            self._cache.put(key, wire or _UNTEMPLATABLE)
        return None if wire is None or wire is _UNTEMPLATABLE else wire.render(texts)

    def invalidate_all(self) -> int:
        return self._cache.clear()


#: Process-wide wire-template cache consulted by every ``to_wire``.
wire_templates = WireTemplateCache()


# ----------------------------------------------------------------------
# decode skeletons (the :meth:`SoapEnvelope.from_wire` fast path)
# ----------------------------------------------------------------------
def _repeats(elem: Element) -> int:
    """How many leaves below *elem* repeat the sibling just before them
    (same name, text only, nothing in between): roughly what the groups
    of its skeleton absorb."""
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

    A *skeleton* is a parsed wire :func:`~repro.soap.shapes.cut` at the
    texts that vary from call to call, plus the shapes of its header
    blocks and body as ``from_element`` leaves them.  Anything but an
    exact match goes to the ordinary parse, which also raises the
    canonical error.  A missed wire's cheap shape key enters a bounded
    probation set and only its second sighting is cut, so shapes that
    rotate faster than they recur are never cut.
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
        for key, wire_cut, head, at, name, body, body_readers in self._store.recent():
            texts = wire_cut.match(wire)
            if texts is not None:
                self._store.get(key)  # counts the hit, makes it most recent
                return (
                    None if head is None else DeferredHeaders(head.blocks, texts[:at], head),
                    None if body is None else DeferredBody(  # no name: its uri is the first slot
                        name or intern_qname(texts[at], *body[0][1:]), texts[at:], body, body, body_readers),
                )
        self._store.misses += 1
        return None

    def learn(self, wire: str, root: Element, envelope: SoapEnvelope) -> None:
        """Cut a slow-path wire's skeleton on its shape's second sighting."""
        body = envelope.body_content
        tags = wire.count("<")
        if tags > self.MAX_TAGS:
            return
        # a run of repeating leaves counts once, so that lists of any
        # two lengths are two sightings of one shape; names as strings,
        # whose hash is C's: every decode walks (and hashes) the keys.
        # A body whose own declaration will be a slot keys on its class:
        # its prefix and its and its parameters' local names
        shape, repeats = (None, 0) if body is None else (
            body.name.clark() if own_declaration(wire, body) < 0
            else (body.name.prefix, body.name.local, *[kid.name.local for kid in body.children]),
            _repeats(body),
        )
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
        if [kid.name for kid in root.children] not in ([_BODY], [_HEADER, _BODY]):
            return
        # the skeleton: shapes and static text only, no slot value
        blocks = envelope.headers
        nodes, wire_cut = cut(wire, blocks if body is None else blocks + [body], own_uri=body)
        head = tuple(nodes[:len(blocks)])
        node = None if body is None else nodes[-1]
        name = None if node is None or node[0][0] is SLOT else body.name
        self._store.put(key, (
            key, wire_cut, HeadIndex(head) if head else None,
            sum(len(slot_kinds(block)) for block in head), name, node,
            None if node is None else readers(node),
        ))


#: Process-wide skeleton store consulted by every ``from_wire``.
decode_skeletons = DecodeSkeletons()
