"""Message addressing properties and the WS-Addressing SOAP binding.

The binding rules the paper uses (§IV-B items 3–5):

- ``To`` ← the Address URI of the target EPR (mandatory);
- ``Action`` ← the Address URI plus a fragment naming the operation
  ("a URI that corresponds to an abstract WSDL construct");
- the target EPR's ReferenceProperties are copied *directly* into the
  SOAP header, as siblings of the other wsa headers;
- ``ReplyTo`` carries a full EPR for the response channel;
- ``MessageID`` / ``RelatesTo`` correlate asynchronous replies.

Neither direction builds an element on its fast path.  ``apply_to``
into an envelope without header blocks records the MAP texts and a
hashable *MAP shape* (which optional headers are present, the property
shapes of the ReplyTo EPR and of the target); the wire template keyed on
it is cut from a prototype ``_blocks`` wrote.  ``extract_from`` reads
slot texts (``header_text``) and takes a ReplyTo that is a struct of
leaves as a value-backed EPR (``header_epr``).  Headers already present,
``From`` / ``FaultTo``, an EPR property with attributes or children and
an empty text (it would self-close) take the element path.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.caching import ArtifactCache
from repro.observability.recorder import current_recorder
from repro.observability.tracecontext import TRACE_HEADER, header_element as trace_header_element
from repro.soap.encoding import XSI_NIL, XSI_TYPE, primitive_text, primitive_xsi_type
from repro.soap.envelope import EnvelopeTemplate, SoapEnvelope
from repro.wsa.epr import EndpointReference, WsaError, grow_leaves
from repro.xmlkit import Element, QName, ns
from repro.xmlkit.serializer import escape_text, serialize

_TO = QName(ns.WSA, "To", "wsa")
_ACTION = QName(ns.WSA, "Action", "wsa")
_REPLY_TO = QName(ns.WSA, "ReplyTo", "wsa")
_FROM = QName(ns.WSA, "From", "wsa")
_FAULT_TO = QName(ns.WSA, "FaultTo", "wsa")
_MESSAGE_ID = QName(ns.WSA, "MessageID", "wsa")
_RELATES_TO = QName(ns.WSA, "RelatesTo", "wsa")

_message_counter = itertools.count(1)


def new_message_id(prefix: str = "urn:uuid:repro") -> str:
    """Mint a unique (per-process) MessageID URI.

    Deterministic counter rather than a random UUID so simulation runs
    are reproducible.
    """
    return f"{prefix}-{next(_message_counter):08d}"


class MessageAddressingProperties:
    """The WS-A header values of one message."""

    def __init__(
        self,
        to: str,
        action: str,
        reply_to: Optional[EndpointReference] = None,
        message_id: Optional[str] = None,
        relates_to: Optional[str] = None,
        source: Optional[EndpointReference] = None,
        fault_to: Optional[EndpointReference] = None,
        trace_context: Optional[str] = None,
    ):
        if not to:
            raise WsaError("wsa:To is mandatory")
        if not action:
            raise WsaError("wsa:Action is mandatory")
        self.to = to
        self.action = action
        self.reply_to = reply_to
        self.message_id = message_id
        self.relates_to = relates_to
        self.source = source
        self.fault_to = fault_to
        #: the encoded ``rt:TraceContext`` header value (E17); set by
        #: invocation nodes when propagation is enabled
        self.trace_context = trace_context

    # ------------------------------------------------------------------
    @classmethod
    def for_request(
        cls,
        target: EndpointReference,
        operation: str,
        reply_to: Optional[EndpointReference] = None,
    ) -> "MessageAddressingProperties":
        """Build the MAPs addressing *operation* of *target*.

        Action = target address + ``#operation`` fragment, following the
        paper's rule that Action names the WSDL operation.
        """
        action = target.address
        if operation:
            action = f"{action}#{operation}"
        return cls(
            to=target.address,
            action=action,
            reply_to=reply_to,
            message_id=new_message_id(),
        )

    @property
    def operation(self) -> str:
        """The operation name from the Action fragment ('' if none)."""
        _, _, fragment = self.action.partition("#")
        return fragment

    # ------------------------------------------------------------------
    def apply_to(
        self,
        envelope: SoapEnvelope,
        target: Optional[EndpointReference] = None,
    ) -> SoapEnvelope:
        """Write the headers into *envelope*.

        When *target* is given, its ReferenceProperties are copied
        directly into the SOAP header (binding rule 3).  Into an
        envelope with no header blocks yet they go as texts, taken now.
        """
        recorded = self._record(target)
        if recorded is None or not envelope.defer_headers(_MapHeaders(*recorded)):
            props = [] if target is None else target.property_elements()
            for block in self._blocks(props):
                envelope.add_header(block)
        return envelope

    def _blocks(self, props: list[Element]) -> list[Element]:
        """The header blocks as elements; *props* are the target's
        properties, already copied."""
        wsa = {"wsa": ns.WSA}
        blocks = [Element(_TO, text=self.to, nsdecls=wsa)]
        blocks.append(Element(_ACTION, text=self.action, nsdecls=wsa))
        if self.message_id:
            blocks.append(Element(_MESSAGE_ID, text=self.message_id, nsdecls=wsa))
        if self.relates_to:
            blocks.append(Element(_RELATES_TO, text=self.relates_to, nsdecls=wsa))
        if self.trace_context:
            blocks.append(trace_header_element(self.trace_context))
        if self.reply_to is not None:
            blocks.append(self.reply_to.to_element(_REPLY_TO))
        if self.source is not None:
            blocks.append(self.source.to_element(_FROM))
        if self.fault_to is not None:
            blocks.append(self.fault_to.to_element(_FAULT_TO))
        blocks.extend(props)
        return blocks

    def _record(self, target: Optional[EndpointReference]) -> Optional[tuple[tuple, list]]:
        """``(MAP shape, texts)`` of these headers, or None when a block
        must be an element (see the module docstring)."""
        if self.source is not None or self.fault_to is not None:
            return None
        optional = (self.message_id, self.relates_to, self.trace_context)
        texts = [self.to, self.action] + [text for text in optional if text]
        reply = None
        if self.reply_to is not None:
            leaves = self.reply_to.leaves()
            if leaves is None:
                return None
            reply = leaves[0]
            texts.append(self.reply_to.address)
            texts += leaves[1]
        props: tuple = ()
        if target is not None:
            leaves = target.leaves()
            if leaves is None:
                return None
            props = leaves[0]
            texts += leaves[1]
        if not all(texts):
            return None  # '' self-closes
        return (*map(bool, optional), reply, props), texts

    @classmethod
    def extract_from(cls, envelope: SoapEnvelope) -> "MessageAddressingProperties":
        """Read the MAPs back out of a received envelope — off its slot
        texts while it has them."""
        text = envelope.header_text
        to, action = text(_TO), text(_ACTION)
        if not to:
            raise WsaError("message carries no wsa:To header")
        if not action:
            raise WsaError("message carries no wsa:Action header")

        def epr_of(name: QName) -> Optional[EndpointReference]:
            parts = envelope.header_epr(name)
            if parts is not None and parts[0]:
                return EndpointReference.from_texts(*parts)
            if text(name) is None:
                return None
            # not a struct of leaves (or no address): the element path,
            # which also raises the canonical error
            return EndpointReference.from_element(envelope.find_header(name))

        return cls(
            to=to,
            action=action,
            reply_to=epr_of(_REPLY_TO),
            message_id=text(_MESSAGE_ID),
            relates_to=text(_RELATES_TO),
            source=epr_of(_FROM),
            fault_to=epr_of(_FAULT_TO),
            trace_context=text(TRACE_HEADER),
        )

    def __repr__(self) -> str:
        return f"<MAPs to={self.to} action={self.action}>"


class _MapHeaders:
    """Addressing headers nobody has looked at yet: the *texts* and the
    static *shape* they fill, ``(MessageID?, RelatesTo?, trace context?,
    ReplyTo property shape or None, target property shape)``.  ``grow``
    rebuilds the MAPs from them and runs ``_blocks``, so the prototype a
    wire template is cut from (``grow(sentinels)``) and the blocks a
    reader sees are the element path's own."""

    __slots__ = ("shape", "texts")

    def __init__(self, shape: tuple, texts: list):
        self.shape = shape
        self.texts = texts

    def grow(self, texts: Optional[list] = None) -> list[Element]:
        has_mid, has_rel, has_trace, reply, props = self.shape
        rest = iter(self.texts if texts is None else texts)
        maps = MessageAddressingProperties(next(rest), next(rest))
        maps.message_id = next(rest) if has_mid else None
        maps.relates_to = next(rest) if has_rel else None
        maps.trace_context = next(rest) if has_trace else None
        if reply is not None:
            maps.reply_to = EndpointReference.from_texts(next(rest), reply, [next(rest) for _ in reply])
        return maps._blocks(grow_leaves(props, list(rest)))

    def __len__(self) -> int:
        return len(self.grow())

    def text(self, name: QName | str) -> Optional[str]:
        # asked only of an envelope being written (ack marking): a
        # throwaway tree answers and this envelope keeps its texts
        for block in self.grow():
            if (block.name.local if isinstance(name, str) else block.name) == name:
                return block.text
        return None

    def epr(self, name: QName | str) -> None:
        return None  # read from the grown ReplyTo

    def must_understand(self) -> tuple:
        return ()


def message_id_of(envelope: SoapEnvelope) -> Optional[str]:
    """The ``wsa:MessageID`` of *envelope*, or None.

    Unlike :meth:`MessageAddressingProperties.extract_from`, this does
    not demand a fully-addressed message — the reliability layer keys
    duplicate suppression on the MessageID alone, and messages without
    one simply bypass dedup.
    """
    return envelope.header_text(_MESSAGE_ID) or None


def relates_to_of(envelope: SoapEnvelope) -> Optional[str]:
    """The ``wsa:RelatesTo`` of *envelope*, or None (ack correlation)."""
    return envelope.header_text(_RELATES_TO) or None


# ----------------------------------------------------------------------
# request envelope templates
# ----------------------------------------------------------------------
#: marks a key whose template build failed (sentinel collision); cached
#: so the expensive probe is not re-run on every call.
_UNTEMPLATABLE = object()


class RequestTemplateCache:
    """Pre-serialised request envelopes for the invocation hot path.

    Keyed by everything invariant across calls — target namespace,
    operation, ``wsa:To``/``wsa:Action``, the argument *shape*
    (names and primitive types, order-sensitive), the target EPR's
    reference properties, and the reply EPR's shape — so only the
    per-call fields (MessageID, parameter values, reply address and
    property texts) are spliced in at send time.

    The prototype wire is produced by the real envelope pipeline with
    sentinel strings planted in the variable fields, which keeps the
    template bytes identical to the slow path by construction.  Any
    shape the template machinery cannot guarantee byte parity for —
    non-primitive arguments, empty field texts (the serialiser
    self-closes empty elements), properties with attributes or
    children — makes :meth:`render` return None and the caller builds
    the envelope the ordinary way.
    """

    def __init__(self, max_entries: int = 256):
        self._cache = ArtifactCache("envelope-templates", max_entries)

    # -- public ------------------------------------------------------------
    def render(
        self,
        maps: MessageAddressingProperties,
        namespace: str,
        operation: str,
        args: dict[str, Any],
        target: Optional[EndpointReference] = None,
    ) -> Optional[str]:
        """The full request wire text, or None to signal slow-path."""
        # recorder guard: with the NullRecorder installed this is one
        # attribute check and NO detail dict is ever allocated (the CI
        # no-op-overhead test holds this path to zero allocations)
        rec = current_recorder()
        key = self._key(maps, namespace, operation, args, target)
        if key is None:
            if rec.active:
                rec.codec_event("template-bypass", {"operation": operation, "why": "unkeyable"})
            return None
        template = self._cache.get(key)
        if template is _UNTEMPLATABLE:
            if rec.active:
                rec.codec_event("template-bypass", {"operation": operation, "why": "untemplatable"})
            return None
        if template is None:
            template = self._build(maps, namespace, operation, args, target)
            self._cache.put(key, template if template is not None else _UNTEMPLATABLE)
            if template is None:
                if rec.active:
                    rec.codec_event("template-bypass", {"operation": operation, "why": "untemplatable"})
                return None
            if rec.active:
                rec.codec_event("template-build", {"operation": operation})
        values = self._values(maps, args)
        if values is None:
            if rec.active:
                rec.codec_event("template-bypass", {"operation": operation, "why": "unrenderable"})
            return None
        if rec.active:
            rec.codec_event("template-hit", {"operation": operation})
        return template.render(values)

    def invalidate_all(self) -> int:
        return self._cache.clear()

    # -- key construction --------------------------------------------------
    @staticmethod
    def _epr_fingerprint(epr: EndpointReference) -> Optional[tuple]:
        """Full static identity of an EPR, texts included (target side)."""
        leaves = epr.leaves()
        return None if leaves is None else (epr.address, leaves[0], tuple(leaves[1]))

    @staticmethod
    def _epr_shape(epr: EndpointReference) -> Optional[tuple]:
        """Shape-only identity of an EPR whose texts vary per call
        (reply side: the address and property texts become holes)."""
        leaves = epr.leaves()
        return None if leaves is None else leaves[0]

    def _key(
        self,
        maps: MessageAddressingProperties,
        namespace: str,
        operation: str,
        args: dict[str, Any],
        target: Optional[EndpointReference],
    ) -> Optional[tuple]:
        if maps.relates_to or maps.source is not None or maps.fault_to is not None:
            return None
        arg_shape = []
        for name, value in args.items():
            if value is not None and primitive_xsi_type(value) is None:
                return None
            arg_shape.append((name, None if value is None else type(value).__name__))
        target_print: Optional[tuple] = None
        if target is not None:
            target_print = self._epr_fingerprint(target)
            if target_print is None:
                return None
        reply_shape: Optional[tuple] = None
        if maps.reply_to is not None:
            reply_shape = self._epr_shape(maps.reply_to)
            if reply_shape is None:
                return None
        return (
            namespace,
            operation,
            maps.to,
            maps.action,
            maps.message_id is not None,
            maps.trace_context is not None,
            tuple(arg_shape),
            target_print,
            reply_shape,
        )

    # -- template build ----------------------------------------------------
    def _build(
        self,
        maps: MessageAddressingProperties,
        namespace: str,
        operation: str,
        args: dict[str, Any],
        target: Optional[EndpointReference],
    ) -> Optional[EnvelopeTemplate]:
        sentinels: dict = {}

        def plant(key: object) -> str:
            # NUL never appears in escape output and never survives
            # escaping itself, so collisions with real content require
            # the static fields to contain NUL — checked by from_wire.
            marker = f"\x00{len(sentinels)}\x00"
            sentinels[key] = marker
            return marker

        wrapper = Element(QName(namespace, operation, "tns"), nsdecls={"tns": namespace})
        for name, value in args.items():
            param = Element(QName("", name))
            if value is None:
                param.set(XSI_NIL, "true")
            else:
                param.set(XSI_TYPE, primitive_xsi_type(value))
                param.text = plant(("arg", name))
            wrapper.append(param)
        envelope = SoapEnvelope(body_content=wrapper)

        proto_reply: Optional[EndpointReference] = None
        if maps.reply_to is not None:
            shape = self._epr_shape(maps.reply_to)
            proto_reply = EndpointReference.from_texts(
                plant(("reply", "address")), shape, [plant(("reply", i)) for i in range(len(shape))]
            )
        proto_maps = MessageAddressingProperties(
            to=maps.to,
            action=maps.action,
            reply_to=proto_reply,
            message_id=plant(("mid",)) if maps.message_id is not None else None,
            trace_context=plant(("tc",)) if maps.trace_context is not None else None,
        )
        proto_maps.apply_to(envelope, target=target)
        # the slow path by name: a wire template of the prototype's own
        # shape would be an entry no call ever uses
        return EnvelopeTemplate.from_wire(
            serialize(envelope.to_element(), xml_declaration=True), sentinels
        )

    # -- per-call values ---------------------------------------------------
    @staticmethod
    def _values(
        maps: MessageAddressingProperties, args: dict[str, Any]
    ) -> Optional[dict]:
        values: dict = {}
        if maps.message_id is not None:
            if not maps.message_id:
                return None
            values[("mid",)] = escape_text(maps.message_id)
        if maps.trace_context is not None:
            if not maps.trace_context:
                return None
            values[("tc",)] = escape_text(maps.trace_context)
        for name, value in args.items():
            if value is None:
                continue
            text = primitive_text(value)
            if not text:
                # '' would self-close on the slow path; fall back
                return None
            values[("arg", name)] = escape_text(text)
        if maps.reply_to is not None:
            values[("reply", "address")] = escape_text(maps.reply_to.address)
            for i, text in enumerate(maps.reply_to.leaves()[1]):
                if not text:
                    return None
                values[("reply", i)] = escape_text(text)
        return values


#: Process-wide template cache shared by every invocation node.
request_templates = RequestTemplateCache()
