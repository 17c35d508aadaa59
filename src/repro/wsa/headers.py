"""Message addressing properties and the WS-Addressing SOAP binding.

The binding rules the paper uses (§IV-B items 3–5):

- ``To`` ← the Address URI of the target EPR (mandatory);
- ``Action`` ← the Address URI plus a fragment naming the operation
  ("a URI that corresponds to an abstract WSDL construct");
- the target EPR's ReferenceProperties are copied *directly* into the
  SOAP header, as siblings of the other wsa headers;
- ``ReplyTo`` carries a full EPR for the response channel;
- ``MessageID`` / ``RelatesTo`` correlate asynchronous replies.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.caching import ArtifactCache
from repro.observability.recorder import current_recorder
from repro.observability.tracecontext import (
    TRACE_HEADER,
    header_element as trace_header_element,
    raw_context_of as trace_context_of,  # noqa: F401 - re-exported
)
from repro.soap.encoding import XSI_NIL, XSI_TYPE, primitive_text, primitive_xsi_type
from repro.soap.envelope import EnvelopeTemplate, SoapEnvelope
from repro.wsa.epr import EndpointReference, WsaError
from repro.xmlkit import Element, QName, ns
from repro.xmlkit.serializer import escape_text

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
        directly into the SOAP header (binding rule 3).
        """
        envelope.add_header(Element(_TO, text=self.to, nsdecls={"wsa": ns.WSA}))
        envelope.add_header(Element(_ACTION, text=self.action, nsdecls={"wsa": ns.WSA}))
        if self.message_id:
            envelope.add_header(
                Element(_MESSAGE_ID, text=self.message_id, nsdecls={"wsa": ns.WSA})
            )
        if self.relates_to:
            envelope.add_header(
                Element(_RELATES_TO, text=self.relates_to, nsdecls={"wsa": ns.WSA})
            )
        if self.trace_context:
            envelope.add_header(trace_header_element(self.trace_context))
        if self.reply_to is not None:
            envelope.add_header(self.reply_to.to_element(_REPLY_TO))
        if self.source is not None:
            envelope.add_header(self.source.to_element(_FROM))
        if self.fault_to is not None:
            envelope.add_header(self.fault_to.to_element(_FAULT_TO))
        if target is not None:
            for prop in target.reference_properties:
                envelope.add_header(prop.copy())
        return envelope

    @classmethod
    def extract_from(cls, envelope: SoapEnvelope) -> "MessageAddressingProperties":
        """Read the MAPs back out of a received envelope."""
        to_block = envelope.find_header(_TO)
        action_block = envelope.find_header(_ACTION)
        if to_block is None or not to_block.text:
            raise WsaError("message carries no wsa:To header")
        if action_block is None or not action_block.text:
            raise WsaError("message carries no wsa:Action header")

        def epr_of(name: QName) -> Optional[EndpointReference]:
            block = envelope.find_header(name)
            return EndpointReference.from_element(block) if block is not None else None

        message_id_block = envelope.find_header(_MESSAGE_ID)
        relates_block = envelope.find_header(_RELATES_TO)
        trace_block = envelope.find_header(TRACE_HEADER)
        return cls(
            to=to_block.text,
            action=action_block.text,
            reply_to=epr_of(_REPLY_TO),
            message_id=message_id_block.text if message_id_block is not None else None,
            relates_to=relates_block.text if relates_block is not None else None,
            source=epr_of(_FROM),
            fault_to=epr_of(_FAULT_TO),
            trace_context=trace_block.text if trace_block is not None else None,
        )

    def __repr__(self) -> str:
        return f"<MAPs to={self.to} action={self.action}>"


def message_id_of(envelope: SoapEnvelope) -> Optional[str]:
    """The ``wsa:MessageID`` of *envelope*, or None.

    Unlike :meth:`MessageAddressingProperties.extract_from`, this does
    not demand a fully-addressed message — the reliability layer keys
    duplicate suppression on the MessageID alone, and messages without
    one simply bypass dedup.
    """
    block = envelope.find_header(_MESSAGE_ID)
    return block.text if block is not None and block.text else None


def relates_to_of(envelope: SoapEnvelope) -> Optional[str]:
    """The ``wsa:RelatesTo`` of *envelope*, or None (ack correlation)."""
    block = envelope.find_header(_RELATES_TO)
    return block.text if block is not None and block.text else None


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
        props = []
        for prop in epr.reference_properties:
            if prop.attributes or prop.children:
                return None
            props.append(
                (prop.name.clark(), prop.text, tuple(sorted(prop.nsdecls.items())))
            )
        return (epr.address, tuple(props))

    @staticmethod
    def _epr_shape(epr: EndpointReference) -> Optional[tuple]:
        """Shape-only identity of an EPR whose texts vary per call
        (reply side: the address and property texts become holes)."""
        shape = []
        for prop in epr.reference_properties:
            if prop.attributes or prop.children:
                return None
            shape.append((prop.name.clark(), tuple(sorted(prop.nsdecls.items()))))
        return tuple(shape)

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
            proto_reply = EndpointReference(plant(("reply", "address")))
            for i, prop in enumerate(maps.reply_to.reference_properties):
                clone = Element(prop.name, nsdecls=dict(prop.nsdecls))
                clone.text = plant(("reply", i))
                proto_reply.add_property(clone)
        proto_maps = MessageAddressingProperties(
            to=maps.to,
            action=maps.action,
            reply_to=proto_reply,
            message_id=plant(("mid",)) if maps.message_id is not None else None,
            trace_context=plant(("tc",)) if maps.trace_context is not None else None,
        )
        proto_maps.apply_to(envelope, target=target)
        return EnvelopeTemplate.from_wire(envelope.to_wire(), sentinels)

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
            for i, prop in enumerate(maps.reply_to.reference_properties):
                if not prop.text:
                    return None
                values[("reply", i)] = escape_text(prop.text)
        return values


#: Process-wide template cache shared by every invocation node.
request_templates = RequestTemplateCache()
