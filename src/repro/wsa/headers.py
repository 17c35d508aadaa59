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
records the MAP texts and a hashable *MAP shape* (which optional headers
are present, the property shapes of the ReplyTo EPR and of the target),
from which the blocks' shape tree (:mod:`repro.soap.shapes`) derives by
writing them once with ``_blocks``.  A received head is read through
its shape's *addressing plan* (:func:`_plan`, built on the shape's first
read and kept with its :class:`~repro.soap.envelope.HeadIndex`): where
the text of each addressing leaf is, and the ReplyTo as a value-backed
EPR when it is a struct of leaves.  Headers already present, ``From`` /
``FaultTo``, an EPR property with attributes or children and an empty
text (it would self-close) take the element path.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.caching import ArtifactCache
from repro.observability.recorder import current_recorder
from repro.observability.tracecontext import TRACE_HEADER, header_element as trace_header_element
from repro.soap.encoding import EMPTY, SCALAR_TYPES, EncodingError, rpc_tree, value_shape
from repro.soap.envelope import DeferredHeaders, HeadIndex, SoapEnvelope, envelope_shape
from repro.soap.shapes import SLOT, shape_of, template
from repro.wsa.epr import EndpointReference, WsaError, grow_leaves
from repro.xmlkit import Element, QName, ns

_TO = QName(ns.WSA, "To", "wsa")
_ACTION = QName(ns.WSA, "Action", "wsa")
_REPLY_TO = QName(ns.WSA, "ReplyTo", "wsa")
_FROM = QName(ns.WSA, "From", "wsa")
_FAULT_TO = QName(ns.WSA, "FaultTo", "wsa")
_MESSAGE_ID = QName(ns.WSA, "MessageID", "wsa")
_RELATES_TO = QName(ns.WSA, "RelatesTo", "wsa")
#: the leaf blocks an addressing plan reads, in the plan's order
_PLANNED = [(name.uri, name.local) for name in (_TO, _ACTION, _MESSAGE_ID, _RELATES_TO, TRACE_HEADER)]

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
        texts = [self.to, self.action]
        # conditional expressions, not bool(): this runs on every request
        mid = True if self.message_id else False
        if mid:
            texts.append(self.message_id)
        rel = True if self.relates_to else False
        if rel:
            texts.append(self.relates_to)
        trace = True if self.trace_context else False
        if trace:
            texts.append(self.trace_context)
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
        return (mid, rel, trace, reply, props), texts

    @classmethod
    def extract_from(cls, envelope: SoapEnvelope) -> "MessageAddressingProperties":
        """Read the MAPs back out of a received envelope: through the
        addressing plan while its blocks are texts.  Anything but a head
        of leaves with To, Action and, if any, a ReplyTo with an address
        takes the element path, which also raises the canonical error."""
        read = envelope.header_plan(_plan)
        if read is not None:
            plan, texts = read
            to, action, message_id, relates_to, trace = [
                texts[at] if at.__class__ is int else at for at in plan[:5]
            ]
            reply = plan[5]
            if to and action and not plan[6] and (reply is None or texts[reply[0]]):
                return cls(
                    to, action,
                    None if reply is None else EndpointReference.from_texts(
                        texts[reply[0]], reply[1], [texts[at] for at in reply[2]]
                    ),
                    message_id, relates_to, trace_context=trace,
                )
        text = envelope.header_text
        to, action = text(_TO), text(_ACTION)
        if not to:
            raise WsaError("message carries no wsa:To header")
        if not action:
            raise WsaError("message carries no wsa:Action header")

        def epr_of(name: QName) -> Optional[EndpointReference]:
            block = envelope.find_header(name)
            return None if block is None else EndpointReference.from_element(block)

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


class _MapHeaders(DeferredHeaders):
    """Addressing headers nobody has looked at yet, keyed by the MAP
    shape ``_record`` took: ``(MessageID?, RelatesTo?, trace context?,
    ReplyTo property shape or None, target property shape)``."""

    __slots__ = ()

    @staticmethod
    def blocks_of(key: tuple) -> tuple:
        """The blocks' shape: ``_blocks`` writes them with a text in
        every slot, so templates and readers see the element path's."""
        has_mid, has_rel, has_trace, reply, props = key
        maps = MessageAddressingProperties("t", "a")
        maps.message_id = "m" if has_mid else None
        maps.relates_to = "r" if has_rel else None
        maps.trace_context = "c" if has_trace else None
        if reply is not None:
            maps.reply_to = EndpointReference.from_texts("r", reply, ["p"] * len(reply))
        texts: list = []
        return tuple(shape_of(b, texts) for b in maps._blocks(grow_leaves(props, ["p"] * len(props))))


def _plan(index: HeadIndex) -> tuple:
    """The addressing plan of a head shape: where the text of To, Action,
    MessageID, RelatesTo and the trace context is (``index.sources``), the
    ReplyTo's EPR view, and whether a block only the element path reads
    is there: From, FaultTo, or a ReplyTo that is not a struct of leaves."""
    sources, eprs = index.sources, index.eprs
    reply = (ns.WSA, "ReplyTo")
    grown = (reply in sources and eprs[reply] is None) or any(
        (ns.WSA, local) in sources for local in ("From", "FaultTo")
    )
    return (*[sources.get(key) for key in _PLANNED], eprs.get(reply), grown)


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
# the request shape per target
# ----------------------------------------------------------------------
#: marks a key with no template (an argument '' or a sentinel collision);
#: cached so the probe is not re-run on every call.
_UNTEMPLATABLE = object()


def _bypass(operation: str, why: str) -> None:
    rec = current_recorder()
    # with the NullRecorder installed this is one attribute check and no
    # detail dict is allocated (the no-op-overhead test holds render to it)
    if rec.active:
        rec.codec_event("template-bypass", {"operation": operation, "why": why})


def _request_template(operation, params, heads):
    """The template of a request of MAP shape *heads*; :data:`_UNTEMPLATABLE`
    for an argument ``''`` or a sentinel collision."""
    if any(param == EMPTY for _, param in params):
        return _UNTEMPLATABLE
    body = rpc_tree(SLOT, operation, params)
    wire = template(envelope_shape(_MapHeaders.blocks_of(heads), (body,)))
    rec = current_recorder()
    if wire is not None and rec.active:
        rec.codec_event("template-build", {"operation": operation})
    return wire or _UNTEMPLATABLE


#: request templates the one :data:`request_templates` cache keeps
REQUEST_TEMPLATES_CAP = 256


class RequestTemplateCache:
    """The request shape per class, for the invocation hot path.

    One value walk (``value_shape``) and one MAP record (``_record``)
    give the texts and the key: their shapes and the operation.  What
    names a service — ``wsa:To``, ``wsa:Action``, the namespace, the
    target's properties — is slots, not key, so the services of one
    class share a template.  It is the template of the envelope
    ``build_rpc_request`` + ``apply_to`` would make, so the bytes are
    theirs.  Scalar and ``None`` arguments only: a list, a struct or
    ``''`` makes :meth:`render` return None and the caller builds the
    envelope the generic way.
    """

    def __init__(self):
        self._cache = ArtifactCache("envelope-templates", REQUEST_TEMPLATES_CAP)

    def render(
        self,
        maps: MessageAddressingProperties,
        namespace: str,
        operation: str,
        args: dict[str, Any],
        target: Optional[EndpointReference] = None,
    ) -> Optional[str]:
        """The full request wire text, or None to signal slow-path."""
        for value in args.values():
            if value.__class__ not in SCALAR_TYPES:  # the generic path walks it
                return _bypass(operation, "unkeyable")
        texts: list = []
        try:
            shape = value_shape(args, texts, [])
        except EncodingError:  # the generic path raises it, or an offence before it
            return _bypass(operation, "unencodable")
        recorded = None if shape is None else maps._record(target)
        if recorded is None:
            return _bypass(operation, "unkeyable")
        heads, head_texts = recorded
        key = (operation, heads, shape)
        wire = self._cache.get(key)
        if wire is None:
            wire = self._cache.put(key, _request_template(operation, shape[1], heads))
        if wire is _UNTEMPLATABLE:
            return _bypass(operation, "untemplatable")
        rendered = wire.render([*head_texts, namespace, *texts])
        if rendered is None:
            return _bypass(operation, "unrenderable")
        rec = current_recorder()
        if rec.active:
            rec.codec_event("template-hit", {"operation": operation})
        return rendered

    def invalidate_all(self) -> int:
        return self._cache.clear()


#: Process-wide template cache shared by every invocation node.
request_templates = RequestTemplateCache()
