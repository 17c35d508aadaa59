"""Wire-propagated trace context (E17): one causal tree across nodes.

E10's :class:`~repro.observability.spans.SpanTracer` stitches spans by
``wsa:MessageID`` — which correlates retransmits and failover hops of
*one* logical call, but says nothing about causality *between* calls:
a replication delta ship triggered by a client request is a different
MessageID on a different node, and without a link on the wire the two
trees are forever disjoint.

This module is that link, modelled on the W3C ``traceparent`` header
but carried as a SOAP header block (``rt:TraceContext`` in
:data:`TRACE_NS`), so it rides every binding the stack speaks:

    ``00-<32 hex trace-id>-<16 hex parent-span-id>-<2 hex flags>``

The *trace-id* names the whole causal tree; the *span-id* field names
the **sender's** span, which becomes the receiver's parent.  Receivers
continue the trace with :meth:`TraceContext.child`; senders derive the
outgoing context from the ambient one (:func:`begin_send`), so a
provider that ships deltas mid-request automatically stamps them as
children of its server span.

Identifiers come from deterministic counters, not randomness — the
simulation's reproducibility guarantee (same seed, same trace ids)
outranks the collision-resistance argument for random ids, and the
process-wide counters are unique where it matters.  A minted id stays
the counter's int until first read (encode, event tags, export).

One codec: :func:`encode`/:func:`decode` (one f-string / one match).
The deliberately naive, strict reference the property tests hold it
byte-identical to is a test oracle (``tests/_oracle``), like the XML
one.  The header block itself is a plain leaf: the wire templates
splice its text and a decoded envelope hands it over as a slot text
(:func:`raw_context_of`), so neither direction builds an element for it.

Everything is gated on one module switch (:func:`set_propagation`):
disabled, the per-call cost is a single boolean check and no header is
written or read.
"""

from __future__ import annotations

import itertools
import re
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.xmlkit import Element, QName, ns

#: namespace of the ``rt:TraceContext`` SOAP header block
TRACE_NS = ns.TRACE

#: the header's qualified name (a sibling of the wsa:* blocks)
TRACE_HEADER = QName(TRACE_NS, "TraceContext", "rt")

#: the one supported traceparent version
VERSION = "00"

#: default flags: "sampled" (the only flag this stack interprets)
FLAG_SAMPLED = "01"

#: the whole traceparent value: lower-case hex fields, all-zero ids refused
_WIRE = re.compile(
    VERSION + r"-(?!0{32})([0-9a-f]{32})-(?!0{16})([0-9a-f]{16})-([0-9a-f]{2})"
)

_trace_ids = itertools.count(1)
_span_ids = itertools.count(1)


def new_trace_id() -> str:
    """Mint a 32-hex trace id (deterministic per-process counter)."""
    return f"{next(_trace_ids):032x}"


def new_span_id() -> str:
    """Mint a 16-hex span id (deterministic per-process counter)."""
    return f"{next(_span_ids):016x}"


class TraceContext:
    """One point in a causal tree: (trace, this span, its parent).

    Ids are hex text or counter ints; the ``*_id`` properties read text."""

    __slots__ = ("_trace", "_span", "flags", "_parent")

    def __init__(
        self,
        trace_id: "str | int",
        span_id: "str | int",
        flags: str = FLAG_SAMPLED,
        parent_id: "str | int | None" = None,
    ):
        self._trace = trace_id
        self._span = span_id
        self.flags = flags
        #: the span that caused this one (None at a trace root); not
        #: carried on the wire — the wire's span-id field *is* the
        #: parent from the receiver's point of view
        self._parent = parent_id

    @property
    def trace_id(self) -> str:
        if self._trace.__class__ is int:
            self._trace = f"{self._trace:032x}"
        return self._trace

    @property
    def span_id(self) -> str:
        if self._span.__class__ is int:
            self._span = f"{self._span:016x}"
        return self._span

    @property
    def parent_id(self) -> Optional[str]:
        if self._parent.__class__ is int:
            self._parent = f"{self._parent:016x}"
        return self._parent

    @classmethod
    def new_root(cls, flags: str = FLAG_SAMPLED) -> "TraceContext":
        """A fresh trace with no parent (a client-originated call)."""
        return cls(next(_trace_ids), next(_span_ids), flags)

    def child(self) -> "TraceContext":
        """A new span in the same trace, parented on this one."""
        return TraceContext(self._trace, next(_span_ids), self.flags, self._span)

    def encoded(self) -> str:
        return encode(self)

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.flags == other.flags
            and self.parent_id == other.parent_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.flags, self.parent_id))

    def __repr__(self) -> str:
        return f"<TraceContext {self.trace_id[-8:]}/{self.span_id[-8:]}>"


# ----------------------------------------------------------------------
# codecs
# ----------------------------------------------------------------------
def encode(ctx: TraceContext) -> str:
    """The fast-path traceparent encoding (one f-string)."""
    return f"{VERSION}-{ctx.trace_id}-{ctx.span_id}-{ctx.flags}"


def decode(text: str) -> Optional[TraceContext]:
    """The fast-path decode: None for anything malformed.

    The property tests hold this byte-identical (through re-encode) to
    the reference codec on every input the reference accepts, and
    equally rejecting on every input it rejects.
    """
    match = _WIRE.fullmatch(text)
    return None if match is None else TraceContext(*match.groups())


# ----------------------------------------------------------------------
# SOAP header binding
# ----------------------------------------------------------------------
def header_element(encoded: str) -> Element:
    """The ``rt:TraceContext`` header block carrying *encoded*."""
    return Element(TRACE_HEADER, text=encoded, nsdecls={"rt": TRACE_NS})


def raw_context_of(envelope: Any) -> Optional[str]:
    """The header's raw text from a parsed envelope, or None.

    Duck-typed on ``header_text`` so this module stays a leaf (no soap
    import) and a decoded envelope's blocks stay slot texts;
    malformedness is the caller's problem — pair with :func:`decode`.
    """
    return envelope.header_text(TRACE_HEADER) or None


def extract(envelope: Any) -> Optional[TraceContext]:
    """Decode the envelope's trace context (None: absent or malformed)."""
    raw = raw_context_of(envelope)
    return decode(raw) if raw else None


# ----------------------------------------------------------------------
# propagation switch + ambient context
# ----------------------------------------------------------------------
_propagate = False

#: the ambient context stack: the innermost entry is "the span whose
#: work is executing right now" on this (single-threaded, virtual-time)
#: process.  Windows are strictly nested because the container runs
#: request processing synchronously; async callbacks capture their
#: context at send time (the wire is built once), not from ambient.
_ambient: list[TraceContext] = []


def set_propagation(enabled: bool) -> bool:
    """Switch trace-context injection/extraction on; returns previous."""
    global _propagate
    previous = _propagate
    _propagate = bool(enabled)
    return previous


def propagation_enabled() -> bool:
    return _propagate


def current_context() -> Optional[TraceContext]:
    """The innermost ambient context (None outside any window)."""
    return _ambient[-1] if _ambient else None


@contextmanager
def activate(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Make *ctx* ambient for the duration of the with-block.

    None is a no-op window, so call sites need no conditional.
    """
    if ctx is None:
        yield None
        return
    _ambient.append(ctx)
    try:
        yield ctx
    finally:
        _ambient.pop()


def begin_send() -> Optional[TraceContext]:
    """The context for an outgoing invocation, or None when off.

    Inside an ambient window (a server handling a request, a failover
    executor driving attempts) the send continues that trace; outside
    one, it roots a new trace.
    """
    if not _propagate:
        return None
    parent = _ambient[-1] if _ambient else None
    return parent.child() if parent is not None else TraceContext.new_root()


def event_fields(ctx: Optional[TraceContext]) -> dict[str, Any]:
    """The trace tags an event detail dict carries ({} when untraced)."""
    if ctx is None:
        return {}
    fields: dict[str, Any] = {"trace_id": ctx.trace_id, "span_id": ctx.span_id}
    if ctx.parent_id is not None:
        fields["parent_span_id"] = ctx.parent_id
    return fields


def reset() -> None:
    """Disable propagation and drop any leaked ambient windows (test
    hygiene; does not rewind the id counters — ids stay unique)."""
    global _propagate
    _propagate = False
    _ambient.clear()
