"""The frozen reference codec of the ``rt:TraceContext`` header value.

Deliberately naive and strict: field-by-field concatenation on the way
out, offset-by-offset validation on the way in.  The property tests
hold the product's fast codec (``repro.observability.tracecontext``
``encode`` / ``decode``) byte-identical to it on every valid context and
equally rejecting on every malformed one.  It shares nothing with the
fast codec but the data model it builds.
"""

from __future__ import annotations

from repro.observability.tracecontext import TraceContext

#: the one supported traceparent version
VERSION = "00"

_HEX = frozenset("0123456789abcdef")


class TraceContextError(ValueError):
    """A malformed traceparent value (the fast path returns None and
    lets the caller count the drop)."""


def reference_encode(ctx: TraceContext) -> str:
    """Field-by-field concatenation, no f-string."""
    return "-".join([VERSION, ctx.trace_id, ctx.span_id, ctx.flags])


def reference_decode(text: str) -> TraceContext:
    """The strict decoder; raises :class:`TraceContextError`."""
    if not isinstance(text, str):
        raise TraceContextError("traceparent must be a string")
    if len(text) != 55:
        raise TraceContextError(f"traceparent must be 55 chars, got {len(text)}")
    for position in (2, 35, 52):
        if text[position] != "-":
            raise TraceContextError(f"missing separator at offset {position}")
    version = text[0:2]
    trace_id = text[3:35]
    span_id = text[36:52]
    flags = text[53:55]
    if version != VERSION:
        raise TraceContextError(f"unsupported version {version!r}")
    for name, field in (("trace-id", trace_id), ("span-id", span_id), ("flags", flags)):
        for ch in field:
            if ch not in _HEX:
                raise TraceContextError(f"non-hex character {ch!r} in {name}")
    if trace_id == "0" * 32:
        raise TraceContextError("all-zero trace-id is invalid")
    if span_id == "0" * 16:
        raise TraceContextError("all-zero span-id is invalid")
    return TraceContext(trace_id, span_id, flags)
