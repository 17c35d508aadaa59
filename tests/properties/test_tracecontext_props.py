"""Property-based tests: the trace-context codec vs its reference.

E8 discipline applied to the E17 header: the fast codec
(:func:`encode`/:func:`decode`) must agree byte-for-byte with the
frozen strict reference in :mod:`tests._oracle.reference_tracecontext`
(:func:`reference_encode`/:func:`reference_decode`) on every valid context, and the two must
agree on *rejection* for arbitrary malformed text — the fast path
returns ``None`` exactly when the reference raises.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.tracecontext import FLAG_SAMPLED, TraceContext, decode, encode
from tests._oracle.reference_tracecontext import (
    TraceContextError,
    reference_decode,
    reference_encode,
)

_hex = string.hexdigits.lower()[:16]

_trace_ids = st.text(alphabet=_hex, min_size=32, max_size=32).filter(
    lambda s: s != "0" * 32
)
_span_ids = st.text(alphabet=_hex, min_size=16, max_size=16).filter(
    lambda s: s != "0" * 16
)
_flags = st.one_of(
    st.just(FLAG_SAMPLED),
    st.text(alphabet=_hex, min_size=2, max_size=2),
)

_contexts = st.builds(TraceContext, _trace_ids, _span_ids, _flags)


class TestValidContexts:
    @given(_contexts)
    @settings(max_examples=200)
    def test_fast_and_reference_encode_byte_identical(self, ctx):
        assert encode(ctx) == reference_encode(ctx)

    @given(_contexts)
    @settings(max_examples=200)
    def test_inject_extract_round_trips_both_codecs(self, ctx):
        wire = encode(ctx)
        fast = decode(wire)
        ref = reference_decode(wire)
        assert fast == ctx
        assert ref == ctx
        assert (fast.trace_id, fast.span_id, fast.flags) == (
            ref.trace_id, ref.span_id, ref.flags)
        # re-encoding the decoded context reproduces the wire bytes
        assert encode(fast) == wire
        assert reference_encode(ref) == wire

    @given(_contexts)
    @settings(max_examples=100)
    def test_child_round_trips_too(self, ctx):
        # the wire carries (trace_id, span_id, flags); the parent link
        # is implicit — the receiver's own span id IS the wire span id
        child = ctx.child()
        wire = encode(child)
        fast, ref = decode(wire), reference_decode(wire)
        assert fast == ref
        for got in (fast, ref):
            assert got.trace_id == child.trace_id
            assert got.span_id == child.span_id
            assert got.flags == child.flags


class TestMalformedAgreement:
    @given(st.text(max_size=80))
    @settings(max_examples=300)
    def test_fast_none_iff_reference_raises(self, text):
        fast = decode(text)
        try:
            ref = reference_decode(text)
        except TraceContextError:
            assert fast is None, (
                f"fast codec accepted {text!r} the reference rejects")
        else:
            assert fast == ref, (
                f"codecs decoded {text!r} differently: {fast} vs {ref}")

    @given(_contexts, st.integers(min_value=0, max_value=54),
           st.sampled_from("xg -Z."))
    @settings(max_examples=200)
    def test_single_character_corruption_agrees(self, ctx, pos, char):
        wire = encode(ctx)
        corrupted = wire[:pos] + char + wire[pos + 1:]
        fast = decode(corrupted)
        try:
            ref = reference_decode(corrupted)
        except TraceContextError:
            assert fast is None
        else:
            assert fast == ref
