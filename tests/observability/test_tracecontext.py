"""Wire trace-context propagation (E17).

The codec is exercised directly (encode/decode, malformed handling,
ambient windows) and end-to-end: a traced invocation must carry the
``repro:TraceContext`` header on the wire, the server must continue —
not restart — the caller's trace, and failover hops plus replication
delta ships must stay inside the one trace the client started.
"""

import pytest

from repro.observability import MetricsRegistry, SpanTracer
from repro.observability.tracecontext import (
    TRACE_HEADER,
    TraceContext,
    activate,
    begin_send,
    current_context,
    decode,
    encode,
    extract,
    header_element,
    new_span_id,
    new_trace_id,
    propagation_enabled,
    reset,
    set_propagation,
)
from repro.soap import SoapEnvelope
from repro.supervision.failover import attach_failover
from tests._oracle.reference_tracecontext import (
    TraceContextError,
    reference_decode,
    reference_encode,
)


class TestCodec:
    def test_round_trip(self):
        ctx = TraceContext.new_root()
        decoded = decode(encode(ctx))
        assert decoded == ctx
        assert decoded.trace_id == ctx.trace_id
        assert decoded.span_id == ctx.span_id

    def test_child_shares_trace_and_links_parent(self):
        parent = TraceContext.new_root()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id
        assert child.span_id != parent.span_id

    @pytest.mark.parametrize("bad", [
        "", "00", "garbage",
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",   # all-zero trace id
        "00-" + "1" * 32 + "-" + "0" * 16 + "-01",   # all-zero span id
        "99-" + "1" * 32 + "-" + "2" * 16 + "-01",   # unknown version
        "00-" + "g" * 32 + "-" + "2" * 16 + "-01",   # non-hex
        "00-" + "1" * 31 + "-" + "2" * 17 + "-01",   # wrong field widths
    ])
    def test_malformed_decodes_to_none(self, bad):
        assert decode(bad) is None
        with pytest.raises(TraceContextError):
            reference_decode(bad)

    def test_fast_and_reference_encode_agree(self):
        ctx = TraceContext(new_trace_id(), new_span_id(), "01")
        assert encode(ctx) == reference_encode(ctx)


class TestAmbient:
    def test_begin_send_is_none_when_disabled(self):
        reset()
        assert not propagation_enabled()
        assert begin_send() is None

    def test_begin_send_roots_then_children(self):
        set_propagation(True)
        root = begin_send()
        assert root is not None and root.parent_id is None
        with activate(root):
            child = begin_send()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_activate_none_is_a_noop_window(self):
        set_propagation(True)
        with activate(None):
            assert current_context() is None

    def test_extract_reads_the_header(self):
        ctx = TraceContext.new_root()
        envelope = SoapEnvelope()
        envelope.add_header(header_element(encode(ctx)))
        assert extract(envelope) == ctx

    def test_extract_none_without_header(self):
        assert extract(SoapEnvelope()) is None


class TestWirePropagation:
    def test_header_on_the_wire_and_continued_server_side(
        self, http_world, tracer, net
    ):
        consumer, provider, handle = http_world  # the fixture turns propagation on
        consumer.invoke(handle, "echo", {"message": "traced"})

        mid = tracer.message_ids[-1]
        root = tracer.trace(mid)
        trace_id = root.tags.get("trace_id")
        assert trace_id, "client root must be tagged with the wire trace id"

        # the server span continued (not restarted) the trace: its
        # parent is the client attempt's span id
        attempts = [c for c in root.children if c.kind == "attempt"]
        servers = [c for c in root.children if c.kind == "server"]
        assert attempts and servers
        assert servers[0].tags["parent_span_id"] == attempts[0].tags["span_id"]
        assert servers[0].tags["span_id"] != attempts[0].tags["span_id"]

    def test_disabled_propagation_sends_no_header(self, net, registry_node):
        from repro.core import WSPeer
        from repro.core.binding import StandardBinding
        from tests.observability.conftest import Echo

        reset()
        provider = WSPeer(
            net.add_node("prov"), StandardBinding(registry_node.endpoint))
        provider.deploy(Echo(), name="Echo")
        consumer = WSPeer(
            net.add_node("cons"), StandardBinding(registry_node.endpoint))
        tracer = SpanTracer(metrics=MetricsRegistry())
        tracer.install(consumer, provider)
        consumer.invoke(provider.local_handle("Echo"), "echo", {"message": "x"})
        root = tracer.trace(tracer.message_ids[-1])
        assert "trace_id" not in root.tags

    def test_failover_hops_stay_in_one_trace(self, net, registry_node, tracer):
        from tests.observability.conftest import build_replicated_http_world

        providers, consumer, handle = build_replicated_http_world(
            net, registry_node, tracer)
        executor = attach_failover(consumer)
        providers[0].node.go_down()
        executor.invoke(handle, "echo", {"message": "hop"}, timeout=1.0)

        traces = tracer.trace_ids()
        assert len(traces) == 1, "all hops must share the client's trace"
        stitched = tracer.distributed_trace(traces[0])
        assert stitched["invocations"] == 1
        # at least two endpoints attempted, one server answered
        root = tracer.trace(tracer.message_ids[-1])
        endpoints = {c.tags.get("endpoint") for c in root.children
                     if c.kind == "attempt"}
        assert len(endpoints) >= 2

    def test_distributed_trace_links_delta_ships(self, tracer):
        from tests.replication.conftest import CounterService, World

        world = World(CounterService)
        tracer.install(*world.providers, world.consumer)
        set_propagation(True)
        world.replicate(r=2)
        world.executor.invoke(world.handle, "increment", {"by": 1},
                              timeout=1.0)
        world.settle()

        # registry publishes / anti-entropy root their own traces; find
        # the increment call's
        call_roots = [root for _, root in tracer.traces()
                      if root.tags.get("operation") == "increment"
                      and root.tags.get("client") == "cons"]
        assert len(call_roots) == 1
        stitched = tracer.distributed_trace(call_roots[0].tags["trace_id"])
        # client call + one delta ship per replica, all in one tree
        assert stitched["invocations"] >= 3
        assert len(stitched["nodes"]) >= 3
        # the ships nest under the primary's server span, so only the
        # client's own invocation is a top-level root
        assert len(stitched["roots"]) == 1
        assert len(stitched["roots"][0]["calls"]) >= 2
