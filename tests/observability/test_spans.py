"""SpanTracer: message-correlated trees over the event tree.

Covers the correlation edge cases the layer exists for: retransmits
and failover hops folding into one logical span, bare oneways with no
RelatesTo, dedup replays, admission-rejected requests, and ring-buffer
eviction under retransmission storms.
"""

import json

import pytest

from repro.core.events import ClientMessageEvent
from repro.observability.spans import ERROR, IN_FLIGHT, OK, SENT, MAX_CHILDREN, Span, SpanTracer
from repro.observability import MetricsRegistry
from repro.reliability import ReliabilityPolicy, RetryPolicy
from repro.soap.faults import ServerBusyFault
from repro.supervision.failover import attach_failover


def retry_policy(attempts=4):
    return ReliabilityPolicy(
        retry=RetryPolicy(max_attempts=attempts, base_delay=0.0, jitter=0.0)
    )


def only_root(tracer):
    mids = tracer.message_ids
    assert len(mids) == 1
    return tracer.trace(mids[0])


class TestHttpStitching:
    def test_clean_call_is_root_attempt_server(self, http_world, tracer):
        consumer, provider, handle = http_world
        assert consumer.invoke(handle, "echo", {"message": "hi"}) == "hi"
        root = only_root(tracer)
        assert root.status == OK
        assert root.name == "Echo.echo"
        assert root.tags["client"] == "cons"
        assert root.duration is not None and root.duration > 0
        kinds = {c.kind for c in root.children}
        assert kinds == {"attempt", "server"}
        attempt = next(c for c in root.children if c.kind == "attempt")
        assert attempt.status == OK
        assert attempt.tags["attempt"] == 1
        assert "prov" in attempt.tags["endpoint"]
        server = next(c for c in root.children if c.kind == "server")
        assert server.status == OK
        assert server.tags["peer"] == "prov"
        # the server span nests inside the attempt's window
        assert attempt.start <= server.start <= server.end <= attempt.end

    def test_latency_histogram_fed_from_root_duration(self, http_world, tracer):
        consumer, _, handle = http_world
        consumer.invoke(handle, "echo", {"message": "x"})
        hist = tracer.metrics.histogram("invocation.latency")
        assert hist.count == 1
        assert hist.min > 0

    def test_trace_dict_and_jsonl_round_trip(self, http_world, tracer, tmp_path):
        consumer, _, handle = http_world
        consumer.invoke(handle, "echo", {"message": "x"})
        mid = tracer.message_ids[0]
        as_dict = tracer.trace_dict(mid)
        assert as_dict["tags"]["message_id"] == mid
        assert len(as_dict["children"]) == 2
        path = tmp_path / "spans.jsonl"
        assert tracer.export_jsonl(str(path)) == 1
        line = json.loads(path.read_text().splitlines()[0])
        assert line["message_id"] == mid
        assert line["status"] == OK

    def test_render_shows_tree_connectors(self, http_world, tracer):
        consumer, _, handle = http_world
        consumer.invoke(handle, "echo", {"message": "x"})
        text = tracer.render(tracer.message_ids[0])
        assert "Echo.echo" in text
        assert "├─ " in text or "└─ " in text
        assert tracer.render("urn:uuid:nope").startswith("(no trace for")


class TestRetransmits:
    def test_lost_request_yields_attempt_children_one_root(
        self, http_world, tracer, net
    ):
        consumer, provider, handle = http_world
        dropped = {"n": 0}

        def drop_first_request(frame):
            if frame.port.startswith("http:") and dropped["n"] == 0:
                dropped["n"] += 1
                return False
            return True

        net.add_delivery_hook(drop_first_request)
        assert (
            consumer.invoke(handle, "echo", {"message": "again"},
                            timeout=0.5, policy=retry_policy())
            == "again"
        )
        root = only_root(tracer)  # the retry reused the MessageID
        assert root.status == OK
        attempts = [c for c in root.children if c.kind == "attempt"]
        assert len(attempts) == 2
        assert attempts[0].status == ERROR  # superseded by the retransmit
        assert attempts[1].status == OK
        assert attempts[1].tags["attempt"] == 2

    def test_duplicate_response_after_dedup_tagged_on_tree(
        self, http_world, tracer, net
    ):
        """Response lost -> same MessageID retransmitted -> the provider
        replays from the dedup store; the tree shows the replay instead
        of a phantom second invocation."""
        consumer, provider, handle = http_world
        state = {"dropped": 0}

        def drop_first_response(frame):
            if frame.meta.get("kind") == "response" and state["dropped"] == 0:
                state["dropped"] += 1
                return False
            return True

        net.add_delivery_hook(drop_first_response)
        assert (
            consumer.invoke(handle, "echo", {"message": "once"},
                            timeout=0.5, policy=retry_policy())
            == "once"
        )
        root = only_root(tracer)
        assert root.status == OK
        duplicates = [c for c in root.children if c.tags.get("duplicate")]
        assert duplicates, "dedup replay did not surface in the trace"
        servers = [c for c in root.children if c.kind == "server"]
        # the first (real) execution plus the replay marker — never two
        # plain executions
        assert len([s for s in servers if not s.tags.get("duplicate")]) == 1


class TestFailover:
    def test_failover_hops_stitch_into_one_tree(self, net, registry_node, tracer):
        from tests.observability.conftest import build_replicated_http_world

        providers, consumer, handle = build_replicated_http_world(
            net, registry_node, tracer
        )
        ex = attach_failover(consumer)
        ex.invoke(handle, "echo", {"message": "warm"}, timeout=1.0)
        providers[0].node.go_down()
        before = set(tracer.message_ids)
        assert (
            ex.invoke(handle, "echo", {"message": "rerouted"}, timeout=1.0)
            == "rerouted"
        )
        new = [m for m in tracer.message_ids if m not in before]
        assert len(new) == 1, "failover minted extra MessageIDs"
        root = tracer.trace(new[0])
        assert root.status == OK
        assert "error" not in root.tags  # provisional failure was reopened
        attempts = [c for c in root.children if c.kind == "attempt"]
        assert len(attempts) >= 2
        endpoints = {a.tags.get("endpoint") for a in attempts}
        assert len(endpoints) >= 2, "attempts did not change endpoint"
        assert any(kind == "failover" for _, kind, _ in root.annotations)

    def test_all_endpoints_dead_closes_root_error(self, net, registry_node, tracer):
        from tests.observability.conftest import build_replicated_http_world

        providers, consumer, handle = build_replicated_http_world(
            net, registry_node, tracer, n_providers=2
        )
        ex = attach_failover(consumer)
        for p in providers:
            p.node.go_down()
        with pytest.raises(Exception):
            ex.invoke(handle, "echo", {"message": "void"}, timeout=0.3)
        root = tracer.trace(tracer.message_ids[-1])
        assert root.status == ERROR
        assert root.end is not None
        assert root.tags.get("error")


class TestOneway:
    def test_bare_oneway_closes_as_sent_no_relates_to(self, p2ps_world, tracer, net):
        consumer, provider, handle = p2ps_world
        before = len(tracer)
        assert consumer.invoke_oneway(handle, "echo", {"message": "quiet"}) is None
        net.run()
        assert len(tracer) == before + 1
        root = tracer.trace(tracer.message_ids[-1])
        assert root.status == SENT
        assert root.end == root.start  # complete at send time
        (attempt,) = [c for c in root.children if c.kind == "attempt"]
        assert attempt.status == SENT

    def test_acked_oneway_closes_ok_and_feeds_ack_latency(
        self, p2ps_world, tracer, net
    ):
        consumer, provider, handle = p2ps_world
        status = consumer.invoke_oneway(
            handle, "echo", {"message": "sure"}, policy=ReliabilityPolicy.assured()
        )
        net.run()
        assert status.acked
        root = tracer.trace(status.message_id)
        assert root is not None
        assert root.status == OK
        assert tracer.metrics.histogram("oneway.ack_latency").count == 1


class TestAdmissionRejected:
    def test_shed_request_appears_as_busy_server_child(self, http_world, tracer):
        consumer, provider, handle = http_world
        provider.server.container.set_admission_control(capacity=1.0, drain_rate=0.01)
        consumer.invoke(handle, "echo", {"message": "a"}, timeout=1.0)
        consumer.invoke(handle, "echo", {"message": "b"}, timeout=1.0)
        before = set(tracer.message_ids)
        with pytest.raises(ServerBusyFault):
            consumer.invoke(handle, "echo", {"message": "c"}, timeout=1.0)
        new = [m for m in tracer.message_ids if m not in before]
        assert len(new) == 1
        root = tracer.trace(new[0])
        assert root.end is not None  # shed calls never stay open
        busy = [c for c in root.children
                if c.kind == "server" and c.status == "busy"]
        assert busy, "no busy server child recorded for the shed request"
        assert busy[0].tags.get("retry_after") is not None
        assert any(kind == "request-shed" for _, kind, _ in root.annotations)


class TestRingBuffer:
    def test_eviction_under_load_keeps_newest(self, net, registry_node):
        from repro.core import WSPeer
        from repro.core.binding import StandardBinding
        from tests.observability.conftest import Echo

        provider = WSPeer(net.add_node("prov"), StandardBinding(registry_node.endpoint))
        provider.deploy(Echo(), name="Echo")
        handle = provider.local_handle("Echo")
        consumer = WSPeer(net.add_node("cons"), StandardBinding(registry_node.endpoint))
        small = SpanTracer(max_spans=4, metrics=MetricsRegistry())
        small.install(consumer)
        for i in range(10):
            consumer.invoke(handle, "echo", {"message": str(i)})
        assert len(small) == 4
        assert small.evicted == 6
        assert small.metrics.get("tracing.spans_evicted") == 6
        # survivors are the newest, all complete
        for _, span in small.traces():
            assert span.status == OK

    def test_retransmission_storm_respects_children_cap(self):
        """Synthetic storm: one MessageID retransmitted far past the cap
        must tally drops instead of growing the tree without bound."""
        tracer = SpanTracer(metrics=MetricsRegistry())
        mid = "urn:uuid:storm"
        tracer.observe(ClientMessageEvent(
            "request-sent", 0.0, "invocation",
            {"message_id": mid, "service": "Echo", "operation": "echo",
             "endpoint": "http://prov:80/Echo"},
        ))
        for i in range(2, MAX_CHILDREN + 50):
            tracer.observe(ClientMessageEvent(
                "retransmit", 0.001 * i, "invocation",
                {"message_id": mid, "attempt": i},
            ))
        root = only_root(tracer)
        assert len(root.children) == MAX_CHILDREN
        assert root.tags["children_dropped"] == 49
        assert len(tracer) == 1  # still one logical span

    def test_max_spans_validated(self):
        with pytest.raises(ValueError):
            SpanTracer(max_spans=0)


class TestUncorrelatedAndUnknown:
    def test_unknown_kind_with_message_id_is_tallied_and_annotated(self):
        tracer = SpanTracer(metrics=MetricsRegistry())
        mid = "urn:uuid:odd"
        tracer.observe(ClientMessageEvent(
            "request-sent", 0.0, "invocation",
            {"message_id": mid, "service": "S", "operation": "op"},
        ))
        tracer.observe(ClientMessageEvent(
            "mystery-kind", 0.1, "invocation", {"message_id": mid},
        ))
        assert tracer.unknown_kinds == {"mystery-kind": 1}
        root = tracer.trace(mid)
        assert any(kind == "mystery-kind" for _, kind, _ in root.annotations)

    def test_no_message_id_lands_in_uncorrelated(self, http_world, tracer):
        consumer, provider, handle = http_world
        baseline = len(tracer.uncorrelated)
        consumer.locate("Echo", timeout=0.5)  # discovery traffic has no mid
        assert len(tracer.uncorrelated) > baseline
        assert len(tracer) == 0  # and opened no span


class TestSimnetSink:
    def test_frames_annotate_open_attempts_even_with_tracelog_disabled(
        self, net, registry_node, tracer
    ):
        from repro.core import WSPeer
        from repro.core.binding import StandardBinding
        from tests.observability.conftest import Echo

        assert net.trace.enabled is False  # retention off by default...
        net.trace.sink = tracer.simnet_sink()  # ...but the sink still sees all
        provider = WSPeer(net.add_node("prov"), StandardBinding(registry_node.endpoint))
        provider.deploy(Echo(), name="Echo")
        consumer = WSPeer(net.add_node("cons"), StandardBinding(registry_node.endpoint))
        tracer.install(consumer, provider)
        consumer.invoke(provider.local_handle("Echo"), "echo", {"message": "x"})
        assert len(net.trace.records) == 0  # nothing retained
        root = tracer.trace(tracer.message_ids[0])
        attempt = next(c for c in root.children if c.kind == "attempt")
        frame_kinds = {kind for _, kind, _ in attempt.annotations}
        assert any(kind.startswith("frame-") for kind in frame_kinds)
        assert tracer.metrics.get("simnet.delivered") > 0


class TestUninstall:
    def test_uninstall_stops_observation(self, http_world, tracer):
        consumer, provider, handle = http_world
        consumer.invoke(handle, "echo", {"message": "x"})
        seen = tracer.events_seen
        tracer.uninstall()
        consumer.invoke(handle, "echo", {"message": "y"})
        assert tracer.events_seen == seen
        assert len(tracer) == 1


class TestSpanPrimitive:
    def test_annotation_cap(self):
        span = Span("s", "test", 0.0)
        from repro.observability.spans import MAX_ANNOTATIONS

        for i in range(MAX_ANNOTATIONS + 5):
            span.annotate(float(i), "k", {})
        assert len(span.annotations) == MAX_ANNOTATIONS
        assert span.tags["annotations_dropped"] == 5

    def test_duration_open_is_none(self):
        span = Span("s", "test", 1.0)
        assert span.duration is None
        assert span.status == IN_FLIGHT
        span.close(3.5, OK)
        assert span.duration == 2.5
