"""End-to-end reliability over both bindings: retries that reuse the
MessageID, provider dedup for non-idempotent services, acked one-way
sends over pipes, and circuit breakers shedding calls to dead peers."""

import pytest

from repro.core import InvocationError, WSPeer
from repro.core.binding import P2psBinding, StandardBinding
from repro.core.events import RecordingListener
from repro.observability import default_registry
from repro.p2ps import PeerGroup
from repro.reliability import (
    BreakerConfig,
    CircuitOpenError,
    DeadlineExceededError,
    ReliabilityPolicy,
    RetryPolicy,
)
from repro.simnet import FixedLatency, Network
from repro.uddi import UddiRegistryNode


class CountingService:
    def __init__(self):
        self.executions = 0

    def bump(self) -> int:
        self.executions += 1
        return self.executions


class Notebook:
    def __init__(self):
        self.notes = []

    def note(self, text: str) -> int:
        self.notes.append(text)
        return len(self.notes)


def retry_policy(attempts=4):
    # zero backoff, default classification (retry anything but SoapFault)
    return ReliabilityPolicy(
        retry=RetryPolicy(max_attempts=attempts, base_delay=0.0, jitter=0.0)
    )


def build_http_world():
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    service = CountingService()
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    deployed = provider.deploy(service, name="Counting")
    provider.publish("Counting")
    net.run()
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    handle = consumer.locate_one("Counting")
    return net, provider, consumer, handle, service, deployed


def build_p2ps_world(service_obj, name):
    net = Network(latency=FixedLatency(0.002))
    group = PeerGroup("g")
    provider = WSPeer(net.add_node("prov"), P2psBinding(group), name="prov")
    provider.deploy(service_obj, name=name)
    provider.publish(name)
    net.run()
    consumer = WSPeer(net.add_node("cons"), P2psBinding(group), name="cons")
    handle = consumer.locate_one(name)
    return net, provider, consumer, handle


class TestHttpRetry:
    def test_retry_recovers_from_request_loss(self):
        net, provider, consumer, handle, service, _ = build_http_world()
        dropped = {"n": 0}

        def drop_first_request(frame):
            if frame.meta.get("kind") == "request" and dropped["n"] == 0:
                dropped["n"] += 1
                return False
            return True

        net.add_delivery_hook(drop_first_request)
        listener = RecordingListener()
        consumer.add_listener(listener)
        assert consumer.invoke(
            handle, "bump", timeout=0.5, policy=retry_policy()
        ) == 1
        assert dropped["n"] == 1
        assert len(listener.of_kind("retransmit")) == 1

    def test_dedup_keeps_stateful_executions_at_once(self):
        """Response lost -> retransmit same MessageID -> provider must
        replay the retained response, not re-run the counter."""
        net, provider, consumer, handle, service, deployed = build_http_world()
        state = {"dropped": 0}

        def drop_first_response(frame):
            if frame.meta.get("kind") == "response" and state["dropped"] == 0:
                state["dropped"] += 1
                return False
            return True

        net.add_delivery_hook(drop_first_response)
        assert consumer.invoke(
            handle, "bump", timeout=0.5, policy=retry_policy()
        ) == 1
        assert service.executions == 1
        assert deployed.duplicates_suppressed == 1

    def test_standard_binding_default_does_not_retry_timeouts(self):
        net, provider, consumer, handle, service, _ = build_http_world()
        provider.node.go_down()  # silent loss -> client-side timeout
        from repro.transport import TransportTimeoutError

        listener = RecordingListener()
        consumer.add_listener(listener)
        with pytest.raises(TransportTimeoutError):
            consumer.invoke(handle, "bump", timeout=0.3)
        assert listener.of_kind("retransmit") == []


class TestP2psPolicyRetry:
    def test_explicit_policy_drives_retransmission(self):
        net, provider, consumer, handle = build_p2ps_world(
            CountingService(), "Counting"
        )
        dropped = {"n": 0}

        def drop_first(frame):
            if frame.port.startswith("pipe:") and dropped["n"] == 0:
                dropped["n"] += 1
                return False
            return True

        net.add_delivery_hook(drop_first)
        assert consumer.invoke(
            handle, "bump", timeout=0.2, policy=retry_policy()
        ) == 1

    def test_binding_default_retransmits_without_opting_in(self):
        net, provider, consumer, handle = build_p2ps_world(
            CountingService(), "Counting"
        )
        dropped = {"n": 0}

        def drop_first(frame):
            if frame.port.startswith("pipe:") and dropped["n"] == 0:
                dropped["n"] += 1
                return False
            return True

        net.add_delivery_hook(drop_first)
        listener = RecordingListener()
        consumer.add_listener(listener)
        # no policy argument, no default_retries: the P2psBinding default
        # (3 attempts) recovers on its own
        assert consumer.invoke(handle, "bump", timeout=0.2) == 1
        (retransmit,) = listener.of_kind("retransmit")
        assert "no response" in retransmit.detail["reason"]

    def test_backoff_delays_retransmits(self):
        net, provider, consumer, handle = build_p2ps_world(
            CountingService(), "Counting"
        )
        provider.node.go_down()
        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=0.1, multiplier=2.0, jitter=0.0)
        )
        with pytest.raises(InvocationError, match="after 3 attempt"):
            consumer.invoke(handle, "bump", timeout=0.2, policy=policy)
        # 3 x 0.2s timeouts + 0.1 + 0.2 backoffs
        assert net.now >= 0.9 * 0.99


    def test_late_reply_during_backoff_completes_the_call(self):
        """The reply pipe belongs to the call, not to one send: an answer
        that lands after its attempt's timer lapsed still completes the
        call, and the pending retransmission never leaves."""
        net, provider, consumer, handle = build_p2ps_world(
            CountingService(), "Counting"
        )
        listener = RecordingListener()
        consumer.add_listener(listener)
        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0)
        )
        # round trip is 4 ms: the 3 ms timer lapses first, then the reply lands
        started = net.now
        assert consumer.invoke(handle, "bump", timeout=0.003, policy=policy) == 1
        assert net.now - started == pytest.approx(0.004)
        assert len(listener.of_kind("retransmit")) == 1  # announced, then cancelled
        frames_sent = net.sent.get("cons")
        net.run()
        assert net.sent.get("cons") == frames_sent
        assert net.now - started == pytest.approx(0.004)  # no timer outlived the call


class TestDeadlineBudget:
    @pytest.mark.parametrize("binding", ["http", "p2ps"])
    def test_attempt_timeout_is_trimmed_to_the_deadline(self, binding):
        """deadline=0.3 with timeout=1.0 fails at 0.3 s on either binding:
        the budget caps each attempt's wait, not just the retry schedule."""
        if binding == "http":
            net, provider, consumer, handle, _, _ = build_http_world()
        else:
            net, provider, consumer, handle = build_p2ps_world(
                CountingService(), "Counting"
            )
        provider.node.go_down()
        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
            deadline=0.3,
        )
        started = net.now
        with pytest.raises(DeadlineExceededError):
            consumer.invoke(handle, "bump", timeout=1.0, policy=policy)
        assert net.now - started == pytest.approx(0.3)


class TestAckedOneway:
    def test_clean_network_acks_first_attempt(self):
        net, provider, consumer, handle = build_p2ps_world(Notebook(), "Notes")
        listener = RecordingListener()
        consumer.add_listener(listener)
        status = consumer.invoke_oneway(
            handle, "note", {"text": "hello"}, policy=ReliabilityPolicy.assured()
        )
        assert status is not None and not status.done
        net.run()
        assert status.acked
        assert status.attempts == 1
        assert status.acked_at is not None
        assert len(listener.of_kind("oneway-acked")) == 1

    def test_lost_frame_is_retransmitted_until_acked(self):
        net, provider, consumer, handle = build_p2ps_world(Notebook(), "Notes")
        dropped = {"n": 0}

        def drop_first(frame):
            if frame.port.startswith("pipe:") and dropped["n"] == 0:
                dropped["n"] += 1
                return False
            return True

        net.add_delivery_hook(drop_first)
        listener = RecordingListener()
        consumer.add_listener(listener)
        retransmits = default_registry().get("client.retransmits")
        status = consumer.invoke_oneway(
            handle, "note", {"text": "hello"}, policy=ReliabilityPolicy.assured()
        )
        net.run()
        assert status.acked
        assert status.attempts == 2
        # the same on_retry as every other path: counter and reason included
        assert default_registry().get("client.retransmits") == retransmits + 1
        (retransmit,) = listener.of_kind("retransmit")
        assert "no response" in retransmit.detail["reason"]

    def test_lost_ack_reacked_without_reexecution(self):
        net, provider, consumer, handle = build_p2ps_world(Notebook(), "Notes")
        deployed = provider.server.container.get("Notes")
        state = {"dropped": 0}

        def drop_first_provider_frame(frame):
            if frame.src == "prov" and state["dropped"] == 0:
                state["dropped"] += 1
                return False  # the ack is lost; request already executed
            return True

        net.add_delivery_hook(drop_first_provider_frame)
        status = consumer.invoke_oneway(
            handle, "note", {"text": "once"}, policy=ReliabilityPolicy.assured()
        )
        net.run()
        assert status.acked
        assert status.attempts == 2
        assert deployed.requests_processed == 1  # dup was re-acked, not re-run
        assert deployed.duplicates_suppressed == 1

    def test_shed_oneway_is_not_acked(self):
        """Regression: receipt used to be acked *before* admission, so a
        shed one-way reported acked=True and was silently dropped.
        Admission runs first now: acked statuses == executions, and the
        unacked sends are retransmitted and surface their failure."""
        notebook = Notebook()
        net, provider, consumer, handle = build_p2ps_world(notebook, "Notes")
        provider.server.container.set_admission_control(capacity=1, drain_rate=0.001)
        listener = RecordingListener()
        provider.add_listener(listener)
        statuses = [
            consumer.invoke_oneway(
                handle, "note", {"text": f"n{i}"}, policy=ReliabilityPolicy.assured()
            )
            for i in range(4)
        ]
        net.run()
        acked = [s for s in statuses if s.acked]
        assert len(acked) == len(notebook.notes) < len(statuses)
        assert len(listener.of_kind("ack-sent")) == len(acked)
        for status in statuses:
            if not status.acked:
                assert status.attempts > 1  # retransmitted after backoff
                assert isinstance(status.error, InvocationError)
        # a shed request is not remembered either: every attempt was
        # either executed or shed afresh, none replayed
        assert listener.of_kind("duplicate-suppressed") == []
        assert len(listener.of_kind("request-shed")) == (
            sum(s.attempts for s in statuses) - len(notebook.notes)
        )

    def test_dead_provider_exhausts_attempts(self):
        net, provider, consumer, handle = build_p2ps_world(Notebook(), "Notes")
        provider.node.go_down()
        status = consumer.invoke_oneway(
            handle, "note", {"text": "void"},
            policy=ReliabilityPolicy(
                retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
                ack=True,
            ),
            timeout=0.2,
        )
        net.run()
        assert not status.acked
        assert isinstance(status.error, InvocationError)
        assert status.attempts == 2

    def test_bare_oneway_still_fire_and_forget(self):
        net, provider, consumer, handle = build_p2ps_world(Notebook(), "Notes")
        ports_before = set(consumer.node.ports)
        result = consumer.invoke_oneway(handle, "note", {"text": "quiet"})
        assert result is None  # no status object, no ack pipe
        assert set(consumer.node.ports) == ports_before
        net.run()


class TestCircuitBreaker:
    def _policy(self):
        return ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            breaker=BreakerConfig(min_calls=2, failure_threshold=0.5, open_timeout=60.0),
        )

    def test_opens_after_repeated_failures_and_fails_fast(self):
        net, provider, consumer, handle = build_p2ps_world(
            CountingService(), "Counting"
        )
        provider.node.go_down()
        listener = RecordingListener()
        consumer.add_listener(listener)
        for _ in range(2):
            with pytest.raises(InvocationError):
                consumer.invoke(handle, "bump", timeout=0.2, policy=self._policy())
        assert len(listener.of_kind("circuit-open")) == 1
        before = net.now
        with pytest.raises(CircuitOpenError):
            consumer.invoke(handle, "bump", timeout=0.2, policy=self._policy())
        assert net.now == before  # shed instantly: no frames, no timers

    def test_half_open_probe_recovers_after_timeout(self):
        net, provider, consumer, handle = build_p2ps_world(
            CountingService(), "Counting"
        )
        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            breaker=BreakerConfig(min_calls=2, failure_threshold=0.5, open_timeout=1.0),
        )
        provider.node.go_down()
        for _ in range(2):
            with pytest.raises(InvocationError):
                consumer.invoke(handle, "bump", timeout=0.2, policy=policy)
        provider.node.go_up()
        # let the open_timeout lapse in virtual time
        net.kernel.schedule(1.5, lambda: None)
        net.run()
        listener = RecordingListener()
        consumer.add_listener(listener)
        assert consumer.invoke(handle, "bump", timeout=0.2, policy=policy) == 1
        kinds = [e for e in ("circuit-half-open", "circuit-closed")
                 for _ in listener.of_kind(e)]
        assert kinds == ["circuit-half-open", "circuit-closed"]
