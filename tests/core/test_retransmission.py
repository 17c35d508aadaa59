"""Tests for P2PS retransmission and duplicate suppression over lossy pipes."""

import pytest

import repro.reliability.dedup as dedup_module
from repro.core import InvocationError, WSPeer
from repro.core.binding import P2psBinding
from repro.core.events import RecordingListener
from repro.p2ps import PeerGroup
from repro.reliability import ReliabilityPolicy, RetryPolicy
from repro.simnet import DropInjector, FixedLatency, Network


class CountingService:
    def __init__(self):
        self.executions = 0

    def bump(self) -> int:
        self.executions += 1
        return self.executions


def build_world(retries=2):
    net = Network(latency=FixedLatency(0.002))
    group = PeerGroup("g")
    service = CountingService()
    provider = WSPeer(net.add_node("prov"), P2psBinding(group), name="prov")
    provider.deploy(service, name="Counting")
    provider.publish("Counting")
    net.run()
    consumer = WSPeer(net.add_node("cons"), P2psBinding(group), name="cons")
    # n extra attempts, no backoff
    consumer.client.invocation.default_policy = ReliabilityPolicy(
        retry=RetryPolicy(max_attempts=1 + retries, base_delay=0.0, jitter=0.0)
    )
    handle = consumer.locate_one("Counting")
    return net, provider, consumer, handle, service


class TestRetransmission:
    def test_clean_network_no_retries_needed(self):
        net, provider, consumer, handle, service = build_world()
        listener = RecordingListener()
        consumer.add_listener(listener)
        assert consumer.invoke(handle, "bump", timeout=1.0) == 1
        assert listener.of_kind("retransmit") == []

    def test_retry_recovers_from_request_loss(self):
        net, provider, consumer, handle, service = build_world(retries=3)
        listener = RecordingListener()
        consumer.add_listener(listener)
        # drop exactly the next frame (the first request attempt)
        dropped = {"count": 0}

        def drop_first(frame):
            if frame.port.startswith("pipe:") and dropped["count"] == 0:
                dropped["count"] += 1
                return False
            return True

        net.add_delivery_hook(drop_first)
        assert consumer.invoke(handle, "bump", timeout=0.5) == 1
        (retransmit,) = listener.of_kind("retransmit")
        assert "no response" in retransmit.detail["reason"]

    def test_duplicate_execution_suppressed(self):
        net, provider, consumer, handle, service = build_world(retries=3)
        # drop only *response* frames once: request executes, reply lost,
        # retransmitted request must NOT execute again
        state = {"responses_dropped": 0}

        def drop_first_response(frame):
            if (
                frame.src == "prov"
                and frame.port.startswith("pipe:")
                and state["responses_dropped"] == 0
            ):
                state["responses_dropped"] += 1
                return False
            return True

        net.add_delivery_hook(drop_first_response)
        assert consumer.invoke(handle, "bump", timeout=0.5) == 1
        assert service.executions == 1  # executed once despite two requests
        assert provider.server.container.get("Counting").duplicates_suppressed == 1

    def test_retries_exhausted_raises(self):
        net, provider, consumer, handle, service = build_world(retries=2)
        provider.node.go_down()
        with pytest.raises(InvocationError, match="after 3 attempt"):
            consumer.invoke(handle, "bump", timeout=0.2)
        # total time = 3 attempts x 0.2s
        assert net.now >= 0.6 * 0.99

    def test_heavy_loss_eventually_succeeds(self):
        net, provider, consumer, handle, service = build_world(retries=10)
        DropInjector(net, p=0.5, seed=3)
        assert consumer.invoke(handle, "bump", timeout=0.2) >= 1
        assert service.executions == 1

    def test_response_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(dedup_module, "DEDUP_CAP", 4)
        net, provider, consumer, handle, service = build_world()
        # the one retention point is the service's own dedup window
        window = provider.server.container.get("Counting").dedup
        for _ in range(10):
            consumer.invoke(handle, "bump", timeout=1.0)
        assert len(window) == 4
        assert window.evicted == 6
