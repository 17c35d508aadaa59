"""End-to-end tests for a peer's worker pool (E13).

``Node.configure_workers`` on the hosting node wires two layers at
once: the node's virtual-time worker pool and a metrics collector
exposing the pool's live stats.  Overflow on
the HTTP path must come back to the client as a
:class:`~repro.transport.base.TransportBusyError` carrying the server's
retry-after hint — the same vocabulary E9 admission control speaks.
"""

import pytest

from repro.observability import metrics as obs_metrics
from repro.reliability import ReliabilityPolicy, RetryPolicy
from repro.transport.base import TransportBusyError
from tests.core.conftest import Echo


@pytest.fixture(autouse=True)
def _fresh_metrics():
    obs_metrics.reset_default_registry()
    yield
    obs_metrics.reset_default_registry()


def _locate(provider, consumer):
    provider.deploy(Echo(), name="Echo")
    provider.publish("Echo")
    return consumer.locate_one("Echo")


class TestConfigureWorkers:
    def test_pool_unblocks_slow_requests(self, standard_pair, net):
        provider, consumer, _ = standard_pair
        handle = _locate(provider, consumer)
        provider.node.configure_workers(2)
        provider.node.service_time = 0.05
        done = []
        for i in range(2):
            consumer.invoke_async(
                handle, "echo", {"message": f"m{i}"},
                lambda r, e, i=i: done.append((i, net.now, r, e)),
            )
        net.run()
        assert [(i, r) for i, _, r, e in done] == [(0, "m0"), (1, "m1")]
        t0, t1 = done[0][1], done[1][1]
        # with one worker the second response would land a full service
        # time after the first; with two they complete together
        assert abs(t1 - t0) < 0.05

    def test_serial_baseline_staggers(self, standard_pair, net):
        provider, consumer, _ = standard_pair
        handle = _locate(provider, consumer)
        provider.node.configure_workers(1)
        provider.node.service_time = 0.05
        done = []
        for i in range(2):
            consumer.invoke_async(
                handle, "echo", {"message": f"m{i}"},
                lambda r, e, i=i: done.append((i, net.now)),
            )
        net.run()
        assert done[1][1] - done[0][1] == pytest.approx(0.05, abs=1e-6)

    def test_collector_registered(self, standard_pair, net):
        provider, consumer, _ = standard_pair
        _locate(provider, consumer)
        provider.node.configure_workers(4, queue_limit=16)
        snap = obs_metrics.default_registry().snapshot()
        stats = snap[f"workers.{provider.node.id}"]
        assert stats["workers"] == 4
        assert stats["queue_limit"] == 16

    def test_rejects_zero_workers(self, standard_pair, net):
        provider, _, _ = standard_pair
        with pytest.raises(ValueError):
            provider.node.configure_workers(0)


class TestHttpOverflow:
    def test_overflow_surfaces_busy_with_retry_after(self, standard_pair, net):
        provider, consumer, _ = standard_pair
        handle = _locate(provider, consumer)
        provider.node.configure_workers(1, queue_limit=0)
        provider.node.service_time = 0.2
        naive = ReliabilityPolicy.naive()  # no retries: see the raw 503
        done = []
        for i in range(2):
            consumer.invoke_async(
                handle, "echo", {"message": f"m{i}"},
                lambda r, e, i=i: done.append((i, r, e)),
                policy=naive,
            )
        net.run()
        by_index = {i: (r, e) for i, r, e in done}
        assert by_index[0] == ("m0", None)
        result, error = by_index[1]
        assert result is None
        assert isinstance(error, TransportBusyError)
        # the hint is the remaining service time of the in-flight request
        assert error.retry_after == pytest.approx(0.2, abs=0.01)
        assert net.get_node(provider.node.id).frames_overflowed == 1

    def test_retry_after_overflow_eventually_succeeds(self, standard_pair, net):
        provider, consumer, _ = standard_pair
        handle = _locate(provider, consumer)
        provider.node.configure_workers(1, queue_limit=0)
        provider.node.service_time = 0.05
        retrying = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=5, base_delay=0.06, jitter=0.0)
        )
        done = []
        for i in range(3):
            consumer.invoke_async(
                handle, "echo", {"message": f"m{i}"},
                lambda r, e, i=i: done.append((i, r, e)),
                policy=retrying,
            )
        net.run()
        assert sorted((i, r) for i, r, e in done) == [
            (0, "m0"), (1, "m1"), (2, "m2"),
        ]
        assert all(e is None for _, _, e in done)
