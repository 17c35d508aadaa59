"""Locator staleness: supervision verdicts purge poisoned EPRs.

Discovery caches (UDDI registrations, flooded adverts) outlive the
providers that made them — the paper's transient peers guarantee it.
These tests walk the full staleness loop: deploy → locate → undeploy →
invoke (fails) → dead verdict → the next locate no longer hands out the
dead endpoint.
"""

import pytest

import repro.supervision.health as health_module
from repro.core import WSPeer
from repro.core.binding import StandardBinding
from repro.core.events import RecordingListener
from repro.supervision import HealthMonitor
from repro.supervision.failover import attach_failover
from repro.supervision.health import DEAD_AFTER
from tests.supervision.conftest import Echo


@pytest.fixture
def world(net, registry_node):
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry_node.endpoint))
    provider.deploy(Echo(), name="Echo")
    provider.publish("Echo")
    consumer = WSPeer(
        net.add_node("cons"),
        StandardBinding(registry_node.endpoint),
        listener=RecordingListener(),
    )
    return net, provider, consumer


class TestQuarantine:
    def test_located_handle_keeps_live_endpoints(self, world):
        net, provider, consumer = world
        handle = consumer.locate_one("Echo")
        assert handle.endpoints
        assert consumer.invoke(handle, "echo", {"message": "ok"}) == "ok"

    def test_dead_verdict_drops_epr_from_next_locate(self, world):
        net, provider, consumer = world
        handle = consumer.locate_one("Echo")
        address = handle.endpoints[0].address

        ex = attach_failover(consumer)
        # the registry entry outlives the service: undeploy + down node
        provider.undeploy("Echo")
        provider.node.go_down()

        # enough failed calls to cross the dead_after threshold
        for _ in range(DEAD_AFTER):
            with pytest.raises(Exception):
                ex.invoke(handle, "echo", {"message": "x"}, timeout=0.25)
        assert ex.health.is_dead(address)
        assert address in consumer.client.locator.quarantined

        # stale registration is still in UDDI, but the locator now
        # filters the poisoned EPR out of what it returns
        stale = consumer.locate("Echo")
        assert all(
            e.address != address for h in stale for e in h.endpoints
        )

    def test_alive_verdict_restores_epr(self, world):
        net, provider, consumer = world
        handle = consumer.locate_one("Echo")
        address = handle.endpoints[0].address
        ex = attach_failover(consumer)
        locator = consumer.client.locator

        locator.mark_endpoint_dead(address)
        assert not consumer.locate("Echo")  # only EPR is quarantined

        ex.health.mark_dead(address)
        ex.health.record_success(address)  # e.g. a probe answered
        assert address not in locator.quarantined
        relocated = consumer.locate_one("Echo")
        assert relocated.endpoints[0].address == address

    def test_quarantine_events_fire_on_tree(self, world):
        net, provider, consumer = world
        listener = RecordingListener()
        consumer.add_listener(listener)
        locator = consumer.client.locator
        locator.mark_endpoint_dead("http://prov:80/services/Echo")
        locator.mark_endpoint_alive("http://prov:80/services/Echo")
        assert listener.of_kind("endpoint-quarantined")
        assert listener.of_kind("endpoint-restored")

    def test_direct_monitor_wiring_without_failover(self, world, monkeypatch):
        """watch_health is usable standalone — no executor required."""
        net, provider, consumer = world
        monkeypatch.setattr(health_module, "DEAD_AFTER", 1)
        monitor = HealthMonitor(clock=lambda: net.kernel.now)
        consumer.client.locator.watch_health(monitor)
        handle = consumer.locate_one("Echo")
        monitor.record_failure(handle.endpoints[0].address)
        assert handle.endpoints[0].address in consumer.client.locator.quarantined
