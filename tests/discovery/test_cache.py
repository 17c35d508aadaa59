"""RendezvousCache: TTL, gossip reconciliation, health invalidation."""

import pytest

from repro.discovery.cache import RendezvousCache
from repro.discovery.gossip import ServiceAnnouncement


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def cache(clock):
    return RendezvousCache(clock, lifetime=10.0)


def put_echo(cache, key="uuid:r0:svc-000001", endpoints=None, revision=1):
    cache.put("Echo", key, endpoints or ["http://prov:80/e"], "<wsdl/>", revision)


class TestBasics:
    def test_miss_then_hit(self, cache):
        assert cache.get("Echo") is None
        put_echo(cache)
        items = cache.get("Echo")
        assert items is not None and items[0].wsdl_text == "<wsdl/>"
        assert cache.hits == 1 and cache.misses == 1

    def test_expires_after_lifetime(self, cache, clock):
        put_echo(cache)
        clock.now = 11.0
        assert cache.get("Echo") is None

    def test_put_rearms_ttl(self, cache, clock):
        put_echo(cache)
        clock.now = 8.0
        put_echo(cache, revision=2)
        clock.now = 16.0  # 8s after refresh
        assert cache.get("Echo") is not None

    def test_never_regresses_to_stale_revision(self, cache):
        put_echo(cache, revision=5, endpoints=["http://new/e"])
        put_echo(cache, revision=3, endpoints=["http://old/e"])
        assert cache.get("Echo")[0].endpoints == ["http://new/e"]

    def test_multiple_providers_kept(self, cache):
        put_echo(cache, key="uuid:r0:svc-1")
        put_echo(cache, key="uuid:r1:svc-2", endpoints=["http://other:80/e"])
        assert len(cache.get("Echo")) == 2

    def test_invalidate(self, cache):
        put_echo(cache)
        cache.invalidate("Echo")
        assert cache.get("Echo") is None
        assert cache.invalidations == 1


class TestGossipReconciliation:
    def test_fresher_announcement_updates_endpoints(self, cache):
        put_echo(cache, revision=1)
        cache.on_announcement(
            ServiceAnnouncement(
                "Echo", "prov", 3, endpoints=["http://moved:80/e"],
                service_key="uuid:r0:svc-000001",
            )
        )
        item = cache.get("Echo")[0]
        assert item.endpoints == ["http://moved:80/e"]
        assert item.revision == 3

    def test_stale_announcement_ignored(self, cache):
        put_echo(cache, revision=5)
        cache.on_announcement(
            ServiceAnnouncement(
                "Echo", "prov", 2, endpoints=["http://old:80/e"],
                service_key="uuid:r0:svc-000001",
            )
        )
        assert cache.get("Echo")[0].endpoints == ["http://prov:80/e"]

    def test_tombstone_drops_provider(self, cache):
        put_echo(cache, revision=1)
        cache.on_announcement(
            ServiceAnnouncement(
                "Echo", "prov", 2, endpoints=[], service_key="uuid:r0:svc-000001"
            )
        )
        assert cache.get("Echo") is None

    def test_unknown_provider_invalidates_entry(self, cache):
        """News about a provider we don't hold means our picture is
        incomplete — force a refetch rather than serve half an answer."""
        put_echo(cache)
        cache.on_announcement(
            ServiceAnnouncement(
                "Echo", "other", 1, endpoints=["http://second:80/e"],
                service_key="uuid:r9:svc-000099",
            )
        )
        assert cache.get("Echo") is None

    def test_uncached_service_untouched(self, cache):
        cache.on_announcement(
            ServiceAnnouncement("Nope", "prov", 1, endpoints=["e"], service_key="k")
        )
        assert cache.size == 0


class TestHealthInvalidation:
    def test_dead_endpoint_stripped_everywhere(self, cache):
        put_echo(cache, key="k1", endpoints=["http://a:80/e", "http://b:80/e"])
        cache.invalidate_endpoint("http://a:80/e")
        assert cache.get("Echo")[0].endpoints == ["http://b:80/e"]

    def test_entry_dropped_when_no_endpoint_left(self, cache):
        put_echo(cache, endpoints=["http://a:80/e"])
        cache.invalidate_endpoint("http://a:80/e")
        assert cache.get("Echo") is None

    def test_watch_health_wires_dead_verdicts(self, clock):
        from repro.supervision.health import HealthMonitor

        cache = RendezvousCache(clock, lifetime=100.0)
        put_echo(cache, endpoints=["http://a:80/e"])
        monitor = HealthMonitor(clock=clock)
        cache.watch_health(monitor)
        for _ in range(10):
            monitor.record_failure("http://a:80/e", fatal=True)
        monitor.mark_dead("http://a:80/e")
        assert cache.get("Echo") is None


class TestCap:
    def test_holds_its_cap(self, cache):
        from repro.discovery.cache import RENDEZVOUS_CACHE_CAP

        for i in range(10_000):
            cache.put(f"Svc{i}", f"uuid:r0:svc-{i:06d}", [f"http://p{i}:80/e"], "<wsdl/>", 1)
        assert cache.size <= RENDEZVOUS_CACHE_CAP
        assert cache.get("Svc9999") is not None  # the newest are kept
