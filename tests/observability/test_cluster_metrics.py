"""Cluster metric aggregation (E17): digests, merging, gossip, scrape."""

import json

import pytest

from repro.observability import MetricsRegistry
from repro.observability.cluster import (
    ClusterMetricsAgent,
    ClusterMetricsStore,
    digest_registry,
    merge_digests,
)
from repro.observability.flight import FlightRecorder
from repro.observability.introspection import host_introspection
from repro.observability.slo import SloEngine


def _registry(counters=(), observations=()):
    registry = MetricsRegistry()
    for name, value in counters:
        registry.inc(name, value)
    for name, value in observations:
        registry.observe(name, value)
    return registry


class TestDigestAndMerge:
    def test_digest_is_json_safe_and_mergeable(self):
        registry = _registry(counters=[("calls", 3)],
                             observations=[("latency", 0.02)])
        digest = digest_registry(registry, "node-a", 1, now=5.0)
        json.dumps(digest)
        assert digest["origin"] == "node-a" and digest["seq"] == 1
        assert digest["counters"]["calls"] == 3
        hist = digest["histograms"]["latency"]
        assert hist["count"] == 1 and sum(hist["counts"]) == 1

    def test_counters_sum_across_origins(self):
        d1 = digest_registry(_registry(counters=[("calls", 3)]), "a", 1)
        d2 = digest_registry(_registry(counters=[("calls", 4), ("errs", 1)]),
                             "b", 1)
        merged = merge_digests([d1, d2])
        assert merged["counters"]["calls"] == 7
        assert merged["counters"]["errs"] == 1
        assert merged["origins"] == ["a", "b"]

    def test_histograms_bucket_merge_exactly(self):
        r1 = _registry(observations=[("lat", 0.001), ("lat", 0.3)])
        r2 = _registry(observations=[("lat", 0.002), ("lat", 9.0)])
        merged = merge_digests([
            digest_registry(r1, "a", 1), digest_registry(r2, "b", 1)])
        hist = merged["histograms"]["lat"]
        assert hist["count"] == 4
        assert abs(hist["sum"] - 9.303) < 1e-9
        assert hist["min"] == 0.001 and hist["max"] == 9.0
        assert hist["p50"] is not None

    def test_mismatched_bounds_are_counted_not_averaged(self):
        r1 = MetricsRegistry()
        r1.histogram("lat", bounds=[0.1, 1.0]).observe(0.05)
        r2 = MetricsRegistry()
        r2.histogram("lat", bounds=[0.5, 5.0]).observe(0.05)
        merged = merge_digests([
            digest_registry(r1, "a", 1), digest_registry(r2, "b", 1)])
        assert merged["histograms_skipped"] == 1
        assert merged["histograms"]["lat"]["count"] == 1  # first wins

    def test_gauges_stay_per_origin(self):
        r1 = MetricsRegistry()
        r1.set_gauge("depth", 4.0)
        r2 = MetricsRegistry()
        r2.set_gauge("depth", 7.0)
        merged = merge_digests([
            digest_registry(r1, "a", 1), digest_registry(r2, "b", 1)])
        assert merged["gauges"]["depth"] == {"a": 4.0, "b": 7.0}


class TestStore:
    def test_accepts_monotonic_rejects_stale(self):
        store = ClusterMetricsStore()
        assert store.accept({"origin": "a", "seq": 2, "counters": {}})
        assert not store.accept({"origin": "a", "seq": 1, "counters": {}})
        assert not store.accept({"origin": "a", "seq": 2, "counters": {}})
        assert store.accept({"origin": "a", "seq": 3, "counters": {}})
        assert store.stale == 2 and len(store) == 1

    def test_malformed_counted(self):
        store = ClusterMetricsStore()
        assert not store.accept({"seq": 1})
        assert not store.accept({"origin": "a", "seq": "x"})
        assert store.malformed == 2


@pytest.fixture
def gossip_triangle(net):
    """Three linked gossip nodes with per-node registries + agents."""
    from repro.discovery.gossip import GossipNode

    agents, gossips = [], []
    for name in ("ga", "gb", "gc"):
        node = net.add_node(name)
        gossip = GossipNode(node, fanout=2, hops=3)
        registry = MetricsRegistry()
        agent = ClusterMetricsAgent(
            registry=registry, gossip=gossip, origin=name,
            clock=lambda: net.now)
        gossips.append(gossip)
        agents.append(agent)
    for g in gossips:
        g.link(*[other.node.id for other in gossips if other is not g])
    return agents, gossips


class TestGossipPath:
    def test_digest_spreads_epidemically(self, net, gossip_triangle):
        agents, _ = gossip_triangle
        agents[0].registry.inc("calls", 5)
        agents[0].publish()
        net.run()
        for agent in agents:
            assert "ga" in agent.store.origins()
            held = [d for d in agent.store.digests() if d["origin"] == "ga"]
            assert held[0]["counters"]["calls"] == 5

    def test_stale_digest_does_not_regress(self, net, gossip_triangle):
        agents, gossips = gossip_triangle
        agents[0].registry.inc("calls", 5)
        agents[0].publish()
        net.run()
        # replay an old digest straight at b: seq 1 <= held seq 1
        import json as _json
        old = digest_registry(MetricsRegistry(), "ga", 1)
        from repro.discovery.gossip import MetricDigest
        gossips[1]._accept_digest(MetricDigest("ga", 1, _json.dumps(old)))
        held = [d for d in agents[1].store.digests() if d["origin"] == "ga"]
        assert held[0]["counters"]["calls"] == 5

    def test_cluster_snapshot_merges_all_origins(self, net, gossip_triangle):
        agents, _ = gossip_triangle
        for i, agent in enumerate(agents):
            agent.registry.inc("calls", i + 1)
            agent.publish()
        net.run()
        merged = agents[0].cluster_snapshot()
        assert merged["counters"]["calls"] == 6  # 1 + 2 + 3
        assert merged["nodes"] == ["ga", "gb", "gc"]

    def test_periodic_publish_on_kernel(self, net, gossip_triangle):
        agents, _ = gossip_triangle
        agents[0].registry.inc("calls", 1)
        agents[0].start(net.kernel, interval=1.0)
        net.run(until=net.now + 3.5)
        assert "ga" in agents[1].store.origins()
        agents[0].stop()


class TestScrapeAndIntrospection:
    def test_scrape_pulls_a_digest(self, http_world):
        consumer, provider, handle = http_world
        provider_agent = ClusterMetricsAgent(provider, registry=MetricsRegistry())
        provider_agent.registry.inc("calls", 9)
        host_introspection(provider)
        intro = provider.local_handle("Introspection")

        consumer_agent = ClusterMetricsAgent(consumer, registry=MetricsRegistry())
        assert consumer_agent.scrape(intro)
        held = [d for d in consumer_agent.store.digests()
                if d["origin"] == "prov"]
        assert held[0]["counters"]["calls"] == 9
        merged = consumer_agent.cluster_snapshot()
        assert merged["counters"]["calls"] == 9
        assert set(merged["nodes"]) == {"prov", "cons"}

    def test_get_cluster_metrics_over_the_wire(self, http_world):
        consumer, provider, handle = http_world
        agent = ClusterMetricsAgent(provider, registry=MetricsRegistry())
        agent.registry.inc("calls", 2)
        host_introspection(provider)
        provider.publish("Introspection")
        intro = consumer.locate_one("Introspection")
        payload = json.loads(consumer.invoke(intro, "GetClusterMetrics"))
        assert payload["counters"]["calls"] == 2
        assert "prov" in payload["nodes"]

    def test_ops_report_missing_facilities_with_error_shape(self, http_world):
        consumer, provider, handle = http_world
        host_introspection(provider)
        provider.publish("Introspection")
        intro = consumer.locate_one("Introspection")
        for op, code in (("GetClusterMetrics", "no-cluster-agent"),
                         ("GetFlightRecord", "no-flight-recorder"),
                         ("GetSloStatus", "no-slo-engine")):
            payload = json.loads(consumer.invoke(intro, op))
            assert payload["error"]["code"] == code
            assert payload["error"]["message"]

    def test_facilities_enabled_after_hosting_still_serve(self, http_world):
        consumer, provider, handle = http_world
        host_introspection(provider)
        provider.publish("Introspection")
        FlightRecorder().install(provider)
        SloEngine().install(provider)
        intro = consumer.locate_one("Introspection")
        flight = json.loads(consumer.invoke(intro, "GetFlightRecord"))
        assert flight["schema"] == "repro.flight/1"
        slo = json.loads(consumer.invoke(intro, "GetSloStatus"))
        assert slo["schema"] == "repro.slo/1"
