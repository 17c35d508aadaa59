"""HealthMonitor: decayed scores, verdicts, ranking, probes."""

import repro.supervision.health as health_module
from repro.reliability import OPEN, BreakerConfig, CircuitBreakerRegistry
from repro.simnet import Kernel
from repro.supervision import ALIVE, DEAD, HealthMonitor
from repro.wsa.epr import EndpointReference


def monitor(kernel=None):
    kernel = kernel or Kernel()
    return kernel, HealthMonitor(clock=lambda: kernel.now)


class TestScoring:
    def test_unknown_endpoint_scores_neutral(self):
        _, h = monitor()
        assert h.score("http://nowhere") == 0.5

    def test_successes_raise_failures_lower(self):
        _, h = monitor()
        for _ in range(5):
            h.record_success("http://good")
            h.record_failure("http://bad")
        assert h.score("http://good") > 0.5 > h.score("http://bad")

    def test_old_evidence_decays_toward_neutral(self, monkeypatch):
        monkeypatch.setattr(health_module, "TAU", 10.0)
        kernel, h = monitor()
        for _ in range(10):
            h.record_failure("http://a")
        low = h.score("http://a")
        kernel.schedule(100.0, lambda: None)
        kernel.run()
        decayed = h.score("http://a")
        assert low < decayed < 0.51  # back near the prior

    def test_latency_ewma_tracks_observations(self):
        _, h = monitor()
        h.record_success("http://a", latency=0.1)
        h.record_success("http://a", latency=0.2)
        assert 0.1 < h.latency("http://a") < 0.2
        assert h.latency("http://unknown") is None


class TestVerdicts:
    def test_dead_after_consecutive_failures(self):
        _, h = monitor()  # DEAD_AFTER is 3
        verdicts = []
        h.add_verdict_listener(lambda addr, v: verdicts.append((addr, v)))
        h.record_failure("http://a")
        h.record_failure("http://a")
        assert not h.is_dead("http://a")
        h.record_failure("http://a")
        assert h.is_dead("http://a")
        assert verdicts == [("http://a", DEAD)]

    def test_success_revives_and_emits_alive(self, monkeypatch):
        monkeypatch.setattr(health_module, "DEAD_AFTER", 1)
        _, h = monitor()
        verdicts = []
        h.add_verdict_listener(lambda addr, v: verdicts.append(v))
        h.record_failure("http://a")
        h.record_success("http://a")
        assert not h.is_dead("http://a")
        assert verdicts == [DEAD, ALIVE]

    def test_mark_dead_is_immediate(self, monkeypatch):
        monkeypatch.setattr(health_module, "DEAD_AFTER", 10)
        _, h = monitor()
        h.mark_dead("http://a")
        assert h.is_dead("http://a")

    def test_each_transition_fires_once(self, monkeypatch):
        monkeypatch.setattr(health_module, "DEAD_AFTER", 1)
        _, h = monitor()
        verdicts = []
        h.add_verdict_listener(lambda addr, v: verdicts.append(v))
        h.record_failure("http://a")
        h.record_failure("http://a")  # still dead: no second verdict
        assert verdicts == [DEAD]

    def test_busy_does_not_count_toward_dead(self, monkeypatch):
        monkeypatch.setattr(health_module, "DEAD_AFTER", 2)
        _, h = monitor()
        h.record_failure("http://a")
        h.record_busy("http://a", retry_after=1.0)
        h.record_failure("http://a")  # consecutive count was reset by busy
        assert not h.is_dead("http://a")


class TestBusyCooldown:
    def test_cooldown_lapses_with_time(self):
        kernel, h = monitor()
        h.record_busy("http://a", retry_after=2.0)
        assert h.in_busy_cooldown("http://a")
        kernel.schedule(2.5, lambda: None)
        kernel.run()
        assert not h.in_busy_cooldown("http://a")

    def test_success_clears_cooldown(self):
        _, h = monitor()
        h.record_busy("http://a", retry_after=100.0)
        h.record_success("http://a")
        assert not h.in_busy_cooldown("http://a")


class TestRanking:
    def eprs(self, *addresses):
        return [EndpointReference(a) for a in addresses]

    def test_healthy_before_unhealthy(self):
        _, h = monitor()
        h.record_success("http://good")
        h.record_failure("http://bad")
        ranked = h.rank(self.eprs("http://bad", "http://good"))
        assert [e.address for e in ranked] == ["http://good", "http://bad"]

    def test_dead_endpoints_sort_last_but_stay(self, monkeypatch):
        monkeypatch.setattr(health_module, "DEAD_AFTER", 1)
        _, h = monitor()
        h.record_failure("http://dead")
        ranked = h.rank(self.eprs("http://dead", "http://unknown"))
        assert [e.address for e in ranked] == ["http://unknown", "http://dead"]

    def test_busy_cooldown_sorts_behind_fresh(self):
        _, h = monitor()
        h.record_busy("http://busy", retry_after=10.0)
        ranked = h.rank(self.eprs("http://busy", "http://fresh"))
        assert ranked[0].address == "http://fresh"

    def test_tie_breaks_by_address_deterministically(self):
        _, h = monitor()
        ranked = h.rank(self.eprs("http://b", "http://a", "http://c"))
        assert [e.address for e in ranked] == ["http://a", "http://b", "http://c"]

    def test_open_breaker_sorts_behind_closed(self):
        kernel, h = monitor()
        registry = CircuitBreakerRegistry(clock=lambda: kernel.now)
        breaker = registry.for_endpoint(
            "http://tripped", BreakerConfig(min_calls=1, failure_threshold=0.5)
        )
        breaker.record_failure()
        assert breaker.state == OPEN
        h.attach_breakers(registry)
        # give the tripped endpoint a *better* score than the other:
        # breaker state must still dominate
        h.record_success("http://tripped")
        ranked = h.rank(self.eprs("http://tripped", "http://quiet"))
        assert ranked[0].address == "http://quiet"


class TestProbing:
    def test_probe_revives_dead_endpoint(self, monkeypatch):
        monkeypatch.setattr(health_module, "DEAD_AFTER", 1)
        kernel, h = monitor()
        h.record_failure("http://a")
        assert h.is_dead("http://a")
        h.set_prober(lambda addr, done: done(True, 0.01))
        h.probe("http://a")
        assert not h.is_dead("http://a")
        assert h.probes_sent == 1

    def test_periodic_probing_targets_suspects(self, monkeypatch):
        monkeypatch.setattr(health_module, "DEAD_AFTER", 1)
        kernel, h = monitor()
        h.record_failure("http://down")
        h.record_success("http://fine")
        probed = []
        h.set_prober(lambda addr, done: (probed.append(addr), done(True, 0.01)))
        h.start_probing(kernel, interval=1.0, until=3.5)
        kernel.run(until=10.0)
        assert "http://down" in probed
        assert "http://fine" not in probed

    def test_probe_without_prober_is_noop(self):
        _, h = monitor()
        h.probe("http://a")
        assert h.probes_sent == 0


class TestCap:
    def test_holds_its_cap(self):
        from repro.supervision.health import HEALTH_ENDPOINTS_CAP

        _, h = monitor()
        for i in range(10_000):
            h.record_failure(f"http://n{i}:80/svc")
        assert len(h.snapshot()) <= HEALTH_ENDPOINTS_CAP
        assert h.score("http://n9999:80/svc") < 0.5  # the newest are kept
