"""The SLO engine (E17): multi-window burn rates from tree events."""

import json

import repro.observability.slo as slo_module
from repro.core.events import ClientMessageEvent
from repro.observability import MetricsRegistry
from repro.observability.slo import (
    CRITICAL,
    OK,
    WARN,
    ServiceSlo,
    SloEngine,
    SloPolicy,
)
from repro.supervision.failover import attach_failover


def _engine(**policy_kw):
    return SloEngine(policy=SloPolicy(**policy_kw),
                     metrics=MetricsRegistry())


def _send(engine, mid, t, service="Svc"):
    engine.observe(ClientMessageEvent(
        "request-sent", t, "cons",
        {"service": service, "message_id": mid, "operation": "op"}))


def _ok(engine, mid, t, service="Svc"):
    engine.observe(ClientMessageEvent(
        "response-received", t, "cons",
        {"service": service, "message_id": mid, "operation": "op"}))


def _fail(engine, mid, t, service="Svc", kind="invoke-failed"):
    engine.observe(ClientMessageEvent(
        kind, t, "cons",
        {"service": service, "message_id": mid, "reason": "boom"}))


class TestBurnArithmetic:
    def test_all_good_burns_nothing(self):
        slo = ServiceSlo("Svc", SloPolicy())
        for i in range(100):
            slo.record(float(i) * 0.1, True)
        assert slo.burn_rates(10.0) == (0.0, 0.0)
        assert slo.health(10.0)[0] == OK

    def test_burn_is_error_fraction_over_budget(self):
        policy = SloPolicy(availability_target=0.9)  # budget 0.1
        slo = ServiceSlo("Svc", policy)
        for i in range(10):
            slo.record(1.0 + i * 0.01, i == 0)  # 9 bad of 10
        short, long_ = slo.burn_rates(2.0)
        assert abs(short - 9.0) < 1e-9  # 0.9 error / 0.1 budget
        assert abs(long_ - 9.0) < 1e-9

    def test_windows_disagreeing_stays_quiet(self, monkeypatch):
        # a long-ago incident: long window hot, short window calm
        monkeypatch.setattr(slo_module, "SHORT_WINDOW", 10.0)
        monkeypatch.setattr(slo_module, "LONG_WINDOW", 1000.0)
        monkeypatch.setattr(slo_module, "SLOW_BURN", 1.0)
        policy = SloPolicy(availability_target=0.9, fast_burn=2.0)
        slo = ServiceSlo("Svc", policy)
        for i in range(50):
            slo.record(float(i), False)  # old failures
        for i in range(50, 60):
            slo.record(float(i), True)   # recent calm
        status, short, long_ = slo.health(60.0)
        assert short < slo_module.SLOW_BURN <= long_
        assert status == OK

    def test_both_windows_hot_is_critical(self):
        policy = SloPolicy(availability_target=0.9, fast_burn=2.0)
        slo = ServiceSlo("Svc", policy)
        for i in range(20):
            slo.record(float(i), False)
        assert slo.health(20.0)[0] == CRITICAL


class TestEventIntake:
    def test_success_samples_are_good(self):
        engine = _engine()
        _send(engine, "m1", 1.0)
        _ok(engine, "m1", 1.1)
        report = engine.report(2.0)
        assert report["Svc"]["good"] == 1 and report["Svc"]["bad"] == 0

    def test_latency_violation_counts_against_slo(self):
        engine = _engine(latency_threshold=0.5)
        _send(engine, "m1", 1.0)
        _ok(engine, "m1", 2.0)  # 1.0s > 0.5s threshold
        report = engine.report(3.0)
        assert report["Svc"]["bad"] == 1  # slow success burns budget
        assert report["Svc"]["good"] == 0
        assert report["Svc"]["latency_violations"] == 1

    def test_provisional_failure_settles_after_grace(self):
        engine = _engine()  # SETTLE_AFTER is 5.0
        _send(engine, "m1", 1.0)
        _fail(engine, "m1", 1.5)
        assert engine.report(2.0)["Svc"]["bad"] == 0  # still provisional
        assert engine.report(10.0)["Svc"]["bad"] == 1  # settled

    def test_failover_recovery_cancels_provisional(self):
        engine = _engine()  # SETTLE_AFTER is 5.0
        _send(engine, "m1", 1.0)
        _fail(engine, "m1", 1.5)       # attempt 1 died
        _send(engine, "m1", 1.6)       # hop re-sends same MessageID
        _ok(engine, "m1", 1.8)         # another endpoint answered
        report = engine.report(10.0)
        assert report["Svc"]["bad"] == 0
        assert report["Svc"]["good"] == 1

    def test_exhausted_failover_is_immediately_bad(self):
        engine = _engine()
        _send(engine, "m1", 1.0)
        _fail(engine, "m1", 2.0, kind="failover-exhausted")
        assert engine.report(2.0)["Svc"]["bad"] == 1

    def test_status_transitions_are_recorded(self):
        engine = _engine(availability_target=0.9, fast_burn=2.0)
        for i in range(10):
            _send(engine, f"m{i}", 1.0 + i * 0.01)
            _fail(engine, f"m{i}", 1.5 + i * 0.01, kind="failover-exhausted")
        report = engine.report(2.0)
        assert report["Svc"]["status"] == CRITICAL
        assert report["Svc"]["transitions"][0]["from"] == OK
        assert report["Svc"]["transitions"][0]["to"] == CRITICAL

    def test_gauges_published(self):
        registry = MetricsRegistry()
        engine = SloEngine(policy=SloPolicy(), metrics=registry)
        _send(engine, "m1", 1.0)
        _ok(engine, "m1", 1.1)
        engine.report(2.0)
        snap = registry.snapshot()
        assert snap["gauges"]["slo.Svc.healthy"] == 1.0
        assert "slo.Svc.burn_short" in snap["gauges"]

    def test_status_json_shape(self):
        engine = _engine()
        _send(engine, "m1", 1.0)
        _ok(engine, "m1", 1.1)
        payload = json.loads(engine.status_json(2.0))
        assert payload["schema"] == "repro.slo/1"
        assert payload["services"]["Svc"]["status"] == OK


class TestLiveWorld:
    def test_engine_on_a_real_failover_world(self, net, registry_node, tracer):
        from tests.observability.conftest import build_replicated_http_world

        providers, consumer, handle = build_replicated_http_world(
            net, registry_node, tracer)
        engine = SloEngine(metrics=MetricsRegistry()).install(consumer)
        executor = attach_failover(consumer)
        for i in range(5):
            executor.invoke(handle, "echo", {"message": str(i)}, timeout=1.0)
        providers[0].node.go_down()
        executor.invoke(handle, "echo", {"message": "hop"}, timeout=1.0)
        report = engine.report(net.now + 60.0)
        assert report["Echo"]["good"] == 6
        assert report["Echo"]["bad"] == 0  # failover saved every call


class TestPendingCap:
    def test_unanswered_sends_hold_the_cap(self):
        from repro.observability.slo import MAX_PENDING

        engine = _engine()
        for i in range(MAX_PENDING + 10):
            _send(engine, f"m{i}", 0.0)
        assert len(engine._pending) == MAX_PENDING
        assert engine.pending_evicted == 10
        # the oldest were forgotten: an answer to one is judged without
        # its sent time, an answer to a kept one with it
        _ok(engine, "m0", 1.0)
        _ok(engine, f"m{MAX_PENDING + 9}", 1.0)
        assert engine.services["Svc"].good == 2
