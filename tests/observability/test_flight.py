"""The flight recorder (E17): bounded ring, trigger-frozen dumps."""

import json

import repro.observability.flight as flight_module
from repro.core.events import ClientMessageEvent, ServerMessageEvent
from repro.observability import MetricsRegistry
from repro.observability.flight import (
    DUMP_TRIGGERS,
    FLIGHT_SCHEMA,
    FlightRecorder,
)


def _event(kind, time=1.0, **detail):
    return ClientMessageEvent(kind, time, "test", detail)


class TestRing:
    def test_ring_is_bounded(self, monkeypatch):
        monkeypatch.setattr(flight_module, "CAPACITY", 8)
        recorder = FlightRecorder(metrics=MetricsRegistry())
        for i in range(20):
            recorder.observe(_event("request-sent", time=float(i), n=i))
        assert len(recorder) == 8
        assert recorder.events_seen == 20
        snapshot = recorder.snapshot()
        assert [e["n"] for e in snapshot["events"]] == list(range(12, 20))

    def test_detail_is_summarised_to_primitives(self):
        recorder = FlightRecorder(metrics=MetricsRegistry())
        recorder.observe(_event(
            "request-received", service="Svc", count=3, ratio=0.5,
            flag=True, nothing=None, envelope=object(), items=[1, 2],
        ))
        record = recorder.snapshot()["events"][0]
        assert record["service"] == "Svc"
        assert record["count"] == 3 and record["flag"] is True
        assert "envelope" not in record and "items" not in record
        json.dumps(record)  # always JSON-safe

    def test_peer_tag(self):
        recorder = FlightRecorder(metrics=MetricsRegistry())
        recorder.observe(_event("request-sent"), peer="cons")
        assert recorder.snapshot()["events"][0]["peer"] == "cons"


class TestDumps:
    def test_trigger_kinds_freeze_a_dump(self):
        recorder = FlightRecorder(metrics=MetricsRegistry())
        recorder.observe(_event("request-sent", time=1.0))
        for kind in sorted(DUMP_TRIGGERS):
            recorder.observe(ServerMessageEvent(kind, 2.0, "test", {}))
        assert len(recorder.dumps) == len(DUMP_TRIGGERS)
        first = recorder.dumps[0]
        assert first["schema"] == FLIGHT_SCHEMA
        assert first["reason"] in DUMP_TRIGGERS
        assert any(e["kind"] == "request-sent" for e in first["events"])

    def test_dump_survives_ring_rollover(self, monkeypatch):
        monkeypatch.setattr(flight_module, "CAPACITY", 4)
        recorder = FlightRecorder(metrics=MetricsRegistry())
        recorder.observe(_event("request-sent", time=1.0, mark="early"))
        recorder.observe(_event("circuit-open", time=2.0))
        for i in range(10):
            recorder.observe(_event("request-sent", time=3.0 + i))
        dump = recorder.latest_dump()
        assert any(e.get("mark") == "early" for e in dump["events"])
        assert not any(e.get("mark") == "early"
                       for e in recorder.snapshot()["events"])

    def test_dump_store_is_bounded(self, monkeypatch):
        monkeypatch.setattr(flight_module, "MAX_DUMPS", 2)
        recorder = FlightRecorder(metrics=MetricsRegistry())
        for _ in range(5):
            recorder.observe(_event("circuit-open"))
        assert len(recorder.dumps) == 2
        assert recorder.dumps_dropped == 3

    def test_to_json_prefers_latest_dump(self):
        recorder = FlightRecorder(metrics=MetricsRegistry())
        payload = json.loads(recorder.to_json())
        assert payload["reason"] == "snapshot"
        recorder.observe(_event("state-diverged"))
        payload = json.loads(recorder.to_json())
        assert payload["reason"] == "state-diverged"
        assert payload["dumps"] == 1


class TestHarnessIntegration:
    def test_crash_harness_kill_produces_a_dump(self):
        from repro.simnet import ChurnSchedule, FixedLatency, Network

        net = Network(latency=FixedLatency(0.001))
        net.add_node("victim")
        harness = ChurnSchedule(net)
        recorder = FlightRecorder(metrics=MetricsRegistry())
        recorder.attach(harness)

        harness.kill("victim")
        dump = recorder.latest_dump()
        assert dump is not None and dump["reason"] == "node-killed"
        assert dump["events"][-1]["kind"] == "node-killed"
        assert dump["events"][-1]["node"] == "victim"

    def test_harness_events_carry_registered_kinds(self):
        from repro.observability.kinds import KNOWN_KINDS, family_of
        from repro.simnet.churn import KIND_BY_ACTION

        for action, kind in KIND_BY_ACTION.items():
            assert kind in KNOWN_KINDS, f"{action} -> {kind} unregistered"
            assert family_of(kind) == "harness"

    def test_live_peer_events_reach_the_ring(self, http_world):
        consumer, provider, handle = http_world
        recorder = FlightRecorder(metrics=MetricsRegistry())
        recorder.install(consumer, provider)
        consumer.invoke(handle, "echo", {"message": "x"})
        kinds = {e["kind"] for e in recorder.snapshot()["events"]}
        assert {"request-sent", "request-received",
                "response-sent", "response-received"} <= kinds
