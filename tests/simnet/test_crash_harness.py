"""Unit tests for the fault schedule's crash-consistency primitives (E15):
event-triggered kills and one-shot frame drops."""

from repro.core.events import EventSource, PeerEvent
from repro.simnet import (
    ChurnSchedule,
    EventTrigger,
    FixedLatency,
    Network,
)


def build(n=3):
    net = Network(latency=FixedLatency(0.001))
    nodes = [net.add_node(f"n{i}") for i in range(n)]
    for node in nodes:
        node.open_port("in", lambda f: None)
    return net, nodes


def event(kind, **detail):
    return PeerEvent(kind=kind, time=0.0, source="test", detail=detail)


class TestEventTrigger:
    def test_fires_on_matching_kind_only(self):
        seen = []
        trigger = EventTrigger("boom", seen.append)
        trigger.message_received(event("other"))
        trigger.message_received(event("boom"))
        assert len(seen) == 1

    def test_once_disarms_after_first_fire(self):
        seen = []
        trigger = EventTrigger("boom", seen.append)
        trigger.message_received(event("boom"))
        trigger.message_received(event("boom"))
        assert len(seen) == 1
        assert trigger.fired == 1

    def test_repeating_trigger(self):
        seen = []
        trigger = EventTrigger("boom", seen.append, once=False)
        for _ in range(3):
            trigger.message_received(event("boom"))
        assert len(seen) == 3

    def test_match_predicate_filters(self):
        seen = []
        trigger = EventTrigger(
            "boom", seen.append, match=lambda e: e.detail.get("n") == 2
        )
        trigger.message_received(event("boom", n=1))
        trigger.message_received(event("boom", n=2))
        assert [e.detail["n"] for e in seen] == [2]

    def test_armed_after_skips_first_matches(self):
        seen = []
        trigger = EventTrigger("boom", seen.append, armed_after=2)
        for i in range(4):
            trigger.message_received(event("boom", n=i))
        assert [e.detail["n"] for e in seen] == [2]  # once=True: fires once

    def test_attaches_to_event_source(self):
        source = EventSource("svc")
        seen = []
        source.add_listener(EventTrigger("boom", seen.append))
        source.fire(event("boom"))
        assert len(seen) == 1


class TestKillPrimitives:
    def test_kill_downs_node_and_logs(self):
        net, nodes = build()
        harness = ChurnSchedule(net)
        harness.kill("n1")
        assert not nodes[1].up
        assert [a.kind for a in harness.kills] == ["kill"]
        assert harness.kills[0].node == "n1"

    def test_kill_is_idempotent_on_dead_node(self):
        net, nodes = build()
        harness = ChurnSchedule(net)
        harness.kill("n1")
        harness.kill("n1")
        assert len(harness.kills) == 1

    def test_restart_after(self):
        net, nodes = build()
        harness = ChurnSchedule(net)
        harness.kill("n1", restart_at=1.0)
        assert not nodes[1].up
        net.run(until=2.0)
        assert nodes[1].up
        assert [a.kind for a in harness.log] == ["kill", "restart"]

    def test_kill_on_event_immediate(self):
        net, nodes = build()
        harness = ChurnSchedule(net)
        source = EventSource("svc")
        harness.kill_on_event(source, "response-sent", "n1")
        source.fire(event("response-sent"))
        assert not nodes[1].up

    def test_kill_on_event_deferred_lands_next_step(self):
        """defer=True kills one zero-delay kernel step after the event:
        the node is still up in the firing instant, down after the
        kernel advances."""
        net, nodes = build()
        harness = ChurnSchedule(net)
        source = EventSource("svc")
        harness.kill_on_event(source, "response-sent", "n1", defer=True)
        source.fire(event("response-sent"))
        assert nodes[1].up  # not yet: the kill is queued
        net.run(until=net.now + 0.01)
        assert not nodes[1].up
        assert "(deferred)" in harness.kills[0].label

    def test_describe_is_printable(self):
        net, _ = build()
        harness = ChurnSchedule(net)
        harness.kill("n2")
        lines = harness.describe()
        assert len(lines) == 1
        assert "kill n2" in lines[0]


class TestOneShotDrop:
    def test_drops_exactly_count_then_detaches(self):
        net, nodes = build()
        harness = ChurnSchedule(net)
        drop = harness.drop_next(lambda f: f.dst == "n1", count=2)
        for _ in range(4):
            nodes[0].send("n1", "in", "x")
        net.run()
        assert drop.dropped == 2
        assert net.stats.get("n1") == 2
        # the hook removed itself: later frames cost nothing
        assert drop.remaining == 0

    def test_detach_idempotent(self):
        net, nodes = build()
        harness = ChurnSchedule(net)
        drop = harness.drop_next(lambda f: True, count=5)
        drop.detach()
        drop.detach()  # must not raise
        nodes[0].send("n1", "in", "x")
        net.run()
        assert drop.dropped == 0
        assert net.stats.get("n1") == 1

    def test_harness_detach_disarms_all_drops(self):
        net, nodes = build()
        harness = ChurnSchedule(net)
        harness.drop_next(lambda f: f.dst == "n1")
        harness.drop_next(lambda f: f.dst == "n2")
        harness.detach()
        harness.detach()  # idempotent at the harness level too
        nodes[0].send("n1", "in", "x")
        nodes[0].send("n2", "in", "x")
        net.run()
        assert net.stats.get("n1") == 1
        assert net.stats.get("n2") == 1

    def test_unmatched_frames_untouched(self):
        net, nodes = build()
        harness = ChurnSchedule(net)
        drop = harness.drop_next(lambda f: f.dst == "n2", count=1)
        nodes[0].send("n1", "in", "x")
        net.run()
        assert drop.dropped == 0
        assert net.stats.get("n1") == 1
