"""Session handoff across failover: survival + at-most-once (E15).

The satellite-3 scenario is the heart of this file: the primary
*executes* a mutation, its reply is lost, and it dies — the client's
retransmission (same wsa:MessageID, per E9) lands on a replica, which
must answer from the dedup window seeded by the shipped delta, not
re-execute.  A stateful counter makes re-execution observable as a
wrong value.
"""

from repro.replication.state import DEFAULT_SESSION
from repro.simnet import ChurnSchedule
from repro.simnet.wiretap import payload_text


def total_counter_executions(world):
    """Executions are only observable on the member that ran them:
    replicas move by delta application, so compare each member's value
    against its own dispatch count."""
    return sum(
        deployed.requests_processed
        for deployed in (
            p.server.container.require("Svc") for p in world.providers
        )
    )


class TestHandoffAtMostOnce:
    def test_primary_executes_dies_before_replying(self, counter_world):
        """The at-most-once-across-handoff contract, exactly."""
        group = counter_world.replicate(r=2)
        executor = counter_world.executor
        primary = counter_world.providers[0]
        harness = ChurnSchedule(counter_world.net)

        # warm up: one replicated increment
        assert executor.invoke(
            counter_world.handle, "increment", {"by": 1}, timeout=0.3
        ) == 1
        counter_world.settle(0.5)

        # the crash point: the reply frame is lost, the deltas are not,
        # and the primary dies right after the response-sent instant
        harness.drop_replies_from(primary.node.id, count=1)
        harness.kill_on_event(
            primary, "response-sent", primary.node.id, defer=True,
            match=lambda e: e.detail.get("service") == "Svc",
        )

        value = executor.invoke(
            counter_world.handle, "increment", {"by": 1}, timeout=0.3
        )

        # exactly one increment happened anywhere: the replica answered
        # the retransmission from its dedup window
        assert value == 2
        assert executor.handoffs == 1
        live_values = [
            s.value
            for s, p in zip(counter_world.services, counter_world.providers)
            if p.node.up
        ]
        assert live_values == [2, 2]
        assert counter_world.services[0].value == 2  # primary executed once
        # replicas never dispatched the counter op themselves — they
        # replayed: dispatch counters stay at 0, dedup counters moved
        for provider in counter_world.providers[1:]:
            deployed = provider.server.container.require("Svc")
            assert deployed.requests_processed == 0
        assert sum(
            p.server.container.require("Svc").duplicates_suppressed
            for p in counter_world.providers[1:]
        ) == 1
        assert len(harness.kills) == 1

    def test_session_handoff_event_carries_message_id(self, counter_world):
        from repro.core.events import RecordingListener

        counter_world.replicate(r=2)
        recorder = RecordingListener()
        counter_world.consumer.add_listener(recorder)
        primary = counter_world.providers[0]
        harness = ChurnSchedule(counter_world.net)
        harness.drop_replies_from(primary.node.id, count=1)
        harness.kill_on_event(
            primary, "response-sent", primary.node.id, defer=True,
            match=lambda e: e.detail.get("service") == "Svc",
        )
        counter_world.executor.invoke(
            counter_world.handle, "increment", {"by": 1}, timeout=0.3
        )
        handoffs = [e for e in recorder.events if e.kind == "session-handoff"]
        assert len(handoffs) == 1
        assert handoffs[0].detail["message_id"]
        assert handoffs[0].detail["caught_up"] >= 1

    def test_handoff_prefers_most_caught_up_member(self, counter_world):
        """With one replica artificially behind, the redirected call
        must land on the caught-up one."""
        group = counter_world.replicate(r=2, anti_entropy=False)
        executor = counter_world.executor
        primary = counter_world.providers[0]
        behind = group.members[2]
        harness = ChurnSchedule(counter_world.net)
        # starve member 2 of the next delta
        harness.drop_next(
            lambda f: f.dst == behind.node_id and "apply_delta" in payload_text(f),
            count=1,
        )
        assert executor.invoke(
            counter_world.handle, "increment", {"by": 1}, timeout=0.3
        ) == 1
        counter_world.settle(0.5)
        assert behind.store.high_water(DEFAULT_SESSION) == 0
        assert group.members[1].store.high_water(DEFAULT_SESSION) == 1

        harness.kill(primary.node.id)
        value = executor.invoke(
            counter_world.handle, "increment", {"by": 1}, timeout=0.3
        )
        assert value == 2
        # member 1 (caught up) executed it; member 2 (behind) did not
        assert counter_world.services[1].value == 2
        assert counter_world.providers[1].server.container.require(
            "Svc"
        ).requests_processed == 1

    def test_dead_primary_moves_execution_to_replica(self, counter_world):
        """Primary down before the request arrives: the call executes
        exactly once, on a replica."""
        counter_world.replicate(r=2)
        executor = counter_world.executor
        primary = counter_world.providers[0]
        harness = ChurnSchedule(counter_world.net)
        harness.kill(primary.node.id)
        value = executor.invoke(
            counter_world.handle, "increment", {"by": 1}, timeout=0.3
        )
        assert value == 1
        assert counter_world.services[0].value == 0  # primary never ran it
        assert total_counter_executions(counter_world) == 1

    def test_kill_before_ship_orphans_only_unacknowledged_state(
        self, counter_world
    ):
        """Kill at the request-received instant: the dispatch already
        running completes, but the write is never shipped nor
        acknowledged (the node is down by reply time).  The client's
        retransmission re-executes on a replica — allowed, since
        at-most-once covers *acknowledged* writes — and the client sees
        exactly one answer, with live members agreeing on the replayed
        history."""
        counter_world.replicate(r=2)
        executor = counter_world.executor
        primary = counter_world.providers[0]
        harness = ChurnSchedule(counter_world.net)
        harness.kill_on_event(
            primary, "request-received", primary.node.id,
            match=lambda e: e.detail.get("service") == "Svc",
        )
        value = executor.invoke(
            counter_world.handle, "increment", {"by": 1}, timeout=0.3
        )
        assert value == 1
        live_values = [
            s.value
            for s, p in zip(counter_world.services, counter_world.providers)
            if p.node.up
        ]
        assert live_values == [1, 1]
        counter_world.settle(2.0)
        assert counter_world.group.divergences() == 0

    def test_restarted_primary_rejoins_and_serves(self, counter_world):
        group = counter_world.replicate(r=2)
        executor = counter_world.executor
        primary = counter_world.providers[0]
        harness = ChurnSchedule(counter_world.net)

        assert executor.invoke(
            counter_world.handle, "increment", {"by": 1}, timeout=0.3
        ) == 1
        harness.kill(primary.node.id, restart_at=counter_world.net.now + 1.0)
        assert executor.invoke(
            counter_world.handle, "increment", {"by": 1}, timeout=0.3
        ) == 2
        counter_world.settle(3.0)  # restart + anti-entropy
        assert group.members[0].store.high_water(DEFAULT_SESSION) == 2
        assert counter_world.services[0].value == 2
        assert group.converged()
