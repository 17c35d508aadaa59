"""Integration tests: delta shipping, lag guard, anti-entropy (E15)."""

import pytest

from repro.replication import ReplicationConfig
from repro.replication.group import SHIP_TIMEOUT
from repro.replication.state import DEFAULT_SESSION
from repro.soap.faults import ReplicaLagFault
from repro.simnet.wiretap import payload_text


class TestEstablish:
    def test_members_and_directory(self, counter_world):
        group = counter_world.replicate(r=2)
        assert len(group.members) == 3
        for member in group.members:
            assert group.caught_up(member.addresses[0]) == 0
        assert group.caught_up("http://nowhere:80/x") is None

    def test_handle_spans_every_member(self, counter_world):
        group = counter_world.replicate(r=2)
        assert len(counter_world.handle.endpoints) == 3
        assert counter_world.handle.source == "replicated"

    def test_replica_port_deployed_per_member(self, counter_world):
        counter_world.replicate(r=2)
        for provider in counter_world.providers:
            assert "SvcReplica" in provider.deployed_services

    def test_r_limits_group_size(self, counter_world):
        group = counter_world.replicate(r=1)
        assert len(group.members) == 2

    def test_requires_service_deployed_everywhere(self, counter_world):
        from repro.core.errors import DeploymentError

        counter_world.providers[2].undeploy("Svc")
        with pytest.raises(DeploymentError):
            counter_world.replicate(r=2)

    def test_session_state_api_requires_replication(self, counter_world):
        from repro.core.errors import DeploymentError

        deployed = counter_world.providers[0].server.container.require("Svc")
        with pytest.raises(DeploymentError):
            deployed.get_state()


class TestHappyPath:
    def test_deltas_converge_all_members(self, counter_world):
        counter_world.replicate(r=2)
        for i in range(6):
            value = counter_world.executor.invoke(
                counter_world.handle, "increment", {"by": 1}, timeout=0.5
            )
            assert value == i + 1
        counter_world.settle()
        assert [s.value for s in counter_world.services] == [6, 6, 6]
        assert counter_world.group.converged()
        assert counter_world.group.delta_lag() == 0

    def test_session_state_api(self, counter_world):
        counter_world.replicate(r=2)
        counter_world.executor.invoke(
            counter_world.handle, "increment", {"by": 3}, timeout=0.5
        )
        counter_world.settle()
        deployed = counter_world.providers[1].server.container.require("Svc")
        assert deployed.get_state() == {"value": 3}
        snap = deployed.snapshot()
        assert snap.seq == 1 and snap.state == {"value": 3}

    def test_read_only_operations_ship_nothing(self, counter_world):
        group = counter_world.replicate(r=2)
        counter_world.executor.invoke(
            counter_world.handle, "read", {}, timeout=0.5
        )
        counter_world.settle()
        assert group.ships_sent == 0

    def test_cart_sessions_version_independently(self, cart_world):
        group = cart_world.replicate(r=2)
        for item in ("apple", "pear"):
            cart_world.executor.invoke(
                cart_world.handle, "add_item",
                {"session": "alice", "item": item}, timeout=0.5,
            )
        cart_world.executor.invoke(
            cart_world.handle, "add_item",
            {"session": "bob", "item": "fig"}, timeout=0.5,
        )
        cart_world.settle()
        for member in group.members:
            assert member.store.high_water("alice") == 2
            assert member.store.high_water("bob") == 1
        assert cart_world.services[1].cart_size("alice") == 2

    def test_caught_up_scores_track_applied_state(self, counter_world):
        group = counter_world.replicate(r=2)
        counter_world.executor.invoke(
            counter_world.handle, "increment", {"by": 1}, timeout=0.5
        )
        counter_world.settle()
        for member in group.members:
            assert group.caught_up(member.addresses[0]) == 1


class TestLagGuard:
    def _open_gap(self, world, victim_index=1):
        """Lose every ship of delta 1 to one member, then mutate again
        (``_second_mutation``): the lost frame stalls its connection until
        the ship times out, delta 2 fails with it and its retry lands on
        a fresh connection — the victim buffers seq 2 (gap at 1) and is
        lagging."""
        from repro.simnet import ChurnSchedule

        world.replicate(r=2, anti_entropy=False)
        harness = ChurnSchedule(world.net)
        victim = world.group.members[victim_index]
        harness.drop_next(
            lambda f: f.dst == victim.node_id
            and "apply_delta" in payload_text(f)
            and '"seq": 1,' in payload_text(f),
            count=world.group.ship_policy.retry.max_attempts,
        )
        world.executor.invoke(
            world.handle, "increment", {"by": 1}, timeout=0.5
        )
        world.settle(0.5)
        return victim

    def _second_mutation(self, world):
        world.executor.invoke(world.handle, "increment", {"by": 1}, timeout=0.5)
        world.settle(SHIP_TIMEOUT + 0.5)

    def test_gap_makes_member_lag(self, counter_world):
        victim = self._open_gap(counter_world)
        self._second_mutation(counter_world)
        assert victim.store.is_lagging(DEFAULT_SESSION)

    def test_lagging_member_answers_replica_lag_fault(self, counter_world):
        victim = self._open_gap(counter_world)
        self._second_mutation(counter_world)
        # invoke the victim directly (no failover): the lag surfaces
        handle = victim.peer.local_handle("Svc")
        with pytest.raises(ReplicaLagFault) as exc_info:
            counter_world.consumer.invoke(
                handle, "increment", {"by": 1}, timeout=0.5
            )
        assert exc_info.value.behind_by >= 1
        assert victim.lag_rejections >= 1

    def test_failover_routes_around_lagging_member(self, counter_world):
        """With replica-aware planning the lagging member ranks last, so
        the call lands on a caught-up member without even touching it."""
        self._open_gap(counter_world)
        value = counter_world.executor.invoke(
            counter_world.handle, "increment", {"by": 1}, timeout=0.5
        )
        assert value == 2
        assert counter_world.group.divergences() == 0


class TestAntiEntropy:
    def test_restarted_member_resyncs(self, counter_world):
        group = counter_world.replicate(r=2)
        replica = counter_world.providers[2]
        replica.node.go_down()
        for _ in range(3):
            counter_world.executor.invoke(
                counter_world.handle, "increment", {"by": 1}, timeout=0.5
            )
        replica.node.go_up()
        counter_world.settle(3.0)  # anti-entropy period is 0.5s
        member = group.members[2]
        assert member.store.high_water(DEFAULT_SESSION) == 3
        assert counter_world.services[2].value == 3
        assert group.converged()
        assert sum(m.resyncs for m in group.members) >= 1

    def test_compacted_history_falls_back_to_snapshot(self, counter_world):
        config = ReplicationConfig(compact_after=2)
        group = counter_world.replicate(r=2, config=config)
        replica = counter_world.providers[2]
        replica.node.go_down()
        for _ in range(6):  # well past the compaction floor
            counter_world.executor.invoke(
                counter_world.handle, "increment", {"by": 1}, timeout=0.5
            )
        replica.node.go_up()
        counter_world.settle(3.0)
        member = group.members[2]
        assert member.store.high_water(DEFAULT_SESSION) == 6
        assert member.store.snapshots_installed >= 1
        assert group.converged()

    def test_stopped_group_drains(self, counter_world):
        group = counter_world.replicate(r=2)
        counter_world.executor.invoke(
            counter_world.handle, "increment", {"by": 1}, timeout=0.5
        )
        kernel = counter_world.net.kernel
        kernel.run(max_events=2_000)
        assert kernel.pending > 0  # the periodic pull never lets it drain
        group.stop_anti_entropy()
        kernel.run()
        assert kernel.pending == 0
        assert group.converged()

    def test_stats_collector_registered(self, counter_world):
        from repro.observability import metrics as obs_metrics

        group = counter_world.replicate(r=2)
        counter_world.executor.invoke(
            counter_world.handle, "increment", {"by": 1}, timeout=0.5
        )
        counter_world.settle()
        stats = group.stats()
        assert stats["members"] == 3
        assert stats["ships_sent"] == 2  # one delta to two replicas
        assert stats["delta_lag"] == 0
        snapshot = obs_metrics.default_registry().snapshot()
        assert "replication.Svc" in str(snapshot) or stats is not None
