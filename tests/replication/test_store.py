"""Unit tests for the replica store's ordering invariants (E15)."""

import pytest

import repro.replication.store as store_module
from repro.replication.errors import StateDivergedError
from repro.replication.state import StateDelta, StateSnapshot, state_digest
from repro.replication.store import (
    APPLIED,
    BUFFERED,
    DIVERGED,
    DUPLICATE,
    ReplicaStore,
)


def delta_for(seq, value, session="s", **kw):
    return StateDelta(
        session, seq, {"v": value}, digest=state_digest({"v": value}), **kw
    )


class TestRecordLocal:
    def test_assigns_monotonic_seqs(self):
        store = ReplicaStore("m")
        d1 = store.record_local("s", {"v": 1})
        d2 = store.record_local("s", {"v": 2})
        assert (d1.seq, d2.seq) == (1, 2)
        assert store.high_water("s") == 2

    def test_no_change_produces_no_delta(self):
        store = ReplicaStore("m")
        store.record_local("s", {"v": 1})
        assert store.record_local("s", {"v": 1}) is None
        assert store.high_water("s") == 1

    def test_delta_carries_diff_not_full_state(self):
        store = ReplicaStore("m")
        store.record_local("s", {"a": 1, "b": 2})
        delta = store.record_local("s", {"a": 1, "b": 3})
        assert delta.changes == {"b": 3}

    def test_removed_keys_tracked(self):
        store = ReplicaStore("m")
        store.record_local("s", {"a": 1, "b": 2})
        delta = store.record_local("s", {"a": 1})
        assert delta.removed == ("b",)

    def test_diverged_session_refuses_local_writes(self):
        store = ReplicaStore("m")
        store.record_local("s", {"v": 1})
        bad = StateDelta("s", 1, {"v": 99}, digest="not-ours")
        assert store.apply_remote(bad)[0] == DIVERGED
        with pytest.raises(StateDivergedError):
            store.record_local("s", {"v": 2})


class TestApplyRemote:
    def test_in_order_apply(self):
        store = ReplicaStore("m")
        verdict, applied = store.apply_remote(delta_for(1, 10))
        assert verdict == APPLIED
        assert [d.seq for d in applied] == [1]
        assert store.get_state("s") == {"v": 10}

    def test_duplicate_is_idempotent(self):
        store = ReplicaStore("m")
        store.apply_remote(delta_for(1, 10))
        verdict, applied = store.apply_remote(delta_for(1, 10))
        assert verdict == DUPLICATE
        assert applied == []
        assert store.duplicates == 1
        assert store.high_water("s") == 1

    def test_gap_buffers_then_drains_in_order(self):
        store = ReplicaStore("m")
        assert store.apply_remote(delta_for(2, 20))[0] == BUFFERED
        assert store.is_lagging("s")
        assert store.lag("s") == 2
        verdict, applied = store.apply_remote(delta_for(1, 10))
        assert verdict == APPLIED
        assert [d.seq for d in applied] == [1, 2]
        assert store.get_state("s") == {"v": 20}
        assert not store.is_lagging("s")

    def test_buffer_bounded(self, monkeypatch):
        monkeypatch.setattr(store_module, "MAX_BUFFER", 2)
        store = ReplicaStore("m")
        store.apply_remote(delta_for(3, 3))
        store.apply_remote(delta_for(4, 4))
        store.apply_remote(delta_for(5, 5))  # over the bound: shed
        assert store.buffer_overflows == 1

    def test_digest_mismatch_flags_divergence(self):
        store = ReplicaStore("m")
        store.apply_remote(delta_for(1, 10))
        bad = StateDelta("s", 2, {"v": 20}, digest="wrong-digest")
        verdict, applied = store.apply_remote(bad)
        assert verdict == DIVERGED
        assert store.is_diverged("s")
        assert store.divergences == 1

    def test_equal_seq_different_digest_is_divergence(self):
        store = ReplicaStore("m")
        store.apply_remote(delta_for(1, 10))
        other_branch = StateDelta(
            "s", 1, {"v": 99}, digest=state_digest({"v": 99})
        )
        assert store.apply_remote(other_branch)[0] == DIVERGED

    def test_sessions_are_independent(self):
        store = ReplicaStore("m")
        store.apply_remote(delta_for(1, 1, session="a"))
        store.apply_remote(delta_for(2, 2, session="b"))  # buffered gap in b
        assert store.high_water("a") == 1
        assert store.is_lagging("b")
        assert not store.is_lagging("a")


class TestSnapshots:
    def test_snapshot_reflects_high_water(self):
        store = ReplicaStore("m")
        store.record_local("s", {"v": 1}, message_id="uuid:1", response_wire="<a/>")
        snap = store.snapshot("s")
        assert snap.seq == 1
        assert snap.state == {"v": 1}
        assert snap.replies == (("uuid:1", "<a/>"),)

    def test_install_dominating_snapshot(self):
        store = ReplicaStore("m")
        store.apply_remote(delta_for(1, 10))
        snap = StateSnapshot("s", 5, {"v": 50}, digest=state_digest({"v": 50}))
        assert store.install_snapshot(snap)
        assert store.high_water("s") == 5
        assert store.get_state("s") == {"v": 50}
        assert store.snapshots_installed == 1

    def test_stale_snapshot_refused(self):
        store = ReplicaStore("m")
        for i in range(1, 4):
            store.apply_remote(delta_for(i, i))
        snap = StateSnapshot("s", 2, {"v": 2}, digest=state_digest({"v": 2}))
        assert not store.install_snapshot(snap)
        assert store.high_water("s") == 3

    def test_equal_seq_snapshot_with_other_digest_flags_divergence(self):
        store = ReplicaStore("m")
        store.apply_remote(delta_for(1, 10))
        snap = StateSnapshot("s", 1, {"v": 99}, digest=state_digest({"v": 99}))
        assert not store.install_snapshot(snap)
        assert store.is_diverged("s")

    def test_dominance_resolves_diverged_branch(self):
        """A diverged member adopting a strictly longer history counts a
        branch discard and becomes serviceable again."""
        store = ReplicaStore("m")
        store.apply_remote(delta_for(1, 10))
        store.apply_remote(StateDelta("s", 2, {"v": 20}, digest="wrong"))
        assert store.is_diverged("s")
        snap = StateSnapshot("s", 6, {"v": 60}, digest=state_digest({"v": 60}))
        assert store.install_snapshot(snap)
        assert not store.is_diverged("s")
        assert store.branches_discarded == 1
        assert store.divergences == 1  # the original conflict stays counted

    def test_install_drains_buffered_continuation(self):
        store = ReplicaStore("m")
        store.apply_remote(delta_for(6, 6))  # buffered: gap 1..5
        snap = StateSnapshot("s", 5, {"v": 5}, digest=state_digest({"v": 5}))
        assert store.install_snapshot(snap)
        assert store.high_water("s") == 6
        assert store.get_state("s") == {"v": 6}

    def test_deltas_since_none_after_compaction(self):
        store = ReplicaStore("m", compact_after=2)
        for i in range(1, 5):
            store.record_local("s", {"v": i})
        assert store.deltas_since("s", 0) is None
        assert store.compactions() >= 1

    def test_stats_shape(self):
        store = ReplicaStore("m")
        store.record_local("s", {"v": 1})
        stats = store.stats()
        assert stats["sessions"] == 1
        assert stats["applied"] == 1
        assert stats["total_applied"] == 1
