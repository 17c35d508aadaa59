"""The per-member replica store: idempotent delta application.

Each :class:`~repro.replication.member.ReplicationMember` owns one
:class:`ReplicaStore` per replicated service.  The store is the only
piece that reasons about sequence numbers, so its invariants are the
whole correctness story:

- **high-water mark** — per session, the highest sequence number whose
  delta has been applied, with every lower number also applied.
  Handoff planning ranks members by high water, so the redirected call
  lands where the most history already lives.
- **idempotent apply** — a delta at or below the high water is a
  duplicate (the E7 acked-one-way retransmits make duplicates routine)
  and is skipped, *unless* its digest disagrees with what we applied
  at that sequence number, which is a divergence, not a duplicate.
- **gap buffering** — deltas arriving ahead of the stream are held (a
  bounded buffer) and drained in order once the gap fills; a session
  with buffered gaps is *lagging* and refuses to serve calls with
  :class:`~repro.replication.errors.ReplicaLagError` semantics rather
  than serving stale state.
- **snapshot dominance** — anti-entropy resolves two members that both
  executed (a restarted primary with an unshipped suffix vs the replica
  that took over) by sequence dominance: the higher high water wins and
  the shorter branch is discarded (counted, distinguishable from true
  divergence, which is *equal* sequence numbers with different digests).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.replication.errors import StateDivergedError
from repro.replication.state import (
    DEFAULT_SESSION,
    SessionLog,
    StateDelta,
    StateSnapshot,
    diff_state,
    state_digest,
)

#: out-of-order deltas held per session before shedding
MAX_BUFFER = 64
#: (message_id, response wire) pairs carried per snapshot for dedup
REPLY_HISTORY = 16

#: verdicts from :meth:`ReplicaStore.apply_remote`
APPLIED = "applied"
DUPLICATE = "duplicate"
BUFFERED = "buffered"
DIVERGED = "diverged"


class _SessionRecord:
    __slots__ = (
        "state",
        "high_water",
        "digest",
        "buffered",
        "diverged",
        "log",
        "replies",
    )

    def __init__(self, session: str, compact_after: int):
        self.state: dict[str, Any] = {}
        self.high_water = 0
        self.digest = state_digest({})
        self.buffered: dict[int, StateDelta] = {}
        self.diverged = False
        self.log = SessionLog(session, compact_after=compact_after)
        self.replies: deque[tuple[str, str]] = deque(maxlen=REPLY_HISTORY)


class ReplicaStore:
    """Versioned session state for one member of a replication group."""

    def __init__(self, member_id: str = "", compact_after: int = 32):
        self.member_id = member_id
        self.compact_after = compact_after
        self._sessions: dict[str, _SessionRecord] = {}
        # counters (surfaced through the group's metrics collector)
        self.applied = 0
        self.duplicates = 0
        self.buffered_total = 0
        self.buffer_overflows = 0
        self.divergences = 0
        self.snapshots_installed = 0
        self.branches_discarded = 0

    # -- bookkeeping -------------------------------------------------------
    def _record(self, session: str) -> _SessionRecord:
        record = self._sessions.get(session)
        if record is None:
            record = _SessionRecord(session, self.compact_after)
            self._sessions[session] = record
        return record

    @property
    def sessions(self) -> list[str]:
        return sorted(self._sessions)

    def high_water(self, session: str = DEFAULT_SESSION) -> int:
        record = self._sessions.get(session)
        return record.high_water if record is not None else 0

    def high_water_map(self) -> dict[str, int]:
        return {s: r.high_water for s, r in self._sessions.items()}

    @property
    def total_applied(self) -> int:
        """Sum of high waters — the handoff-planning caught-up score."""
        return sum(r.high_water for r in self._sessions.values())

    def get_state(self, session: str = DEFAULT_SESSION) -> dict[str, Any]:
        record = self._sessions.get(session)
        return dict(record.state) if record is not None else {}

    def lag(self, session: str = DEFAULT_SESSION) -> int:
        """How far behind the furthest buffered delta says we are (0
        when the stream has no known gap)."""
        record = self._sessions.get(session)
        if record is None or not record.buffered:
            return 0
        return max(record.buffered) - record.high_water

    def is_lagging(self, session: str = DEFAULT_SESSION) -> bool:
        return self.lag(session) > 0

    def is_diverged(self, session: str = DEFAULT_SESSION) -> bool:
        record = self._sessions.get(session)
        return record.diverged if record is not None else False

    def compactions(self) -> int:
        return sum(r.log.compactions for r in self._sessions.values())

    def seed_baseline(self, session: str, state: dict[str, Any]) -> None:
        """Register *state* as the session's sequence-0 baseline.

        Members deploy identically-constructed service instances, so
        the instance's pre-replication state is shared ground: seeding
        it means the first mutation ships only its own diff and
        read-only operations ship nothing at all.  A violated
        assumption (members constructed differently) surfaces as a
        digest divergence on the first shipped delta, never silently.
        No-op once the session has any history.
        """
        if session in self._sessions:
            return
        record = self._record(session)
        record.state = dict(state)
        record.digest = state_digest(record.state)
        record.log = SessionLog(
            session,
            compact_after=self.compact_after,
            snapshot=StateSnapshot(
                session, 0, dict(state), digest=record.digest
            ),
        )

    # -- primary side ------------------------------------------------------
    def record_local(
        self,
        session: str,
        new_state: dict[str, Any],
        message_id: Optional[str] = None,
        response_wire: Optional[str] = None,
        operation: str = "",
    ) -> Optional[StateDelta]:
        """Version a local execution's resulting *new_state*.

        Returns the delta to ship, or ``None`` when the execution did
        not change the session's state (read-only operations produce no
        replication traffic).
        """
        record = self._record(session)
        if record.diverged:
            raise StateDivergedError(
                f"session {session!r} is diverged on {self.member_id!r}",
                session=session,
            )
        changes, removed = diff_state(record.state, new_state)
        if not changes and not removed:
            return None
        seq = record.high_water + 1
        digest = state_digest(new_state)
        delta = StateDelta(
            session=session,
            seq=seq,
            changes=changes,
            removed=removed,
            digest=digest,
            message_id=message_id,
            response_wire=response_wire,
            operation=operation,
        )
        record.state = dict(new_state)
        record.high_water = seq
        record.digest = digest
        record.log.append(delta, record.state)
        if message_id is not None and response_wire is not None:
            record.replies.append((message_id, response_wire))
        self.applied += 1
        return delta

    # -- replica side ------------------------------------------------------
    def apply_remote(self, delta: StateDelta) -> tuple[str, list[StateDelta]]:
        """Apply a shipped delta idempotently.

        Returns ``(verdict, applied)`` where *applied* lists every delta
        actually folded in this call (the argument plus any buffered
        successors it unblocked) — the member seeds its dedup window
        from exactly that list.
        """
        record = self._record(delta.session)
        if record.diverged:
            return DIVERGED, []
        if delta.seq <= record.high_water:
            # At-or-below high water: normally a retransmit duplicate.
            # But if this is *our* current head and the digests disagree,
            # two members executed the same sequence number differently.
            if (
                delta.seq == record.high_water
                and delta.digest
                and record.digest
                and delta.digest != record.digest
            ):
                record.diverged = True
                self.divergences += 1
                return DIVERGED, []
            self.duplicates += 1
            return DUPLICATE, []
        if delta.seq > record.high_water + 1:
            if len(record.buffered) >= MAX_BUFFER:
                self.buffer_overflows += 1
                return BUFFERED, []
            if delta.seq not in record.buffered:
                record.buffered[delta.seq] = delta
                self.buffered_total += 1
            return BUFFERED, []
        applied = [self._apply_in_order(record, delta)]
        # drain any buffered suffix the gap-fill unblocked
        while record.high_water + 1 in record.buffered:
            queued = record.buffered.pop(record.high_water + 1)
            applied.append(self._apply_in_order(record, queued))
        if record.diverged:
            return DIVERGED, [d for d in applied if d is not None]
        return APPLIED, [d for d in applied if d is not None]

    def _apply_in_order(
        self, record: _SessionRecord, delta: StateDelta
    ) -> Optional[StateDelta]:
        delta.apply_to(record.state)
        digest = state_digest(record.state)
        if delta.digest and digest != delta.digest:
            record.diverged = True
            self.divergences += 1
            return None
        record.high_water = delta.seq
        record.digest = digest
        record.log.append(delta, record.state)
        if delta.message_id is not None and delta.response_wire is not None:
            record.replies.append((delta.message_id, delta.response_wire))
        self.applied += 1
        return delta

    # -- snapshots / anti-entropy -----------------------------------------
    def snapshot(self, session: str = DEFAULT_SESSION) -> StateSnapshot:
        record = self._record(session)
        return StateSnapshot(
            session,
            record.high_water,
            dict(record.state),
            digest=record.digest,
            replies=tuple(record.replies),
        )

    def deltas_since(
        self, session: str, seq: int
    ) -> Optional[list[StateDelta]]:
        """Catch-up suffix from the log; ``None`` past the compaction
        floor (serve a snapshot instead)."""
        record = self._sessions.get(session)
        if record is None:
            return []
        return record.log.deltas_since(seq)

    def install_snapshot(self, snap: StateSnapshot) -> bool:
        """Install *snap* under sequence dominance; True when adopted.

        A strictly higher sequence number always wins — if this member
        had its own un-shipped suffix (a restarted primary), that branch
        is discarded and counted.  An *equal* sequence number with a
        different digest is true divergence: flagged, never silently
        overwritten.
        """
        record = self._record(snap.session)
        if snap.seq < record.high_water:
            return False
        if snap.seq == record.high_water:
            if (
                snap.digest
                and record.digest
                and snap.digest != record.digest
            ):
                if not record.diverged:
                    record.diverged = True
                    self.divergences += 1
            return False
        if record.diverged:
            # our shorter branch lost to a strictly longer history —
            # resolved by dominance, distinct from true (equal-seq)
            # divergence which is never overwritten
            self.branches_discarded += 1
        record.state = dict(snap.state)
        record.high_water = snap.seq
        record.digest = snap.digest or state_digest(record.state)
        record.buffered = {
            seq: d for seq, d in record.buffered.items() if seq > snap.seq
        }
        record.diverged = False
        record.log = SessionLog(
            snap.session,
            compact_after=self.compact_after,
            snapshot=StateSnapshot(
                snap.session, snap.seq, dict(snap.state), digest=record.digest
            ),
        )
        for message_id, wire in snap.replies:
            record.replies.append((message_id, wire))
        self.snapshots_installed += 1
        # drain buffered deltas that now continue from the snapshot
        while record.high_water + 1 in record.buffered:
            queued = record.buffered.pop(record.high_water + 1)
            self._apply_in_order(record, queued)
        return True

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "sessions": len(self._sessions),
            "applied": self.applied,
            "duplicates": self.duplicates,
            "buffered": sum(len(r.buffered) for r in self._sessions.values()),
            "buffer_overflows": self.buffer_overflows,
            "divergences": self.divergences,
            "snapshots_installed": self.snapshots_installed,
            "branches_discarded": self.branches_discarded,
            "compactions": self.compactions(),
            "total_applied": self.total_applied,
        }
