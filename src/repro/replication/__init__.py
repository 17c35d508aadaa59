"""Replicated stateful services (E15).

The paper deliberately exposes *live stateful objects* as services;
this package makes that safe under churn: every mutation a member
executes becomes a versioned :class:`~repro.replication.state.StateDelta`
shipped to the other members, handoff planning redirects a failed call
to the most-caught-up live replica, and the shipped
``(MessageID, response)`` pairs seed replica dedup windows so the
redirected retransmission replays instead of re-executing —
at-most-once preserved across failover.

Entry point: :meth:`repro.replication.group.ReplicationGroup.establish`.
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".errors": ("ReplicaLagError", "ReplicationError", "StateDivergedError"),
    ".group": ("ReplicationGroup",),
    ".member": ("ReplicationConfig", "ReplicationMember"),
    ".state": (
        "DEFAULT_SESSION", "SessionLog", "StateDelta", "StateSnapshot", "diff_state",
        "state_digest",
    ),
    ".store": ("ReplicaStore",),
})
