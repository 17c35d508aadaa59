"""One member of a replication group: primary duties + replica duties.

Every member is symmetric — the paper's peer argument applied to
replication.  Whichever member executes a mutation acts as that
session's primary for that instant: it versions the resulting state
into a :class:`~repro.replication.state.StateDelta` and ships it to
the other members.  Every member simultaneously hosts a *replica
port* — a plain deployed service (``<Name>Replica``) whose operations
(``apply_delta`` / ``fetch_deltas`` / ``fetch_snapshot`` /
``high_water``) are invoked over the ordinary transports, so state
sync rides the same wire, dedup windows, and retry machinery as
application traffic.

The member also guards its own dispatch path: a session with a known
gap in its delta stream answers
:class:`~repro.soap.faults.ReplicaLagFault` (failover-eligible, the
call lands on a caught-up member) instead of silently serving stale
state, and a diverged session answers a fatal fault rather than
picking a side of the conflict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.events import EventSource
from repro.observability import metrics as obs_metrics
from repro.replication.errors import StateDivergedError
from repro.replication.state import DEFAULT_SESSION, StateDelta, StateSnapshot
from repro.replication.store import APPLIED, BUFFERED, DIVERGED, ReplicaStore
from repro.soap.envelope import SoapEnvelope
from repro.soap.faults import FaultCode, ReplicaLagFault, SoapFault


#: request argument naming the session a call belongs to (services
#: without a ``get_session_state`` protocol ignore it and use the
#: single default session)
SESSION_ARG = "session"
#: retry-after hint answered with a ReplicaLagFault
LAG_RETRY_AFTER = 0.1


@dataclass
class ReplicationConfig:
    """Tunables for one replication group."""

    #: replicas per service (group size is r + 1)
    r: int = 2
    #: delta-log suffix length before folding into the snapshot
    compact_after: int = 32


class _WholeObjectAdapter:
    """Default state adapter: the instance's public attributes are the
    single default session's state."""

    sessions_are_partitioned = False

    def __init__(self, instance: Any):
        self.instance = instance

    def get(self, session: str) -> dict[str, Any]:
        return {
            k: v for k, v in vars(self.instance).items() if not k.startswith("_")
        }

    def set(self, session: str, state: dict[str, Any]) -> None:
        for key, value in state.items():
            setattr(self.instance, key, value)
        for key in list(vars(self.instance)):
            if not key.startswith("_") and key not in state:
                delattr(self.instance, key)


class _SessionProtocolAdapter:
    """Adapter for services that partition state themselves via the
    ``get_session_state(session) -> dict`` /
    ``set_session_state(session, state)`` protocol."""

    sessions_are_partitioned = True

    def __init__(self, instance: Any):
        self.instance = instance

    def get(self, session: str) -> dict[str, Any]:
        return dict(self.instance.get_session_state(session))

    def set(self, session: str, state: dict[str, Any]) -> None:
        self.instance.set_session_state(session, dict(state))


def make_adapter(instance: Any):
    if hasattr(instance, "get_session_state") and hasattr(
        instance, "set_session_state"
    ):
        return _SessionProtocolAdapter(instance)
    return _WholeObjectAdapter(instance)


class ReplicaPort:
    """The deployed sync service every member hosts (``<Name>Replica``).

    Operations take and return JSON strings — replication payloads stay
    opaque to the SOAP encoding layer, so arbitrary session state rides
    through without struct registration.
    """

    OPERATIONS = ["apply_delta", "fetch_deltas", "fetch_snapshot", "high_water"]

    def __init__(self, member: "ReplicationMember"):
        self._member = member

    def apply_delta(self, delta: str) -> str:
        return self._member.handle_apply(delta)

    def fetch_deltas(self, session: str, since: int) -> str:
        return self._member.handle_fetch_deltas(session, int(since))

    def fetch_snapshot(self, session: str) -> str:
        return self._member.handle_fetch_snapshot(session)

    def high_water(self) -> str:
        return json.dumps(self._member.store.high_water_map(), sort_keys=True)


class ReplicationMember(EventSource):
    """Primary + replica behaviour for one peer in one group."""

    def __init__(
        self,
        group,
        peer,
        deployed,
        instance: Any,
        config: ReplicationConfig,
    ):
        super().__init__(f"replication:{deployed.name}", parent=peer.server)
        self.group = group
        self.peer = peer
        self.deployed = deployed
        self.config = config
        self.adapter = make_adapter(instance)
        self.store = ReplicaStore(member_id=peer.name, compact_after=config.compact_after)
        self.port_name = f"{deployed.name}Replica"
        self.port = ReplicaPort(self)
        self.port_deployed = peer.deploy(
            self.port, name=self.port_name, include=list(ReplicaPort.OPERATIONS)
        )
        # the deployed instance's initial state is the shared seq-0
        # baseline (members construct identical instances); partitioned
        # sessions are seeded lazily when first seen
        if not self.adapter.sessions_are_partitioned:
            self.store.seed_baseline(
                DEFAULT_SESSION, self.adapter.get(DEFAULT_SESSION)
            )
        # counters
        self.deltas_shipped = 0
        self.ship_failures = 0
        self.lag_rejections = 0
        self.resyncs = 0
        self.snapshot_bytes = 0

    def _now(self) -> float:
        return self.peer._now()

    @property
    def node_id(self) -> str:
        return self.peer.node.id

    @property
    def addresses(self) -> list[str]:
        """Service-endpoint addresses handoff planning maps to this
        member's caught-up score."""
        return [e.address for e in self.deployed.endpoints]

    # ------------------------------------------------------------------
    # primary-side hooks (called by LightweightContainer.process_request)
    # ------------------------------------------------------------------
    def session_of(self, request: SoapEnvelope) -> str:
        if not self.adapter.sessions_are_partitioned:
            return DEFAULT_SESSION
        body = request.body_content
        if body is None:
            return DEFAULT_SESSION
        session = body.find_text(SESSION_ARG, "")
        return session or DEFAULT_SESSION

    def guard_request(
        self, request: SoapEnvelope, operation: str
    ) -> Optional[SoapEnvelope]:
        """Refuse to serve a session this member cannot serve safely.

        Returns a fault envelope, or ``None`` to admit the dispatch.
        """
        session = self.session_of(request)
        self.store.seed_baseline(session, self.adapter.get(session))
        if self.store.is_diverged(session):
            obs_metrics.inc("replication.diverged_rejections")
            return SoapEnvelope.for_fault(
                SoapFault(
                    FaultCode.SERVER,
                    f"session {session!r} has diverged replicas",
                    subcode="StateDiverged",
                )
            )
        lag = self.store.lag(session)
        if lag > 0:
            self.lag_rejections += 1
            obs_metrics.inc("replication.lag_rejections")
            self.fire_server(
                "replica-lagging",
                service=self.deployed.name,
                session=session,
                behind_by=lag,
            )
            return SoapEnvelope.for_fault(
                ReplicaLagFault(
                    f"member {self.node_id!r} is {lag} delta(s) behind "
                    f"on session {session!r}",
                    behind_by=lag,
                    retry_after=LAG_RETRY_AFTER,
                )
            )
        return None

    def after_execute(
        self,
        request: SoapEnvelope,
        response_wire,
        message_id: Optional[str],
        operation: str,
    ) -> None:
        """Version any state change the dispatch produced and ship it,
        with the already-encoded answer (the wire the primary retains)."""
        session = self.session_of(request)
        try:
            delta = self.store.record_local(
                session,
                self.adapter.get(session),
                message_id=message_id,
                response_wire=response_wire,
                operation=operation,
            )
        except StateDivergedError:
            return
        if delta is None:
            return
        obs_metrics.inc("replication.deltas_produced")
        self.group.ship(self, delta)

    # ------------------------------------------------------------------
    # replica-side operations (invoked through the ReplicaPort)
    # ------------------------------------------------------------------
    def handle_apply(self, delta_json: str) -> str:
        delta = StateDelta.from_json(delta_json)
        self.store.seed_baseline(
            delta.session, self.adapter.get(delta.session)
        )
        verdict, applied = self.store.apply_remote(delta)
        for item in applied:
            self._install_applied(item)
        if verdict == APPLIED:
            obs_metrics.inc("replication.deltas_applied", len(applied))
            self.fire_server(
                "delta-applied",
                service=self.deployed.name,
                session=delta.session,
                seq=delta.seq,
                applied=len(applied),
                message_id=delta.message_id,
            )
        elif verdict == BUFFERED:
            obs_metrics.inc("replication.deltas_buffered")
            self.fire_server(
                "delta-buffered",
                service=self.deployed.name,
                session=delta.session,
                seq=delta.seq,
                high_water=self.store.high_water(delta.session),
            )
        elif verdict == DIVERGED:
            obs_metrics.inc("replication.divergences")
            self.fire_server(
                "state-diverged",
                service=self.deployed.name,
                session=delta.session,
                seq=delta.seq,
            )
        return json.dumps(
            {
                "verdict": verdict,
                "high_water": self.store.high_water(delta.session),
                "session": delta.session,
            },
            sort_keys=True,
        )

    def _install_applied(self, delta: StateDelta) -> None:
        """Fold one applied delta into the live object + dedup window."""
        self.adapter.set(delta.session, self.store.get_state(delta.session))
        if delta.message_id is not None and delta.response_wire is not None:
            # the crux of at-most-once across handoff: a failover
            # retransmission of this MessageID replays the retained
            # response instead of re-executing the mutation
            self.deployed.dedup.remember(delta.message_id, delta.response_wire)

    def handle_fetch_deltas(self, session: str, since: int) -> str:
        suffix = self.store.deltas_since(session, since)
        if suffix is None:
            return json.dumps({"compacted": True})
        return json.dumps({"deltas": [d.to_json() for d in suffix]})

    def handle_fetch_snapshot(self, session: str) -> str:
        snap = self.store.snapshot(session)
        payload = snap.to_json()
        self.snapshot_bytes += len(payload.encode("utf-8"))
        obs_metrics.inc("replication.snapshot_bytes", len(payload.encode("utf-8")))
        return payload

    def install_snapshot(self, snap: StateSnapshot) -> bool:
        adopted = self.store.install_snapshot(snap)
        if adopted:
            self.adapter.set(snap.session, self.store.get_state(snap.session))
            for message_id, wire in snap.replies:
                self.deployed.dedup.remember(message_id, wire)
            self.fire_server(
                "snapshot-installed",
                service=self.deployed.name,
                session=snap.session,
                seq=snap.seq,
            )
            obs_metrics.inc("replication.snapshots_installed")
        return adopted

    def apply_delta_local(self, delta: StateDelta) -> str:
        """In-process apply (the DeployedService session-state API)."""
        return json.loads(self.handle_apply(delta.to_json()))["verdict"]

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        stats = self.store.stats()
        stats.update(
            deltas_shipped=self.deltas_shipped,
            ship_failures=self.ship_failures,
            lag_rejections=self.lag_rejections,
            resyncs=self.resyncs,
            snapshot_bytes=self.snapshot_bytes,
        )
        return stats

    def __repr__(self) -> str:
        return (
            f"<ReplicationMember {self.deployed.name}@{self.node_id} "
            f"hw={self.store.high_water_map()}>"
        )
