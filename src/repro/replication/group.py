"""The replication group: membership, delta shipping, anti-entropy.

A :class:`ReplicationGroup` binds one service name across ``r + 1``
peers that each hold a live deployment of the service.  It owns:

- **shipping** — fan-out of every delta from the executing member to
  the others, over the ordinary client invocation stack with an E7
  retry policy (so a dropped ship frame retransmits, and the replica's
  idempotent store makes the duplicate harmless);
- **the directory** — address → caught-up score, consulted by the
  :class:`~repro.supervision.failover.FailoverExecutor` so a redirected
  call prefers the member holding the most history;
- **anti-entropy** — a periodic pull (high-water compare → delta
  suffix fetch → snapshot fallback past the compaction floor) that
  re-converges members that missed ships while down, under sequence
  dominance (a restarted primary's un-shipped branch is discarded in
  favour of the longer surviving history);
- **metrics** — a ``replication.<service>`` collector (delta lag,
  handoffs, snapshot bytes, per-member stores) for the E10 registry.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.core.handle import ServiceHandle
from repro.observability import metrics as obs_metrics
from repro.observability.tracecontext import (
    current_context as trace_current_context,
    event_fields as trace_event_fields,
)
from repro.replication.member import ReplicationConfig, ReplicationMember
from repro.replication.state import StateDelta, StateSnapshot


class ReplicationGroup:
    """All members replicating one service."""

    def __init__(self, service_name: str, config: Optional[ReplicationConfig] = None):
        self.service_name = service_name
        self.config = config or ReplicationConfig()
        self.members: list[ReplicationMember] = []
        self._by_address: dict[str, ReplicationMember] = {}
        self._port_handles: dict[str, ServiceHandle] = {}
        #: node_id -> session -> acked high water (learned from ship acks)
        self.acked: dict[str, dict[str, int]] = {}
        self.ships_sent = 0
        self.ship_failures = 0
        self._kernel = None

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @classmethod
    def establish(
        cls,
        primary,
        service_name: str,
        replicas,
        r: int = 2,
        config: Optional[ReplicationConfig] = None,
    ) -> "ReplicationGroup":
        """Build a group over *primary* plus the first *r* of *replicas*.

        Every peer must already hold a live deployment of
        *service_name*; replication attaches to those deployments
        rather than cloning objects across peers.
        """
        config = config or ReplicationConfig(r=r)
        group = cls(service_name, config)
        for peer in [primary, *list(replicas)[:r]]:
            group.add_member(peer)
        group._kernel = primary.node.network.kernel
        obs_metrics.default_registry().add_collector(
            f"replication.{service_name}", group.stats
        )
        return group

    def add_member(self, peer) -> ReplicationMember:
        deployed = peer.server.container.require(self.service_name)
        instance = self._instance_of(deployed)
        member = ReplicationMember(self, peer, deployed, instance, self.config)
        deployed.replication = member
        self.members.append(member)
        for address in member.addresses:
            self._by_address[address] = member
        self._port_handles[member.node_id] = peer.local_handle(member.port_name)
        self.acked.setdefault(member.node_id, {})
        return member

    @staticmethod
    def _instance_of(deployed) -> Any:
        """The single live object behind every operation of *deployed*."""
        targets = {id(op.target): op.target for op in deployed.service.operations.values()}
        if len(targets) != 1:
            raise ValueError(
                f"service {deployed.name!r} maps operations onto "
                f"{len(targets)} objects; replication needs exactly one "
                "stateful instance per deployment"
            )
        return next(iter(targets.values()))

    # ------------------------------------------------------------------
    # the handoff directory (consulted by FailoverExecutor)
    # ------------------------------------------------------------------
    def caught_up(self, address: str) -> Optional[int]:
        """The caught-up score of the member serving *address*
        (``None`` when the address is not a group member's)."""
        member = self._by_address.get(address)
        if member is None:
            return None
        return member.store.total_applied

    def handle(self) -> ServiceHandle:
        """One multi-endpoint handle spanning every member — what a
        failover-enabled client invokes against."""
        endpoints = []
        for member in self.members:
            endpoints.extend(member.deployed.endpoints)
        return ServiceHandle(
            self.service_name,
            self.members[0].deployed.wsdl(),
            endpoints,
            source="replicated",
        )

    def publish(self, **kwargs: Any) -> None:
        """Advertise every member's endpoints through its own publisher,
        so discovery hands out replica endpoints alongside the primary's."""
        for member in self.members:
            member.peer.publish(member.deployed, **kwargs)

    # ------------------------------------------------------------------
    # delta shipping (primary -> replicas)
    # ------------------------------------------------------------------
    def ship(self, origin: ReplicationMember, delta: StateDelta) -> None:
        payload = delta.to_json()
        for target in self.members:
            if target is origin:
                continue
            self._ship_one(origin, target, delta, payload)

    def _ship_one(
        self,
        origin: ReplicationMember,
        target: ReplicationMember,
        delta: StateDelta,
        payload: str,
    ) -> None:
        handle = self._port_handles[target.node_id]
        self.ships_sent += 1
        origin.deltas_shipped += 1
        obs_metrics.inc("replication.deltas_shipped")
        # Ships run synchronously inside the primary's request-processing
        # window, so the ambient context here is the server span of the
        # call that produced the delta — the ship's own invocation picks
        # it up the same way; tagging the event makes the fan-out visible
        # in the (distributed) span tree without re-parsing wires.
        origin.fire_server(
            "delta-shipped",
            service=self.service_name,
            session=delta.session,
            seq=delta.seq,
            target=target.node_id,
            message_id=delta.message_id,
            **trace_event_fields(trace_current_context()),
        )

        def on_done(result: Any, error: Optional[Exception]) -> None:
            if error is not None:
                self.ship_failures += 1
                origin.ship_failures += 1
                obs_metrics.inc("replication.ship_failures")
                origin.fire_server(
                    "delta-ship-failed",
                    service=self.service_name,
                    session=delta.session,
                    seq=delta.seq,
                    target=target.node_id,
                    reason=str(error),
                    message_id=delta.message_id,
                )
                return
            try:
                ack = json.loads(result)
            except (TypeError, ValueError):
                return
            session_acks = self.acked.setdefault(target.node_id, {})
            seq = int(ack.get("high_water", 0))
            if seq > session_acks.get(delta.session, 0):
                session_acks[delta.session] = seq

        try:
            origin.peer.client.invocation.invoke_async(
                handle,
                "apply_delta",
                {"delta": payload},
                on_done,
                self.config.ship_timeout,
                policy=self.config.ship_policy(),
            )
        except Exception as exc:  # noqa: BLE001 - dying-origin boundary
            on_done(None, exc)

    # ------------------------------------------------------------------
    # anti-entropy (periodic pull + sequence dominance)
    # ------------------------------------------------------------------
    def start_anti_entropy(self, interval: Optional[float] = None) -> None:
        """Run the convergence pull every *interval* virtual seconds."""
        period = interval if interval is not None else self.config.anti_entropy_interval
        if period <= 0 or self._kernel is None:
            return

        def tick() -> None:
            self.run_anti_entropy()
            self._kernel.schedule(period, tick)

        self._kernel.schedule(period, tick)

    def run_anti_entropy(self) -> None:
        """One pull round: every live member compares high waters with
        every other live member and catches up where it is behind."""
        for puller in self.members:
            if not puller.peer.node.up:
                continue
            for source in self.members:
                if source is puller or not source.peer.node.up:
                    continue
                self._pull(puller, source)

    def _pull(self, puller: ReplicationMember, source: ReplicationMember) -> None:
        handle = self._port_handles[source.node_id]

        def on_high_water(result: Any, error: Optional[Exception]) -> None:
            if error is not None or result is None:
                return
            try:
                remote = {s: int(v) for s, v in json.loads(result).items()}
            except (TypeError, ValueError):
                return
            for session, remote_hw in remote.items():
                local_hw = puller.store.high_water(session)
                if remote_hw > local_hw:
                    self._catch_up(puller, source, handle, session, local_hw)

        self._invoke(puller, handle, "high_water", {}, on_high_water)

    def _catch_up(
        self,
        puller: ReplicationMember,
        source: ReplicationMember,
        handle: ServiceHandle,
        session: str,
        local_hw: int,
    ) -> None:
        if puller.store.is_diverged(session):
            # dominance resolution needs the full winning state
            self._fetch_snapshot(puller, handle, session)
            return

        def on_deltas(result: Any, error: Optional[Exception]) -> None:
            if error is not None or result is None:
                return
            try:
                payload = json.loads(result)
            except (TypeError, ValueError):
                return
            if payload.get("compacted"):
                self._fetch_snapshot(puller, handle, session)
                return
            applied_any = False
            for delta_json in payload.get("deltas", ()):
                verdict = json.loads(puller.handle_apply(delta_json))["verdict"]
                if verdict == "applied":
                    applied_any = True
                elif verdict == "diverged":
                    # our branch conflicts; next round pulls the snapshot
                    return
            if applied_any:
                self._mark_resynced(puller, session)

        self._invoke(
            puller, handle, "fetch_deltas",
            {"session": session, "since": local_hw}, on_deltas,
        )

    def _fetch_snapshot(
        self, puller: ReplicationMember, handle: ServiceHandle, session: str
    ) -> None:
        def on_snapshot(result: Any, error: Optional[Exception]) -> None:
            if error is not None or result is None:
                return
            snap = StateSnapshot.from_json(result)
            if puller.install_snapshot(snap):
                self._mark_resynced(puller, session)

        self._invoke(
            puller, handle, "fetch_snapshot", {"session": session}, on_snapshot
        )

    def _mark_resynced(self, puller: ReplicationMember, session: str) -> None:
        puller.resyncs += 1
        obs_metrics.inc("replication.resyncs")
        puller.fire_server(
            "session-resynced",
            service=self.service_name,
            session=session,
            high_water=puller.store.high_water(session),
        )

    def _invoke(self, member, handle, operation, args, callback) -> None:
        try:
            member.peer.client.invocation.invoke_async(
                handle, operation, args, callback,
                self.config.ship_timeout, policy=self.config.ship_policy(),
            )
        except Exception as exc:  # noqa: BLE001 - down-node boundary
            callback(None, exc)

    # ------------------------------------------------------------------
    # convergence checks + metrics
    # ------------------------------------------------------------------
    def delta_lag(self) -> int:
        """Max over sessions of (highest member high water - lowest
        live member high water): how far behind the most-behind live
        member is."""
        lag = 0
        sessions: set[str] = set()
        for member in self.members:
            sessions.update(member.store.high_water_map())
        for session in sessions:
            waters = [
                m.store.high_water(session)
                for m in self.members
                if m.peer.node.up
            ]
            if waters:
                lag = max(lag, max(waters) - min(waters))
        return lag

    def converged(self, live_only: bool = True) -> bool:
        """True when every (live) member agrees on every session's
        high water *and* digest."""
        members = [m for m in self.members if m.peer.node.up] if live_only else self.members
        if len(members) < 2:
            return True
        sessions: set[str] = set()
        for member in members:
            sessions.update(member.store.high_water_map())
        for session in sessions:
            snaps = [m.store.snapshot(session) for m in members]
            if len({(s.seq, s.digest) for s in snaps}) != 1:
                return False
        return True

    def divergences(self) -> int:
        return sum(m.store.divergences for m in self.members)

    def stats(self) -> dict[str, Any]:
        lag = self.delta_lag()
        obs_metrics.set_gauge("replication.delta_lag", lag)
        stats: dict[str, Any] = {
            "members": len(self.members),
            "live_members": sum(1 for m in self.members if m.peer.node.up),
            "ships_sent": self.ships_sent,
            "ship_failures": self.ship_failures,
            "delta_lag": lag,
            "snapshot_bytes": sum(m.snapshot_bytes for m in self.members),
            "resyncs": sum(m.resyncs for m in self.members),
            "lag_rejections": sum(m.lag_rejections for m in self.members),
            "divergences": self.divergences(),
            "branches_discarded": sum(
                m.store.branches_discarded for m in self.members
            ),
        }
        for member in self.members:
            stats[f"hw.{member.node_id}"] = member.store.total_applied
        return stats

    def __repr__(self) -> str:
        return (
            f"<ReplicationGroup {self.service_name} "
            f"members={[m.node_id for m in self.members]}>"
        )
