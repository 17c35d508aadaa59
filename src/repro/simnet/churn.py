"""Scripted churn scenarios: the E9 robustness harness.

A :class:`ChurnSchedule` turns the raw fault primitives of
:mod:`repro.simnet.faults` into *scenarios* laid out on virtual time:
peers killed and restarted mid-request, partitions that open and heal,
slow-node brownouts where a provider keeps answering but degrades.
Every scheduled action is logged at fire time, so experiments can
correlate availability dips with the exact churn that caused them.

All randomness is seeded; a schedule replays identically from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.simnet.faults import PartitionInjector
from repro.simnet.network import Network
from repro.simnet.rng import default_rng


@dataclass
class ChurnRecord:
    """One churn action that actually fired."""

    time: float
    kind: str  # 'kill' | 'restart' | 'partition' | 'heal' | 'brownout' | 'recover'
    detail: dict = field(default_factory=dict)


class ChurnSchedule:
    """Lay churn actions onto the kernel's virtual timeline.

    Methods schedule immediately (no separate apply step) and may be
    called before or during a run; actions land on the same
    deterministic event queue as the traffic they disrupt.
    """

    def __init__(self, network: Network, seed: int = 0):
        self.network = network
        self._rng = default_rng(seed)
        self.log: list[ChurnRecord] = []
        self._partitions: list[PartitionInjector] = []

    def _record(self, kind: str, **detail) -> None:
        self.log.append(ChurnRecord(self.network.kernel.now, kind, detail))

    # -- node churn --------------------------------------------------------
    def kill(self, node_id: str, at: float, restart_at: Optional[float] = None) -> None:
        """Down *node_id* at virtual time *at*; optionally restart later."""
        node = self.network.get_node(node_id)

        def do_kill() -> None:
            node.go_down()
            self._record("kill", node=node_id)

        self.network.kernel.schedule_at(at, do_kill)
        if restart_at is not None:
            if restart_at <= at:
                raise ValueError("restart_at must be after the kill time")
            self.restart(node_id, restart_at)

    def restart(self, node_id: str, at: float) -> None:
        node = self.network.get_node(node_id)

        def do_restart() -> None:
            node.go_up()
            self._record("restart", node=node_id)

        self.network.kernel.schedule_at(at, do_restart)

    def kill_restart_cycle(
        self,
        node_id: str,
        start: float,
        downtime: float,
        period: float,
        until: float,
    ) -> int:
        """Repeated kill/restart: down for *downtime* out of every
        *period*, first kill at *start*, no kills at or after *until*.
        Returns the number of cycles scheduled."""
        if downtime >= period:
            raise ValueError("downtime must be shorter than the cycle period")
        cycles = 0
        at = start
        while at < until:
            self.kill(node_id, at, restart_at=at + downtime)
            at += period
            cycles += 1
        return cycles

    def random_kills(
        self,
        candidates: Sequence[str],
        n_kills: int,
        start: float,
        until: float,
        downtime: float,
    ) -> list[tuple[str, float]]:
        """*n_kills* kill/restart pairs at seeded-uniform times in
        [start, until), each downing a seeded-uniform candidate for
        *downtime*.  Returns the (node, kill_time) plan."""
        if until <= start:
            raise ValueError("until must be after start")
        plan: list[tuple[str, float]] = []
        for _ in range(n_kills):
            node_id = str(self._rng.choice(list(candidates)))
            at = float(self._rng.uniform(start, until))
            self.kill(node_id, at, restart_at=at + downtime)
            plan.append((node_id, at))
        return sorted(plan, key=lambda item: item[1])

    # -- partitions --------------------------------------------------------
    def partition(
        self,
        groups: Sequence[Iterable[str]],
        at: float,
        heal_at: Optional[float] = None,
    ) -> None:
        """Split the network into *groups* at *at*; heal later if asked."""
        groups = [list(group) for group in groups]

        def do_partition() -> None:
            injector = PartitionInjector(self.network, groups)
            self._partitions.append(injector)
            self._record("partition", groups=[list(g) for g in groups])
            if heal_at is not None:

                def do_heal() -> None:
                    injector.heal()
                    self._record("heal", groups=[list(g) for g in groups])

                self.network.kernel.schedule_at(heal_at, do_heal)

        if heal_at is not None and heal_at <= at:
            raise ValueError("heal_at must be after the partition time")
        self.network.kernel.schedule_at(at, do_partition)

    def heal_all(self) -> None:
        """Immediately remove every partition this schedule created."""
        for injector in self._partitions:
            injector.heal()
        if self._partitions:
            self._record("heal", groups="all")
        self._partitions = []

    # -- brownouts ---------------------------------------------------------
    def brownout(
        self, node_id: str, at: float, until: float, service_time: float
    ) -> None:
        """Degrade *node_id* between *at* and *until*: every delivered
        frame takes *service_time* to process, so the node queues and
        slows instead of failing — the grey-failure mode health scoring
        has to catch without a hard error signal."""
        if until <= at:
            raise ValueError("until must be after at")
        node = self.network.get_node(node_id)

        previous = {"service_time": 0.0}

        def start() -> None:
            previous["service_time"] = node.service_time
            node.service_time = service_time
            self._record("brownout", node=node_id, service_time=service_time)

        def stop() -> None:
            # defensive restore: only put the old service time back if
            # this brownout's degradation is still in effect — another
            # injector (an overlapping brownout, an operator tuning the
            # node mid-run) may have changed service_time since, and the
            # later change must win, not be silently stomped
            if node.service_time == service_time:
                node.service_time = previous["service_time"]
                self._record("recover", node=node_id)
            else:
                self._record(
                    "recover", node=node_id, skipped=True,
                    found=node.service_time,
                )

        self.network.kernel.schedule_at(at, start)
        self.network.kernel.schedule_at(until, stop)

    # -- inspection --------------------------------------------------------
    def records(self, kind: Optional[str] = None) -> list[ChurnRecord]:
        if kind is None:
            return list(self.log)
        return [r for r in self.log if r.kind == kind]

    def __repr__(self) -> str:
        return f"<ChurnSchedule fired={len(self.log)}>"
