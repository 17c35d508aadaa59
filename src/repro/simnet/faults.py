"""Fault injection: message loss, node churn, partitions.

These drive experiment E2 (failure resilience) and the unreliable-node
scenarios of E3.  All randomness is seeded.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.simnet.network import Frame, Network
from repro.simnet.rng import default_rng


class DropInjector:
    """Drops each frame independently with probability *p*.

    Optionally scoped to frames whose src or dst is in *only_nodes*.
    """

    def __init__(self, network: Network, p: float, seed: int = 0, only_nodes: Optional[Iterable[str]] = None):
        if not 0.0 <= p <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        self.p = p
        self._rng = default_rng(seed)
        self._only = set(only_nodes) if only_nodes is not None else None
        self._network = network
        self.dropped = 0
        self.attached = True
        network.add_delivery_hook(self._hook)

    def _hook(self, frame: Frame) -> bool:
        if self._only is not None and frame.src not in self._only and frame.dst not in self._only:
            return True
        if self._rng.random() < self.p:
            self.dropped += 1
            return False
        return True

    def detach(self) -> None:
        """Stop dropping frames.  Idempotent: calling twice (or calling
        after another schedule already detached this injector) is a
        no-op — it never raises and never removes a hook it does not
        own from the chain.  Also safe to call from inside another
        delivery hook mid-iteration: the network walks a snapshot of
        its hook list per frame, so the in-flight frame still sees the
        snapshotted hooks and later frames do not."""
        if not self.attached:
            return
        self.attached = False
        self._network.remove_delivery_hook(self._hook)


class PartitionInjector:
    """Splits the network into groups; frames crossing groups are dropped."""

    def __init__(self, network: Network, groups: Sequence[Iterable[str]]):
        self._membership: dict[str, int] = {}
        for idx, group in enumerate(groups):
            for node_id in group:
                self._membership[node_id] = idx
        self._network = network
        self.blocked = 0
        self.healed = False
        network.add_delivery_hook(self._hook)

    def _hook(self, frame: Frame) -> bool:
        a = self._membership.get(frame.src)
        b = self._membership.get(frame.dst)
        if a is not None and b is not None and a != b:
            self.blocked += 1
            return False
        return True

    def heal(self) -> None:
        """Remove the partition.  Idempotent: healing twice (or healing
        a partition another schedule already removed) is a no-op that
        never raises and never corrupts the hook chain — the injector
        only ever removes its own hook, once."""
        if self.healed:
            return
        self.healed = True
        self._network.remove_delivery_hook(self._hook)


class ChurnInjector:
    """Schedules node failures (and optional recoveries) on the kernel.

    ``fail(nodes, at)`` downs the listed nodes at virtual time *at*;
    ``fail_fraction`` picks a random subset of the candidate pool.
    """

    def __init__(self, network: Network, seed: int = 0):
        self.network = network
        self._rng = default_rng(seed)
        self.failed: list[str] = []

    def fail(self, node_ids: Iterable[str], at: float) -> None:
        for node_id in node_ids:
            node = self.network.get_node(node_id)
            self.network.kernel.schedule_at(at, node.go_down)
            self.failed.append(node_id)

    def recover(self, node_ids: Iterable[str], at: float) -> None:
        for node_id in node_ids:
            node = self.network.get_node(node_id)
            self.network.kernel.schedule_at(at, node.go_up)

    def fail_fraction(
        self, candidates: Sequence[str], fraction: float, at: float
    ) -> list[str]:
        """Down a random *fraction* of *candidates* at time *at*; returns them.

        Deterministic: the victim set is drawn from this injector's own
        seeded generator, so the same seed, the same candidate order,
        and the same sequence of calls always pick the same victims —
        a churn scenario replays byte-identically across runs.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        k = int(round(len(candidates) * fraction))
        drawn = self._rng.choice(list(candidates), size=k, replace=False) if k else []
        chosen = [str(c) for c in drawn]
        self.fail(chosen, at)
        return chosen


class NatGate:
    """Models a NAT/firewall in front of one node.

    Inbound frames are dropped unless the sender appears in the node's
    session table; any outbound frame from the node opens a session to
    its destination (the hole-punching behaviour real NATs exhibit).
    The paper's P2PS motivates logical peer ids precisely because such
    nodes "do not have accessible network addresses" (§IV-B).
    """

    def __init__(self, network: Network, node_id: str):
        self.network = network
        self.node_id = node_id
        self.sessions: set[str] = set()
        self.blocked = 0
        network.add_delivery_hook(self._hook)

    def _hook(self, frame: Frame) -> bool:
        if frame.src == self.node_id and frame.dst != self.node_id:
            self.sessions.add(frame.dst)
            return True
        if frame.dst == self.node_id and frame.src != self.node_id:
            if frame.src not in self.sessions:
                self.blocked += 1
                return False
        return True

    def remove(self) -> None:
        self.network.remove_delivery_hook(self._hook)
