"""Fault injection on the delivery path: loss, partitions, NAT, drops.

Each injector here is a delivery hook on one network (:class:`_Hook`).
They drive experiment E2 (failure resilience), the unreliable-node
scenarios of E3 and the surgical drops of E15; the schedule that lays
them out on virtual time, beside node kills and restarts, is
:class:`repro.simnet.churn.ChurnSchedule`.  All randomness is seeded.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.simnet.network import Frame, Network
from repro.simnet.rng import default_rng


class _Hook:
    """A delivery hook on one network, attached when it is built.

    ``detach`` is idempotent: calling it twice (or after another
    schedule already detached this hook) is a no-op — it never raises
    and never removes a hook it does not own from the chain.  It is
    also safe from inside another delivery hook mid-iteration: the
    network walks a snapshot of its hook list per frame, so the
    in-flight frame still sees the snapshotted hooks and later frames
    do not."""

    def _attach(self, network: Network) -> None:
        self._network = network
        self.attached = True
        network.add_delivery_hook(self._hook)

    def detach(self) -> None:
        if self.attached:
            self.attached = False
            self._network.remove_delivery_hook(self._hook)


class DropInjector(_Hook):
    """Drops each frame independently with probability *p*.

    Optionally scoped to frames whose src or dst is in *only_nodes*.
    """

    def __init__(self, network: Network, p: float, seed: int = 0, only_nodes: Optional[Iterable[str]] = None):
        if not 0.0 <= p <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        self.p = p
        self._rng = default_rng(seed)
        self._only = set(only_nodes) if only_nodes is not None else None
        self.dropped = 0
        self._attach(network)

    def _hook(self, frame: Frame) -> bool:
        if self._only is not None and frame.src not in self._only and frame.dst not in self._only:
            return True
        if self._rng.random() < self.p:
            self.dropped += 1
            return False
        return True


class PartitionInjector(_Hook):
    """Splits the network into groups; frames crossing groups are
    dropped until ``detach`` heals the split."""

    def __init__(self, network: Network, groups: Sequence[Iterable[str]]):
        self._membership: dict[str, int] = {}
        for idx, group in enumerate(groups):
            for node_id in group:
                self._membership[node_id] = idx
        self.blocked = 0
        self._attach(network)

    def _hook(self, frame: Frame) -> bool:
        a = self._membership.get(frame.src)
        b = self._membership.get(frame.dst)
        if a is not None and b is not None and a != b:
            self.blocked += 1
            return False
        return True


class NatGate(_Hook):
    """Models a NAT/firewall in front of one node.

    Inbound frames are dropped unless the sender appears in the node's
    session table; any outbound frame from the node opens a session to
    its destination (the hole-punching behaviour real NATs exhibit).
    The paper's P2PS motivates logical peer ids precisely because such
    nodes "do not have accessible network addresses" (§IV-B).
    """

    def __init__(self, network: Network, node_id: str):
        self.node_id = node_id
        self.sessions: set[str] = set()
        self.blocked = 0
        self._attach(network)

    def _hook(self, frame: Frame) -> bool:
        if frame.src == self.node_id and frame.dst != self.node_id:
            self.sessions.add(frame.dst)
            return True
        if frame.dst == self.node_id and frame.src != self.node_id:
            if frame.src not in self.sessions:
                self.blocked += 1
                return False
        return True


class OneShotDrop(_Hook):
    """Drops the next *count* frames matching *predicate*, then
    detaches itself."""

    def __init__(self, network: Network, predicate: Callable[[Frame], bool], count: int = 1):
        self._predicate = predicate
        self.remaining = count
        self.dropped = 0
        self._attach(network)

    def _hook(self, frame: Frame) -> bool:
        if self.remaining <= 0 or not self._predicate(frame):
            return True
        self.remaining -= 1
        self.dropped += 1
        if self.remaining <= 0:
            self.detach()
        return False
