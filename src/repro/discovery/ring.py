"""Consistent-hash ring: which registry shard owns a service name.

Every client hashes the same way, so publisher and locator agree on a
service's home shard without coordination.  Virtual nodes smooth the
key distribution; replica sets walk clockwise from the owning point so
each shard's data survives R-1 node losses.

The property that matters (and that the tests pin): adding a shard to
an N-node ring remaps only ~1/(N+1) of the keyspace — everything else
keeps its owner, so a scale-out does not invalidate the cluster.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable


def stable_hash(value: str) -> int:
    """A process-independent 64-bit hash (``hash()`` is salted per run,
    which would scatter keys differently on every peer)."""
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


#: points per physical node: keeps the per-node share of the keyspace
#: within a few percent of 1/N
VNODES = 64


class HashRing:
    """Consistent hashing with ``VNODES`` virtual nodes per shard."""

    def __init__(self, nodes: Iterable[str] = ()):
        self._nodes: set[str] = set()
        self._hashes: list[int] = []  # sorted vnode positions
        self._owners: list[str] = []  # owner per position (parallel list)
        for node in nodes:
            self.add_node(node)

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(VNODES):
            position = stable_hash(f"{node}#{i}")
            at = bisect.bisect(self._hashes, position)
            self._hashes.insert(at, position)
            self._owners.insert(at, node)

    def remove_node(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        keep = [(h, o) for h, o in zip(self._hashes, self._owners) if o != node]
        self._hashes = [h for h, _ in keep]
        self._owners = [o for _, o in keep]

    # ------------------------------------------------------------------
    def node_for(self, key: str) -> str:
        """The shard owning *key* (first vnode clockwise of its hash)."""
        if not self._hashes:
            raise ValueError("empty ring")
        at = bisect.bisect(self._hashes, stable_hash(key)) % len(self._hashes)
        return self._owners[at]

    def nodes_for(self, key: str, n: int) -> list[str]:
        """The replica set for *key*: the first *n* distinct shards met
        walking clockwise from its hash (primary first)."""
        if not self._hashes:
            raise ValueError("empty ring")
        n = min(n, len(self._nodes))
        start = bisect.bisect(self._hashes, stable_hash(key))
        replicas: list[str] = []
        for i in range(len(self._hashes)):
            owner = self._owners[(start + i) % len(self._hashes)]
            if owner not in replicas:
                replicas.append(owner)
                if len(replicas) == n:
                    break
        return replicas
