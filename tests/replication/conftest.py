"""Shared world-building for the replication integration tests."""

import pytest

from repro.core import WSPeer
from repro.core.binding import StandardBinding
from repro.replication import ReplicationGroup
from repro.simnet import FixedLatency, Network
from repro.supervision.failover import attach_failover
from repro.uddi import UddiRegistryNode


class CounterService:
    """Whole-object state: one default session."""

    def __init__(self):
        self.value = 0

    def increment(self, by: int) -> int:
        self.value += by
        return self.value

    def read(self) -> int:
        return self.value


class CartService:
    """Session-partitioned state via the session protocol."""

    def __init__(self):
        self._carts = {}

    def get_session_state(self, session):
        return dict(self._carts.get(session, {}))

    def set_session_state(self, session, state):
        self._carts[session] = dict(state)

    def add_item(self, session: str, item: str) -> int:
        cart = self._carts.setdefault(session, {"items": []})
        cart["items"] = list(cart["items"]) + [item]
        return len(cart["items"])

    def cart_size(self, session: str) -> int:
        return len(self._carts.get(session, {}).get("items", []))


class World:
    def __init__(self, service_factory, n_providers=3):
        self.net = Network(latency=FixedLatency(0.002))
        self.registry = UddiRegistryNode(self.net.add_node("registry"))
        self.providers = []
        self.services = []
        for i in range(n_providers):
            peer = WSPeer(
                self.net.add_node(f"prov{i}"),
                StandardBinding(self.registry.endpoint),
            )
            service = service_factory()
            peer.deploy(service, name="Svc")
            self.providers.append(peer)
            self.services.append(service)
        self.consumer = WSPeer(
            self.net.add_node("cons"), StandardBinding(self.registry.endpoint)
        )

    def replicate(self, r=2, config=None, anti_entropy=True):
        self.group = ReplicationGroup.establish(
            self.providers[0], "Svc", self.providers[1:], r=r, config=config,
        )
        if not anti_entropy:
            self.group.stop_anti_entropy()
        self.executor = attach_failover(self.consumer)
        self.executor.attach_replication(self.group)
        self.handle = self.group.handle()
        return self.group

    def settle(self, dt=1.0):
        self.net.run(until=self.net.now + dt)


@pytest.fixture
def counter_world():
    return World(CounterService)


@pytest.fixture
def cart_world():
    return World(CartService)
