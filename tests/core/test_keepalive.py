"""WSPeer-level integration of E11 persistent connections.

Every outbound call of a peer rides its one connection pool
(``http_pool``: locating, publishing and invoking share it);
``enable_http_keepalive`` configures that pool, ``configure_http_server``
tunes the provider's per-connection queue, and failover health verdicts
evict pooled connections to dead endpoints.
"""

import pytest

from tests.core.conftest import Counter, Echo

from repro.core import WsPeerError
from repro.supervision.failover import attach_failover
from repro.transport import PoolConfig


def to_provider(consumer):
    """The consumer's pooled connections to the provider (the registry
    connection the locate opened stays)."""
    return [c for c in consumer.http_pool.connections() if c.target_node == "prov"]


def server_knobs(server):
    return (
        server.max_pending_per_connection, server.conn_drain_rate, server.conn_idle_timeout
    )


def deploy_and_locate(provider, consumer, net, service=None, name="Echo"):
    provider.deploy(service or Echo(), name=name)
    provider.publish(name)
    return consumer.locate_one(name)


class TestKeepAliveInvocation:
    def test_invocations_reuse_one_connection(self, standard_pair, net):
        provider, consumer, _ = standard_pair
        handle = deploy_and_locate(provider, consumer, net)
        pool = consumer.enable_http_keepalive()
        assert pool is consumer.http_pool
        opened, reused = pool.opened, pool.reused
        for i in range(3):
            assert consumer.invoke(handle, "echo", {"message": f"m{i}"}) == f"m{i}"
        # the WSDL fetch opened the connection the calls ride
        assert pool.opened == opened
        assert pool.reused == reused + 3

    def test_pool_shared_across_retries_and_stateful_calls(self, standard_pair, net):
        provider, consumer, _ = standard_pair
        handle = deploy_and_locate(provider, consumer, net, Counter(), "Counter")
        consumer.enable_http_keepalive(PoolConfig(idle_timeout=60.0))
        opened = consumer.http_pool.opened
        assert consumer.invoke(handle, "increment", {"by": 2}) == 2
        assert consumer.invoke(handle, "increment", {"by": 3}) == 5
        assert consumer.http_pool.opened == opened
        assert all(c.config.idle_timeout == 60.0 for c in consumer.http_pool.connections())

    def test_keepalive_requires_poolable_binding(self, p2ps_pair):
        _, consumer, _ = p2ps_pair
        with pytest.raises(WsPeerError):
            consumer.enable_http_keepalive()

    def test_failover_health_evicts_pooled_connections(self, standard_pair, net):
        provider, consumer, _ = standard_pair
        handle = deploy_and_locate(provider, consumer, net)
        consumer.enable_http_keepalive()
        attach_failover(consumer)
        executor = consumer.failover
        assert consumer.invoke(handle, "echo", {"message": "warm"}) == "warm"
        (conn,) = to_provider(consumer)
        executor.health.record_failure(handle.endpoints[0].address, fatal=True)
        assert to_provider(consumer) == []
        assert conn.state == "closed"

    def test_enable_order_is_symmetric(self, standard_pair, net):
        # keepalive-then-failover and failover-then-keepalive must both
        # end up with the pool watching health verdicts
        provider, consumer, _ = standard_pair
        handle = deploy_and_locate(provider, consumer, net)
        attach_failover(consumer)
        consumer.enable_http_keepalive()
        assert consumer.invoke(handle, "echo", {"message": "x"}) == "x"
        consumer.failover.health.record_failure(
            handle.endpoints[0].address, fatal=True
        )
        assert to_provider(consumer) == []


class TestServerTuning:
    def test_configure_http_server_sets_queue_knobs(self, standard_pair, net):
        provider, consumer, _ = standard_pair
        deploy_and_locate(provider, consumer, net)
        server = provider.configure_http_server(
            max_pending_per_connection=4.0, drain_rate=10.0, idle_timeout=None
        )
        assert server.max_pending_per_connection == 4.0
        assert server.conn_drain_rate == 10.0
        assert server.conn_idle_timeout is None

    @pytest.mark.parametrize("knobs", [
        {"max_pending_per_connection": 0},
        {"max_pending_per_connection": 0.5},
        {"drain_rate": 0.0},
        {"drain_rate": -1.0},
        {"idle_timeout": -1.0},
        {"max_pending_per_connection": 4.0, "drain_rate": -1.0},
    ])
    def test_bad_knob_is_refused_and_changes_nothing(self, standard_pair, net, knobs):
        provider, consumer, _ = standard_pair
        deploy_and_locate(provider, consumer, net)
        server = provider.server.deployer.server
        before = server_knobs(server)
        queues = [(conn, conn.admission) for conn in server.connections]
        assert queues  # the WSDL fetch left a connection open
        with pytest.raises(ValueError):
            provider.configure_http_server(**knobs)
        assert server_knobs(server) == before
        assert [(conn, conn.admission) for conn in server.connections] == queues

    def test_refused_knob_leaves_the_next_connect_served(self, standard_pair, net, registry_node):
        provider, consumer, _ = standard_pair
        provider.deploy(Echo(), name="Echo")
        provider.publish("Echo")
        assert provider.server.deployer.server.connections == []
        with pytest.raises(ValueError):
            provider.configure_http_server(max_pending_per_connection=0)
        handle = consumer.locate_one("Echo")  # the WSDL fetch CONNECTs
        assert consumer.invoke(handle, "echo", {"message": "m"}) == "m"

    def test_configure_requires_http_binding(self, p2ps_pair):
        provider, _, _ = p2ps_pair
        with pytest.raises(WsPeerError):
            provider.configure_http_server(max_pending_per_connection=1.0)
