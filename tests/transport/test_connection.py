"""Tests for E11: persistent HTTP connections, pooling, pipelining,
and bounded server-side request queues."""

import pytest

from repro.simnet import FixedLatency, Network, TraceLog
from repro.supervision.failover import BUSY, classify_error
from repro.supervision.health import HealthMonitor
from repro.transport import (
    ConnectionPool,
    HttpClient,
    HttpResponse,
    HttpRequest,
    HttpServer,
    HttpTransport,
    PoolConfig,
    TransportBusyError,
    TransportError,
    TransportTimeoutError,
    Uri,
)
from repro.transport.connection import CLOSED, IDLE


@pytest.fixture
def net():
    network = Network(latency=FixedLatency(0.005), trace=TraceLog(enabled=True))
    network.add_node("client")
    network.add_node("server")
    return network


def echo_server(net, port=80, **knobs):
    server = HttpServer(net.get_node("server"), port)
    for name, value in knobs.items():
        assert hasattr(server, name), f"HttpServer has no knob {name!r}"
        setattr(server, name, value)
    server.add_route("/echo", lambda req: HttpResponse(200, req.body))
    server.start()
    return server


def pass_time(net, seconds):
    net.kernel.schedule(seconds, lambda: None)
    net.run()


def _metric(name):
    from repro.observability.metrics import default_registry

    return default_registry().get(name)


class TestKeepAlive:
    def test_two_requests_share_one_connection(self, net):
        server = echo_server(net)
        client = HttpClient(net.get_node("client"), pool=PoolConfig())
        for body in ("one", "two"):
            response = client.request("server", 80, HttpRequest("POST", "/echo", body))
            assert response.ok and response.body == body
        assert client.pool.opened == 1
        assert client.pool.reused == 1
        assert len(server.connections) == 1
        assert server.requests_served == 2

    def test_keep_alive_costs_two_hops_after_handshake(self, net):
        # handshake = 2 hops, then each request/response = 2 hops at
        # 5ms each; the second request must NOT pay the handshake again
        echo_server(net)
        client = HttpClient(net.get_node("client"), pool=PoolConfig())
        client.request("server", 80, HttpRequest("POST", "/echo", "a"))
        t_first = net.now
        client.request("server", 80, HttpRequest("POST", "/echo", "b"))
        assert net.now - t_first == pytest.approx(0.01)  # 2 hops, no connect

    def test_idle_timeout_closes_connection(self, net):
        # idle is a deadline checked at the next lease, not a timer
        server = echo_server(net)
        client = HttpClient(
            net.get_node("client"), pool=PoolConfig(idle_timeout=0.5)
        )
        client.request("server", 80, HttpRequest("POST", "/echo", "x"))
        (conn,) = client.pool.connections()
        assert conn.state == IDLE
        pass_time(net, 0.5)
        assert conn.state == IDLE  # nothing fired
        client.request("server", 80, HttpRequest("POST", "/echo", "y"))
        assert conn.state == CLOSED  # the lease closed it and moved on
        assert client.pool.opened == 2 and client.pool.size == 1
        net.run()  # the close frame drains
        assert len(server.connections) == 1  # server side cleaned up too

    def test_max_requests_per_connection_recycles(self, net):
        echo_server(net)
        client = HttpClient(
            net.get_node("client"),
            pool=PoolConfig(max_requests_per_connection=1),
        )
        client.request("server", 80, HttpRequest("POST", "/echo", "a"))
        client.request("server", 80, HttpRequest("POST", "/echo", "b"))
        assert client.pool.opened == 2
        assert client.pool.reused == 0

    def test_explicit_close_clears_server_state(self, net):
        server = echo_server(net)
        client = HttpClient(net.get_node("client"), pool=PoolConfig())
        client.request("server", 80, HttpRequest("POST", "/echo", "x"))
        (conn,) = client.pool.connections()
        conn.close()
        net.run()
        assert server.connections == []
        assert client.pool.size == 0

    def test_pool_bound_evicts_lru_free_connection(self, net):
        net.add_node("server2")
        echo_server(net)
        server2 = HttpServer(net.get_node("server2"), 80)
        server2.add_route("/echo", lambda req: HttpResponse(200, req.body))
        server2.start()
        client = HttpClient(
            net.get_node("client"), pool=PoolConfig(max_connections=1)
        )
        client.request("server", 80, HttpRequest("POST", "/echo", "a"))
        first = client.pool.connections()[0]
        client.request("server2", 80, HttpRequest("POST", "/echo", "b"))
        assert first.state == CLOSED  # LRU-evicted to stay in bound
        assert client.pool.evicted == 1
        assert client.pool.size == 1


class TestPipelining:
    def test_responses_delivered_in_request_order(self, net):
        # size-dependent latency genuinely reorders frames on the wire:
        # the small second response overtakes the large first one
        net.latency = FixedLatency(0.005, per_byte=0.0005)
        echo_server(net)
        client = HttpClient(net.get_node("client"), pool=PoolConfig(pipeline=True))
        bodies = ["L" * 400, "s"]
        delivered = []

        def cb_for(i):
            return lambda resp, err: delivered.append((i, resp, err))

        for i, body in enumerate(bodies):
            client.request_async(
                "server", 80, HttpRequest("POST", "/echo", body), cb_for(i)
            )
        (conn,) = client.pool.connections()
        net.run()
        assert [i for i, _, _ in delivered] == [0, 1]
        for i, resp, err in delivered:
            assert err is None
            assert resp.body == bodies[i]  # every response matches its request
        assert conn.out_of_order >= 1  # the wire really did reorder
        assert client.pool.opened == 1  # all of it on a single connection

    def test_non_pipelined_serialises_in_flight(self, net):
        server = echo_server(net)
        client = HttpClient(
            net.get_node("client"),
            pool=PoolConfig(pipeline=False, max_connections=1),
        )
        results = []
        for body in ("a", "b", "c"):
            client.request_async(
                "server", 80, HttpRequest("POST", "/echo", body),
                lambda resp, err: results.append((resp, err)),
            )
        (conn,) = client.pool.connections()
        assert conn.in_flight == 3  # queued locally, one on the wire at a time
        net.run()
        assert [r.body for r, e in results] == ["a", "b", "c"]
        assert all(e is None for _, e in results)
        assert server.requests_served == 3


class TestBoundedServerQueue:
    def test_overflow_answers_busy_with_retry_after(self, net):
        echo_server(net, max_pending_per_connection=2.0, conn_drain_rate=1.0)
        client = HttpClient(net.get_node("client"), pool=PoolConfig(pipeline=True))
        results = []
        for i in range(5):
            client.request_async(
                "server", 80, HttpRequest("POST", "/echo", f"r{i}"),
                lambda resp, err: results.append((resp, err)),
            )
        net.run()
        statuses = [resp.status for resp, _ in results]
        assert statuses == [200, 200, 503, 503, 503]
        for resp, err in results:
            assert err is None  # raw client surfaces the 503 response itself
            if resp.status == 503:
                assert float(resp.headers["Retry-After"]) > 0

    def test_transport_maps_busy_to_error_and_failover_backs_off(self, net):
        echo_server(net, max_pending_per_connection=1.0, conn_drain_rate=1.0)
        transport = HttpTransport(net.get_node("client"), pool=PoolConfig(pipeline=True))
        results = []
        for _ in range(3):
            transport.send(
                Uri.parse("http://server/echo"), "payload",
                on_response=lambda body, err: results.append((body, err)),
            )
        net.run()
        assert results[0][1] is None
        busy_errors = [err for _, err in results[1:]]
        for err in busy_errors:
            assert isinstance(err, TransportBusyError)
            assert err.retry_after > 0
            assert classify_error(err) == BUSY

    def test_unbounded_queue_never_sheds(self, net):
        echo_server(net, max_pending_per_connection=None)
        client = HttpClient(net.get_node("client"), pool=PoolConfig(pipeline=True))
        results = []
        for i in range(20):
            client.request_async(
                "server", 80, HttpRequest("POST", "/echo", f"r{i}"),
                lambda resp, err: results.append(resp.status),
            )
        net.run()
        assert results == [200] * 20


class TestFailureHandling:
    def test_request_timeout_aborts_connection_and_pool_recovers(self, net):
        # no server listening: the CONNECT frame lands on no handler
        client = HttpClient(net.get_node("client"))
        with pytest.raises(TransportTimeoutError):
            client.request(
                "server", 80, HttpRequest("POST", "/echo", "x"), timeout=0.5
            )
        assert client.pool.size == 0
        # the pool opens a fresh connection for the next request
        echo_server(net)
        response = client.request("server", 80, HttpRequest("POST", "/echo", "y"))
        assert response.body == "y"
        assert client.pool.opened == 2

    def test_timeout_fails_later_pipelined_requests_too(self, net):
        client = HttpClient(net.get_node("client"), pool=PoolConfig(pipeline=True))
        results = []
        for body in ("a", "b"):
            client.request_async(
                "server", 80, HttpRequest("POST", "/echo", body),
                lambda resp, err: results.append((resp, err)),
                timeout=0.5,
            )
        net.run()
        assert results[0][0] is None and isinstance(results[0][1], TransportTimeoutError)
        # the poisoned connection fails the second caller instead of
        # leaving it waiting for an unmatchable response
        assert results[1][0] is None and results[1][1] is not None

    def test_dead_health_verdict_evicts_pooled_connections(self, net):
        echo_server(net)
        client = HttpClient(net.get_node("client"), pool=PoolConfig())
        monitor = HealthMonitor(clock=lambda: net.now)
        client.pool.attach_health(monitor)
        client.request("server", 80, HttpRequest("POST", "/echo", "x"))
        (conn,) = client.pool.connections()
        monitor.record_failure("http://server/echo", fatal=True)
        assert conn.state == CLOSED
        assert client.pool.size == 0
        assert client.pool.evicted_dead == 1

    def test_unroutable_target_times_out(self, net):
        # frames to an unknown node vanish, so the caller sees its timeout
        client = HttpClient(net.get_node("client"), pool=PoolConfig())
        errors = []
        client.request_async(
            "ghost", 80, HttpRequest("POST", "/echo", "x"),
            lambda resp, err: errors.append(err),
            timeout=0.5,
        )
        net.run()
        assert len(errors) == 1
        assert isinstance(errors[0], TransportTimeoutError)


class TestTraceIntegration:
    def test_connection_frames_are_tagged_in_trace(self, net):
        echo_server(net)
        client = HttpClient(net.get_node("client"), pool=PoolConfig())
        client.request("server", 80, HttpRequest("POST", "/echo", "x"))
        (conn,) = client.pool.connections()
        tagged = [
            r for r in net.trace.records
            if r.kind in ("sent", "delivered") and r.detail.get("conn") == conn.id
        ]
        # connect (carrying the request) + accept + response, each sent
        # and delivered
        assert len(tagged) >= 6
        untagged = [
            r for r in net.trace.records
            if r.kind == "sent" and "conn" not in r.detail
        ]
        assert untagged == []  # every frame of this exchange was scoped


class TestSharedPool:
    def test_pool_shared_between_clients(self, net):
        echo_server(net)
        pool = ConnectionPool(net.get_node("client"), PoolConfig())
        first = HttpClient(net.get_node("client"), pool=pool)
        second = HttpClient(net.get_node("client"), pool=pool)
        first.request("server", 80, HttpRequest("POST", "/echo", "a"))
        second.request("server", 80, HttpRequest("POST", "/echo", "b"))
        assert pool.opened == 1 and pool.reused == 1


class TestWorkerPoolShed:
    """E13: the node's bounded worker pool sheds pipelined requests.

    A shed request still occupies its slot in the connection's sequence
    — it must be answered 503 *in order*, or every later request on the
    connection would stall behind the hole forever.
    """

    def test_shed_request_answered_in_order(self, net):
        server_node = net.get_node("server")
        server_node.service_time = 0.05
        server_node.configure_workers(1, queue_limit=0)
        echo_server(net)
        client = HttpClient(net.get_node("client"), pool=PoolConfig(pipeline=True))
        results = []

        def cb_for(i):
            return lambda resp, err: results.append((i, resp, err))

        for i in range(3):
            client.request_async(
                "server", 80, HttpRequest("POST", "/echo", f"r{i}"), cb_for(i)
            )
        (conn,) = client.pool.connections()
        net.kernel.run(until=1.0)  # stop before the idle timeout
        # responses arrive in request order: first served, rest shed
        assert [i for i, _, _ in results] == [0, 1, 2]
        assert [resp.status for _, resp, _ in results] == [200, 503, 503]
        assert all(err is None for _, _, err in results)
        for _, resp, _ in results[1:]:
            assert float(resp.headers["Retry-After"]) > 0
        assert conn.state != CLOSED  # shed responses do not poison the conn
        assert server_node.frames_overflowed == 2

    def test_connection_survives_shed_and_serves_again(self, net):
        server_node = net.get_node("server")
        server_node.service_time = 0.05
        server_node.configure_workers(1, queue_limit=0)
        server = echo_server(net)
        client = HttpClient(net.get_node("client"), pool=PoolConfig(pipeline=True))
        first = []
        for i in range(2):
            client.request_async(
                "server", 80, HttpRequest("POST", "/echo", f"r{i}"),
                lambda resp, err, i=i: first.append((i, resp)),
            )
        net.kernel.run(until=1.0)  # stop before the idle timeout
        assert [resp.status for _, resp in first] == [200, 503]
        # the pool is idle again: a follow-up request on the same
        # connection succeeds
        response = client.request("server", 80, HttpRequest("POST", "/echo", "again"))
        assert response.ok and response.body == "again"
        assert client.pool.opened == 1
        (sconn,) = server.connections
        assert sconn.busy_answered == 1


class TestIdleDeadlines:
    """Idle is one lazily checked deadline per connection: no kernel
    event is scheduled or cancelled per request or per idle transition."""

    def _warm(self, net, **pool):
        server = echo_server(net)
        client = HttpClient(net.get_node("client"), pool=PoolConfig(**pool))
        client.request("server", 80, HttpRequest("POST", "/echo", "warm"))
        return server, client

    def test_steady_request_arms_only_its_own_timeout(self, net):
        server, client = self._warm(net)
        armed = []
        schedule = net.kernel.schedule

        def recording(delay, fn, *args):
            armed.append(getattr(fn, "__self__", None))
            return schedule(delay, fn, *args)

        net.kernel.schedule = recording
        client.request("server", 80, HttpRequest("POST", "/echo", "x"))
        (conn,) = client.pool.connections()
        # frames in flight are the network's; the rest are the ends'
        ends = [owner for owner in armed if owner is not net]
        assert ends == [conn]  # the request timeout, and nothing on the server

    def test_run_after_a_call_does_not_advance_the_clock(self, net):
        self._warm(net)
        before = net.now
        net.run()
        assert net.now == before
        assert net.kernel.pending == 0

    def test_expired_connection_is_never_leased_again(self, net):
        server, client = self._warm(net, idle_timeout=1.0)
        (old,) = client.pool.connections()
        closed_before = _metric("transport.http.conn_idle_closed")
        pass_time(net, 1.0)
        assert client.pool.lease("server", 80) is not old
        assert old.state == CLOSED
        assert not net.get_node("client").has_port(old.local_port)
        assert _metric("transport.http.conn_idle_closed") == closed_before + 1

    def test_unexpired_connection_is_reused(self, net):
        server, client = self._warm(net, idle_timeout=1.0)
        (conn,) = client.pool.connections()
        pass_time(net, 0.9)
        assert client.pool.lease("server", 80) is conn

    def test_server_sweeps_expired_connections_on_accept(self, net):
        server = echo_server(net, conn_idle_timeout=2.0)
        net.add_node("other")
        quiet = HttpClient(net.get_node("client"), pool=PoolConfig(idle_timeout=None))
        quiet.request("server", 80, HttpRequest("POST", "/echo", "x"))
        (stale,) = server.connections
        (conn,) = quiet.pool.connections()
        pass_time(net, 2.0)
        assert server.connections == [stale]  # nothing swept it yet
        HttpClient(net.get_node("other")).request(
            "server", 80, HttpRequest("POST", "/echo", "y")
        )
        assert stale.closed and stale not in server.connections
        assert not net.get_node("server").has_port(stale.srv_port)
        assert conn.state == CLOSED  # told by the server's close frame
        assert quiet.pool.size == 0

    def test_server_keeps_a_connection_with_recent_traffic(self, net):
        server = echo_server(net, conn_idle_timeout=2.0)
        net.add_node("other")
        busy = HttpClient(net.get_node("client"), pool=PoolConfig(idle_timeout=None))
        busy.request("server", 80, HttpRequest("POST", "/echo", "x"))
        pass_time(net, 1.5)
        busy.request("server", 80, HttpRequest("POST", "/echo", "x"))
        pass_time(net, 1.5)
        HttpClient(net.get_node("other")).request(
            "server", 80, HttpRequest("POST", "/echo", "y")
        )
        assert len(server.connections) == 2

    def test_listening_port_answers_only_connect(self, net):
        server = echo_server(net)
        before = _metric("transport.http.bad_requests")
        net.get_node("client").send(
            "server", "http:80", HttpRequest("POST", "/echo", "hi").to_wire()
        )
        net.run()
        assert server.bad_requests == 1 and server.requests_served == 0
        assert _metric("transport.http.bad_requests") == before + 1


class TestChunkWindow:
    """A peer cannot make a connection hold chunks its credits never
    covered: an index at or past ``next + window`` (or past the
    announced last one) is a protocol error."""

    def test_server_answers_400_to_out_of_window_chunks(self, net):
        server = echo_server(net)
        client = HttpClient(net.get_node("client"), pool=PoolConfig())
        client.request("server", 80, HttpRequest("POST", "/echo", "open"))
        (conn,) = client.pool.connections()
        (sconn,) = server.connections
        replies = []
        node = net.get_node("client")
        node.close_port(conn.local_port)
        node.open_port(conn.local_port, lambda frame: replies.append(frame))
        for i in range(200):
            node.send("server", sconn.srv_port, b"x" * 16, kind="chunk",
                      conn=conn.id, seq=1, idx=7 * i + 7, last=False)
        net.run()
        assert server.bad_requests == 1
        assert sconn._streams == {}  # nothing held
        (answer,) = [f for f in replies if f.meta.get("kind") == "response"]
        assert HttpResponse.from_wire(answer.payload).status == 400

    def test_server_rejects_a_chunk_past_the_last(self, net):
        server = echo_server(net)
        client = HttpClient(net.get_node("client"), pool=PoolConfig())
        client.request("server", 80, HttpRequest("POST", "/echo", "open"))
        (conn,) = client.pool.connections()
        (sconn,) = server.connections
        node = net.get_node("client")
        for idx, last in ((2, True), (3, False)):
            node.send("server", sconn.srv_port, b"x", kind="chunk",
                      conn=conn.id, seq=1, idx=idx, last=last)
        net.run()
        assert server.bad_requests == 1

    def test_client_tears_down_on_out_of_window_chunks(self, net):
        # a hostile server: accepts, then answers with far-flung chunks
        server_node = net.get_node("server")

        def hostile(frame):
            meta = frame.meta
            if meta.get("kind") == "connect":
                server_node.send(frame.src, meta["client_port"], "", kind="accept",
                                 conn=meta["conn"], srv_port="void")
                hostile.client_port = meta["client_port"]

        server_node.open_port("http:80", hostile)
        client = HttpClient(net.get_node("client"), pool=PoolConfig())
        results = []
        client.request_async("server", 80, HttpRequest("POST", "/echo", "x"),
                             lambda resp, err: results.append((resp, err)))
        net.kernel.run(until=0.02)  # accepted; the request went nowhere
        (conn,) = client.pool.connections()
        for i in range(200):
            server_node.send("client", hostile.client_port, b"y" * 16, kind="chunk",
                             conn=conn.id, seq=0, idx=7 * i + 7, last=False)
        net.kernel.run(until=0.1)
        assert conn.state == CLOSED
        assert conn._streams == {}
        ((resp, err),) = results
        assert resp is None and isinstance(err, TransportError)


class TestPoolConfigRefusals:
    """A degenerate pool shape is refused when the config is built, as
    a chunk size or window below 1 is; ``None`` stays "no limit"."""

    def test_refuses_a_pool_of_no_connection(self):
        # it would still open one, past its own cap
        with pytest.raises(ValueError, match="max_connections"):
            PoolConfig(max_connections=0)

    def test_refuses_a_cap_of_no_request_per_connection(self):
        # it would act as 1
        with pytest.raises(ValueError, match="max_requests_per_connection"):
            PoolConfig(max_requests_per_connection=0)
        assert PoolConfig(max_requests_per_connection=None).max_requests_per_connection is None

    def test_refuses_a_negative_idle_timeout(self):
        with pytest.raises(ValueError, match="idle_timeout"):
            PoolConfig(idle_timeout=-1.0)
        assert PoolConfig(idle_timeout=None).idle_timeout is None
        assert PoolConfig(idle_timeout=0.0).idle_timeout == 0.0
