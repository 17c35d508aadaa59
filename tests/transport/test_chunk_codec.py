"""The chunk codec both ends of an HTTP connection share (E16, E28).

A message past the chunk threshold rides its connection as credit-
windowed chunk frames; the reading half rebuilds it whatever order the
wire delivers them in, and the in-order release lets small pipelined
calls past a streamed exchange without ever answering them out of
order.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import FixedLatency, Network, UniformLatency
from repro.transport import (
    HttpClient,
    HttpRequest,
    HttpResponse,
    HttpServer,
    PoolConfig,
    TransportError,
)
from repro.transport.connection import _Reader

SIZE = 64
WINDOW = 3
BINARY = {"Content-Type": "application/octet-stream"}


def _payload(n: int, salt: int) -> bytes:
    return bytes((i * 7 + salt) % 251 for i in range(n))


def _world(latency):
    net = Network(latency=latency)
    client_node = net.add_node("client")
    server = HttpServer(net.add_node("server"), 80)
    server.config = PoolConfig(chunk_threshold=4 * SIZE, chunk_size=SIZE, stream_window=WINDOW)
    server.add_route("/echo", lambda req: HttpResponse(200, req.body, dict(BINARY)))
    server.start()
    return net, server, HttpClient(client_node, pool=server.config)


def _streams_completed() -> float:
    from repro.observability.metrics import default_registry

    return default_registry().get("transport.http.streams_completed")


def _leftovers(end) -> dict:
    """What an end still holds of the codec and the in-order release."""
    return {
        name: len(getattr(end, name))
        for name in ("_streams", "_senders", "_held", "_skip")
        if getattr(end, name)
    }


class TestStreamsUnderReordering:
    """Streamed exchanges both ways, interleaved with small pipelined
    calls, over a net that reorders frames."""

    BIG = (0, 1, 4 * SIZE + 1, 5 * SIZE - 1, 5 * SIZE, 5 * SIZE + 1, 17 * SIZE + 3)

    @pytest.mark.parametrize("seed", range(8))
    def test_replies_exact_small_calls_in_order(self, seed):
        net, server, client = _world(UniformLatency(0.001, 0.02, seed))
        before = _streams_completed()
        sent, replies, small_order = {}, {}, []
        for i, n in enumerate(self.BIG):
            for label, body in ((f"big-{i}", _payload(n, i)), (f"small-{i}", b"s%d" % i)):
                sent[label] = body

                def done(response, error, label=label):
                    assert error is None, error
                    replies[label] = response.body
                    if label.startswith("small"):
                        small_order.append(label)

                client.request_async(
                    "server", 80, HttpRequest("POST", "/echo", body, dict(BINARY)), done
                )
        net.run()
        assert replies == sent  # every reply byte-exact
        assert small_order == [f"small-{i}" for i in range(len(self.BIG))]
        # the five bodies past the threshold streamed both ways
        assert _streams_completed() == before + 10
        (conn,) = client.pool.connections()
        (sconn,) = server.connections
        assert _leftovers(conn) == {} and _leftovers(sconn) == {}
        conn.close()
        net.run()
        assert sconn.closed and _leftovers(sconn) == {}

    def test_a_close_empties_what_the_server_holds(self):
        net, server, client = _world(FixedLatency(0.005))
        client.request("server", 80, HttpRequest("POST", "/echo", b"open"))
        (conn,) = client.pool.connections()
        (sconn,) = server.connections
        node = net.get_node("client")
        # request 5 waits for 1..4; request 3 opens a stream (skipped)
        node.send("server", sconn.srv_port, HttpRequest("POST", "/echo", b"x").to_wire(),
                  kind="request", conn=conn.id, seq=5)
        node.send("server", sconn.srv_port, b"POST /echo HTTP/1.1\r\n", kind="chunk",
                  conn=conn.id, seq=3, idx=0, last=False)
        net.run()
        assert _leftovers(sconn) == {"_streams": 1, "_held": 1, "_skip": 1}
        conn.close()
        net.run()
        assert sconn.closed and _leftovers(sconn) == {}


class TestZeroChunkSize:
    """A chunk size or a window below one would stream empty frames, or
    none, until the call timed out: it is refused where it is set."""

    @pytest.mark.parametrize("knob", ["chunk_size", "stream_window"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_pool_config_refuses(self, knob, value):
        with pytest.raises(ValueError):
            PoolConfig(**{knob: value})
        with pytest.raises(ValueError):
            dataclasses.replace(PoolConfig(), **{knob: value})

    @staticmethod
    def _provider():
        from repro.core import WSPeer
        from repro.core.binding import StandardBinding
        from repro.uddi import UddiRegistryNode

        class Echo:
            def echo(self, message: str) -> str:
                return message

        net = Network(latency=FixedLatency(0.002))
        registry = UddiRegistryNode(net.add_node("registry"))
        provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
        provider.deploy(Echo(), name="Echo")
        return provider, provider.server.deployer.server

    def test_server_knobs_are_one_guarded_pool_config(self):
        server = HttpServer(Network().add_node("server"), 80)
        assert server.config == PoolConfig()
        for knob in ("chunk_threshold", "chunk_size", "stream_window"):
            assert not hasattr(server, knob)  # no loose knob escapes the rule
        with pytest.raises(ValueError):
            server.config = dataclasses.replace(server.config, chunk_size=0)

    def test_keepalive_hands_both_ends_one_config(self):
        provider, server = self._provider()
        pool = provider.enable_http_keepalive(
            PoolConfig(chunk_threshold=1024, chunk_size=256, stream_window=2)
        )
        assert server.config is pool.config
        assert (pool.config.chunk_threshold, pool.config.chunk_size, pool.config.stream_window) == (
            1024, 256, 2,
        )

    def test_keepalive_refuses_before_it_writes(self):
        provider, server = self._provider()
        config = provider.http_pool.config
        with pytest.raises(ValueError):
            provider.enable_http_keepalive(
                dataclasses.replace(config, chunk_threshold=1024, chunk_size=0)
            )
        with pytest.raises(ValueError):
            provider.enable_http_keepalive(
                dataclasses.replace(config, chunk_threshold=1024, stream_window=0)
            )
        assert provider.http_pool.config is config
        assert server.config == PoolConfig()


def _chunks(message: bytes, size: int) -> list:
    return [message[i : i + size] for i in range(0, len(message), size)]


class TestReaderLaws:
    """The reading half, alone: any arrival order inside the window,
    duplicates included, rebuilds exactly the bytes sent."""

    @settings(max_examples=200, deadline=None)
    @given(
        wire=st.binary(min_size=1, max_size=300),
        size=st.integers(1, 40),
        window=st.integers(1, 6),
        data=st.data(),
    )
    def test_any_order_inside_the_window_rebuilds_the_wire(self, wire, size, window, data):
        chunks = _chunks(wire, size)
        last = len(chunks) - 1
        reader = _Reader(window)
        fed, whole = [], None
        while whole is None:
            # any index not yet fed that the sender's credit could cover
            ahead = range(reader.next, min(last, reader.next + window - 1) + 1)
            idx = data.draw(st.sampled_from([i for i in ahead if i not in fed]))
            whole = reader.feed(idx, idx == last, chunks[idx])
            fed.append(idx)
            if whole is None and data.draw(st.booleans()):  # and a duplicate
                dup = data.draw(st.sampled_from(fed))
                assert reader.feed(dup, dup == last, chunks[dup]) is None
        assert whole == wire and isinstance(whole, bytes)
        assert not reader.early

    @settings(max_examples=100, deadline=None)
    @given(window=st.integers(1, 6), taken=st.integers(0, 5), beyond=st.integers(0, 50))
    def test_an_index_past_the_window_is_refused(self, window, taken, beyond):
        reader = _Reader(window)
        for idx in range(taken):
            reader.feed(idx, False, b"x")
        with pytest.raises(TransportError):
            reader.feed(reader.next + window + beyond, False, b"x")

    @settings(max_examples=100, deadline=None)
    @given(window=st.integers(2, 6), data=st.data())
    def test_an_index_past_the_last_is_refused(self, window, data):
        reader = _Reader(window)
        last = data.draw(st.integers(1, window - 1))
        reader.feed(last, True, b"x")
        with pytest.raises(TransportError):
            reader.feed(data.draw(st.integers(last + 1, window * 3)), False, b"x")


class TestStreamedFraming:
    """A whole streamed wire is parsed as a single frame's is: the head
    split and the Content-Length check are the one frame parser's."""

    def test_server_answers_400_to_a_streamed_request_cut_short(self):
        net, server, client = _world(FixedLatency(0.005))
        client.request("server", 80, HttpRequest("POST", "/echo", b"open"))
        (conn,) = client.pool.connections()
        (sconn,) = server.connections
        replies = []
        node = net.get_node("client")
        node.close_port(conn.local_port)
        node.open_port(conn.local_port, replies.append)
        wire = HttpRequest("POST", "/echo", b"abcdef", dict(BINARY)).to_wire()
        for idx, piece in enumerate((wire[:10], wire[10:-2])):
            node.send("server", sconn.srv_port, piece, kind="chunk",
                      conn=conn.id, seq=1, idx=idx, last=idx == 1)
        net.run()
        assert server.bad_requests == 1 and server.requests_served == 1
        (answer,) = [f for f in replies if f.meta.get("kind") == "response"]
        assert HttpResponse.from_wire(answer.payload).status == 400
        assert [f.meta["idx"] for f in replies if f.meta.get("kind") == "credit"] == [0, 1]
        assert _leftovers(sconn) == {}
