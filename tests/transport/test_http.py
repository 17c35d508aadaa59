"""Tests for the HTTP message model, server, client and transport."""

import pytest

from repro.simnet import FixedLatency, Network, TraceLog
from repro.transport import (
    HeaderMap,
    HttpClient,
    HttpRequest,
    HttpResponse,
    HttpServer,
    HttpTransport,
    TransportError,
    TransportTimeoutError,
    Uri,
)
from repro.transport.base import TransportRegistry
from repro.transport.datagram import DatagramTransport


@pytest.fixture
def net():
    network = Network(latency=FixedLatency(0.005), trace=TraceLog(enabled=True))
    network.add_node("client")
    network.add_node("server")
    return network


def _metric(name):
    from repro.observability.metrics import default_registry

    return default_registry().get(name)


def raw_on_connection(net, wire):
    """Open a connection from "client" by hand, send *wire* on it as
    request 0, and return the payloads of the response frames."""
    client_node = net.get_node("client")
    frames = []
    client_node.open_port("probe", frames.append)
    client_node.send("server", "http:80", "", kind="connect", conn="probe", client_port="probe")
    net.run()
    (accept,) = frames
    client_node.send(
        "server", accept.meta["srv_port"], wire, kind="request", conn="probe", seq=0
    )
    net.run()
    client_node.close_port("probe")
    return [f.payload for f in frames if f.meta.get("kind") == "response"]


class TestMessageModel:
    def test_request_wire_roundtrip(self):
        req = HttpRequest("POST", "/svc", "hello", {"X-A": "1"})
        back = HttpRequest.from_wire(req.to_wire())
        assert back.method == "POST"
        assert back.path == "/svc"
        assert back.body == "hello"
        assert back.headers["X-A"] == "1"
        assert back.headers["Content-Length"] == "5"

    def test_response_wire_roundtrip(self):
        resp = HttpResponse(200, "<ok/>", {"Content-Type": "text/xml"})
        back = HttpResponse.from_wire(resp.to_wire())
        assert back.status == 200
        assert back.reason == "OK"
        assert back.body == "<ok/>"
        assert back.ok

    def test_path_normalised(self):
        assert HttpRequest("GET", "svc").path == "/svc"

    def test_method_uppercased(self):
        assert HttpRequest("post", "/x").method == "POST"

    def test_content_length_mismatch_rejected(self):
        wire = "POST /x HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort"
        with pytest.raises(TransportError):
            HttpRequest.from_wire(wire)

    def test_missing_separator_rejected(self):
        with pytest.raises(TransportError):
            HttpRequest.from_wire("POST /x HTTP/1.1\r\nNoBody: true")

    def test_malformed_request_line(self):
        with pytest.raises(TransportError):
            HttpRequest.from_wire("GARBAGE\r\n\r\n")

    def test_malformed_status_line(self):
        with pytest.raises(TransportError):
            HttpResponse.from_wire("HTTP/1.1 xx Bad\r\n\r\n")

    def test_unknown_status_reason(self):
        assert HttpResponse(299).reason == "Unknown"

    def test_not_ok_statuses(self):
        assert not HttpResponse(404).ok
        assert not HttpResponse(500).ok

    def test_body_with_crlf_survives(self):
        body = "line1\r\n\r\nline2"
        back = HttpResponse.from_wire(HttpResponse(200, body).to_wire())
        assert back.body == body


class TestHeaderCaseInsensitivity:
    """Regression tests: header field names are case-insensitive
    (RFC 9110 §5.1); exact-case matching let a lowercase
    ``content-length:`` skip body validation entirely."""

    def test_lowercase_content_length_is_validated(self):
        wire = "POST /x HTTP/1.1\r\ncontent-length: 99\r\n\r\nshort"
        with pytest.raises(TransportError):
            HttpRequest.from_wire(wire)

    def test_mixed_case_lookup(self):
        req = HttpRequest.from_wire(
            "POST /x HTTP/1.1\r\nCoNtEnT-tYpE: text/xml\r\n\r\n"
        )
        assert req.headers["content-type"] == "text/xml"
        assert req.headers["Content-Type"] == "text/xml"

    def test_render_preserves_first_seen_casing(self):
        req = HttpRequest("POST", "/x", "hi", {"x-custom": "1"})
        req.headers["X-Custom"] = "2"  # same field, different casing
        wire = req.to_wire()
        assert b"x-custom: 2" in wire
        assert b"X-Custom" not in wire

    def test_setdefault_does_not_duplicate_differently_cased_field(self):
        # to_wire used to add a second Content-Length/Content-Type line
        # when the caller had set a lowercase variant
        req = HttpRequest("POST", "/x", "hi", {"content-length": "2"})
        wire = req.to_wire()
        assert wire.lower().count(b"content-length") == 1

    def test_get_and_setdefault_keep_first_casing_without_raising(self, monkeypatch):
        headers = HeaderMap({"content-type": "text/xml"})

        def no_getitem(self, name):
            raise AssertionError("get/setdefault went through __getitem__")

        # the Mapping defaults raise and catch KeyError via __getitem__
        monkeypatch.setattr(HeaderMap, "__getitem__", no_getitem)
        assert headers.get("Content-Type") == "text/xml"
        assert headers.get("Host") is None
        assert headers.get("Host", "h") == "h"
        assert headers.setdefault("CONTENT-TYPE", "other") == "text/xml"
        assert headers.setdefault("Host", "server:80") == "server:80"
        assert headers.setdefault("HOST", "ignored") == "server:80"
        assert list(headers) == ["content-type", "Host"]

    def test_building_a_map_asks_the_abc_only_about_a_subclass(self, monkeypatch):
        # the ABC's isinstance is a Python call: a dict, None or a
        # HeaderMap is told by its class
        asked = []
        check = type(HeaderMap).__instancecheck__

        def spy(cls, instance):
            if cls is HeaderMap:
                asked.append(type(instance).__name__)
            return check(cls, instance)

        monkeypatch.setattr(type(HeaderMap), "__instancecheck__", spy)
        HttpRequest("POST", "/x", "hi", {"SOAPAction": "a#b"})
        HttpResponse(200, "ok")
        assert dict(HeaderMap(HeaderMap({"X-A": "1"}))) == {"X-A": "1"}
        assert asked == []

        class Sub(HeaderMap):
            pass

        assert dict(HeaderMap(Sub({"X-A": "1"}))) == {"X-A": "1"}
        assert asked == ["Sub"]

    def test_transport_send_respects_lowercase_content_type(self, net):
        captured = {}
        server_side = HttpTransport(net.get_node("server"))
        server_side.listen(
            Uri.parse("http://server/svc"),
            lambda body, headers: (
                captured.setdefault("headers", headers) and ("", {}) or ("", {})
            ),
        )
        client_side = HttpTransport(net.get_node("client"))
        client_side.send(
            Uri.parse("http://server/svc"), "x",
            headers={"content-type": "application/custom"},
        )
        net.run()
        # the SPI hands the handler a plain dict keyed by the sender's
        # casing; the default must not have been layered on top
        sent = captured["headers"]
        values = [v for k, v in sent.items() if k.lower() == "content-type"]
        assert values == ["application/custom"]

    def test_duplicate_header_lines_merge_last_wins(self):
        req = HttpRequest.from_wire(
            "POST /x HTTP/1.1\r\nX-A: one\r\nx-a: two\r\n\r\n"
        )
        assert req.headers["X-A"] == "two"
        assert len([k for k in req.headers if k.lower() == "x-a"]) == 1


class TestContentLengthHardening:
    """Regression tests (E16 framing sweep): Content-Length is a strict
    digit string.  ``int()``-based parsing used to accept ``+5``,
    ``-5``, and whitespace-padded values, and HeaderMap's last-wins
    merge silently smuggled conflicting duplicate lines through —
    either can desynchronise framing on a pipelined connection."""

    @pytest.mark.parametrize(
        "value",
        ["+5", "-5", " 5 ", "5 ", "\t5", "  5", "5\t", "0x5", "5五", "",
         # past int()'s digit limit: a ValueError used to escape the server
         pytest.param(" " + "9" * 5000, id="5000-digits")],
    )
    def test_non_canonical_values_rejected(self, value):
        wire = f"POST /x HTTP/1.1\r\nContent-Length:{value}\r\n\r\nhello"
        with pytest.raises(TransportError):
            HttpRequest.from_wire(wire)

    def test_single_leading_space_accepted(self):
        # the normal "Name: value" rendering — one OWS space, digits
        req = HttpRequest.from_wire(
            "POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
        )
        assert req.body == "hello"

    def test_conflicting_duplicate_lines_rejected(self):
        wire = (
            "POST /x HTTP/1.1\r\n"
            "Content-Length: 5\r\n"
            "Content-Length: 99\r\n"
            "\r\nhello"
        )
        with pytest.raises(TransportError, match="conflicting Content-Length"):
            HttpRequest.from_wire(wire)

    def test_conflicting_duplicates_rejected_even_if_last_would_win(self):
        # last-wins HeaderMap merge would have made 5 the effective
        # value and let the message through; the conflict itself must
        # be fatal regardless of line order
        wire = (
            "POST /x HTTP/1.1\r\n"
            "Content-Length: 99\r\n"
            "content-length: 5\r\n"
            "\r\nhello"
        )
        with pytest.raises(TransportError, match="conflicting Content-Length"):
            HttpRequest.from_wire(wire)

    def test_agreeing_duplicate_lines_accepted(self):
        req = HttpRequest.from_wire(
            "POST /x HTTP/1.1\r\n"
            "Content-Length: 5\r\n"
            "content-length: 5\r\n"
            "\r\nhello"
        )
        assert req.body == "hello"

    def test_response_content_length_hardened_too(self):
        with pytest.raises(TransportError):
            HttpResponse.from_wire(
                "HTTP/1.1 200 OK\r\nContent-Length: +6\r\n\r\nbodies"
            )

    def test_server_counts_bad_content_length_as_bad_request(self, net):
        server = HttpServer(net.get_node("server"), 80)
        server.add_route("/echo", lambda req: HttpResponse(200, req.body))
        server.start()
        before = _metric("transport.http.bad_requests")
        replies = raw_on_connection(
            net, "POST /echo HTTP/1.1\r\nContent-Length: -5\r\n\r\nhello"
        )
        assert server.bad_requests == 1
        assert _metric("transport.http.bad_requests") == before + 1
        assert len(replies) == 1
        assert HttpResponse.from_wire(replies[0]).status == 400


class TestServerClient:
    def make_server(self, net, handler=None):
        server = HttpServer(net.get_node("server"), 80)
        server.add_route(
            "/echo", handler or (lambda req: HttpResponse(200, req.body.upper()))
        )
        server.start()
        return server

    def test_sync_round_trip(self, net):
        self.make_server(net)
        client = HttpClient(net.get_node("client"))
        resp = client.request("server", 80, HttpRequest("POST", "/echo", "hi"))
        assert resp.status == 200
        assert resp.body == "HI"
        # two hops of 5 ms: a cold request rides the CONNECT
        assert net.now == pytest.approx(0.01)
        client.request("server", 80, HttpRequest("POST", "/echo", "hi"))
        assert net.now == pytest.approx(0.02)  # and a warm one its connection

    def test_404_for_unknown_path(self, net):
        self.make_server(net)
        client = HttpClient(net.get_node("client"))
        resp = client.request("server", 80, HttpRequest("POST", "/nope", ""))
        assert resp.status == 404

    def test_handler_exception_becomes_500(self, net):
        def boom(req):
            raise RuntimeError("kaboom")

        self.make_server(net, boom)
        client = HttpClient(net.get_node("client"))
        resp = client.request("server", 80, HttpRequest("POST", "/echo", ""))
        assert resp.status == 500
        assert "kaboom" in resp.body

    def test_root_lists_routes(self, net):
        server = self.make_server(net)
        server.add_route("/other", lambda r: HttpResponse(200))
        client = HttpClient(net.get_node("client"))
        resp = client.request("server", 80, HttpRequest("GET", "/"))
        assert "/echo" in resp.body and "/other" in resp.body

    def test_interceptor_takes_precedence(self, net):
        server = self.make_server(net)
        server.interceptor = lambda req: HttpResponse(200, "intercepted")
        client = HttpClient(net.get_node("client"))
        resp = client.request("server", 80, HttpRequest("POST", "/echo", "hi"))
        assert resp.body == "intercepted"

    def test_interceptor_can_decline(self, net):
        server = self.make_server(net)
        server.interceptor = lambda req: None
        client = HttpClient(net.get_node("client"))
        resp = client.request("server", 80, HttpRequest("POST", "/echo", "hi"))
        assert resp.body == "HI"

    def test_timeout_when_server_down(self, net):
        self.make_server(net)
        net.get_node("server").go_down()
        client = HttpClient(net.get_node("client"), default_timeout=1.0)
        with pytest.raises(TransportTimeoutError):
            client.request("server", 80, HttpRequest("POST", "/echo", "x"))
        assert net.now == pytest.approx(1.0)

    def test_async_request(self, net):
        self.make_server(net)
        client = HttpClient(net.get_node("client"))
        seen = []
        client.request_async(
            "server", 80, HttpRequest("POST", "/echo", "abc"),
            lambda resp, err: seen.append((resp, err)),
        )
        assert seen == []  # nothing until the network runs
        net.run()
        assert len(seen) == 1
        assert seen[0][0].body == "ABC"
        assert seen[0][1] is None

    def test_one_connection_port_persists_across_requests(self, net):
        self.make_server(net)
        client_node = net.get_node("client")
        client = HttpClient(client_node)
        held = []
        for _ in range(3):
            client.request("server", 80, HttpRequest("POST", "/echo", "x"))
            held.append([p for p in client_node.ports if p.startswith("http-conn")])
        assert len(held[0]) == 1 and held == [held[0]] * 3

    def test_server_stop(self, net):
        server = self.make_server(net)
        server.stop()
        client = HttpClient(net.get_node("client"), default_timeout=0.5)
        with pytest.raises(TransportTimeoutError):
            client.request("server", 80, HttpRequest("POST", "/echo", "x"))

    def test_requests_served_counter(self, net):
        server = self.make_server(net)
        client = HttpClient(net.get_node("client"))
        for _ in range(3):
            client.request("server", 80, HttpRequest("POST", "/echo", "x"))
        assert server.requests_served == 3

    def test_malformed_request_counted_not_silently_dropped(self, net):
        # regression: garbage on the wire was answered with a 400 but
        # left no server-side evidence at all
        server = self.make_server(net)
        before = _metric("transport.http.bad_requests")
        replies = raw_on_connection(net, "THIS IS NOT HTTP")
        assert server.bad_requests == 1
        assert _metric("transport.http.bad_requests") == before + 1
        assert len(replies) == 1
        assert HttpResponse.from_wire(replies[0]).status == 400

    def test_undeliverable_reply_counted_as_dropped(self, net):
        # regression: a response that could not leave (here: the
        # server node died while the handler ran) vanished without a trace
        server_node = net.get_node("server")

        def dying(request):
            server_node.go_down()
            return HttpResponse(200, "late")

        server = self.make_server(net, dying)
        before = _metric("transport.http.dropped_replies")
        client = HttpClient(net.get_node("client"), default_timeout=0.5)
        with pytest.raises(TransportTimeoutError):
            client.request("server", 80, HttpRequest("POST", "/echo", "hi"))
        assert server.requests_served == 1  # the handler did run
        assert server.dropped_replies == 1
        assert _metric("transport.http.dropped_replies") == before + 1


class TestHttpTransport:
    def test_spi_round_trip(self, net):
        server_side = HttpTransport(net.get_node("server"))
        server_side.listen(
            Uri.parse("http://server/svc"),
            lambda body, headers: (body[::-1], {}),
        )
        client_side = HttpTransport(net.get_node("client"))
        seen = []
        client_side.send(
            Uri.parse("http://server/svc"), "abcdef",
            on_response=lambda body, err: seen.append((body, err)),
        )
        net.run()
        assert seen == [("fedcba", None)]

    def test_error_status_surfaces_as_error(self, net):
        client_side = HttpTransport(net.get_node("client"))
        server_side = HttpTransport(net.get_node("server"))
        server_side.listen(
            Uri.parse("http://server/svc"),
            lambda body, headers: ("denied", {"X-Status": "404"}),
        )
        seen = []
        client_side.send(
            Uri.parse("http://server/svc"), "x",
            on_response=lambda body, err: seen.append((body, err)),
        )
        net.run()
        assert seen[0][0] is None
        assert isinstance(seen[0][1], TransportError)

    def test_status_500_passes_body_for_fault_decoding(self, net):
        client_side = HttpTransport(net.get_node("client"))
        server_side = HttpTransport(net.get_node("server"))
        server_side.listen(
            Uri.parse("http://server/svc"),
            lambda body, headers: ("<fault/>", {"X-Status": "500"}),
        )
        seen = []
        client_side.send(
            Uri.parse("http://server/svc"), "x",
            on_response=lambda body, err: seen.append((body, err)),
        )
        net.run()
        assert seen == [("<fault/>", None)]

    def test_stop_listening_removes_route_and_server(self, net):
        server_side = HttpTransport(net.get_node("server"))
        addr = Uri.parse("http://server/svc")
        server_side.listen(addr, lambda b, h: (b, {}))
        server_side.stop_listening(addr)
        assert not server_side.server_for(80).started

    def test_stop_listening_keeps_server_while_interceptor_installed(self, net):
        # regression: removing the last route used to stop the server
        # even though an interceptor (e.g. a WS-Security envelope guard)
        # was still answering every request
        server_side = HttpTransport(net.get_node("server"))
        addr = Uri.parse("http://server/svc")
        server_side.listen(addr, lambda b, h: (b, {}))
        server = server_side.server_for(80)
        server.interceptor = lambda req: HttpResponse(200, "guarded")
        server_side.stop_listening(addr)
        assert server.started  # interceptor still needs the socket
        client = HttpClient(net.get_node("client"))
        resp = client.request("server", 80, HttpRequest("POST", "/svc", "x"))
        assert resp.body == "guarded"
        # once the interceptor is gone too, the server may shut down
        server.interceptor = None
        server_side.stop_listening(addr)
        assert not server.started


class TestRegistry:
    def test_lookup_by_scheme_and_uri(self, net):
        reg = TransportRegistry()
        http = HttpTransport(net.get_node("client"))
        reg.register(http)
        assert reg.lookup("http") is http
        assert reg.lookup(Uri.parse("http://server/x").scheme) is http

    def test_unknown_scheme(self):
        with pytest.raises(TransportError):
            TransportRegistry().lookup("gopher")

    def test_schemes_listing(self, net):
        reg = TransportRegistry()
        reg.register(HttpTransport(net.get_node("client")))
        reg.register(DatagramTransport(net.get_node("client")))
        assert reg.schemes == ["dgram", "http"]


class TestDatagram:
    def test_one_way_delivery(self, net):
        recv = DatagramTransport(net.get_node("server"))
        got = []
        recv.listen(
            Uri.parse("dgram://server/inbox"),
            lambda body, headers: got.append(body) or ("", {}),
        )
        send = DatagramTransport(net.get_node("client"))
        completions = []
        send.send(
            Uri.parse("dgram://server/inbox"), "ping",
            on_response=lambda body, err: completions.append((body, err)),
        )
        # completion is immediate (one-way), delivery is async
        assert completions == [(None, None)]
        net.run()
        assert got == ["ping"]

    def test_listen_requires_path(self, net):
        with pytest.raises(TransportError):
            DatagramTransport(net.get_node("server")).listen(
                Uri.parse("dgram://server"), lambda b, h: (b, {})
            )

    def test_stop_listening(self, net):
        t = DatagramTransport(net.get_node("server"))
        addr = Uri.parse("dgram://server/inbox")
        t.listen(addr, lambda b, h: (b, {}))
        t.stop_listening(addr)
        assert not net.get_node("server").has_port("dgram:inbox")
