"""HTTP over the simulated network.

The message model is a faithful miniature of HTTP/1.1: request line,
status line, headers, ``Content-Length``-framed bodies, all serialised
to real **bytes** on the wire (E16).  The head is UTF-8 text; the body
is an opaque byte sequence framed by a byte-accurate ``Content-Length``
— character counting mis-frames any non-ASCII envelope, so encoding
happens exactly once, in :meth:`HttpRequest.to_wire` /
:meth:`HttpResponse.to_wire`, and parsing splits head from body on
byte boundaries.  Connection semantics are what matter to the
paper — HTTP "maintains an open connection for return messages" (§III),
which is why standard Web-service stacks ended up synchronous.  Two
connection models coexist:

* the default *ephemeral* model: one throwaway reply port per request,
  held open until the response frame lands;
* the E11 *persistent* model (:mod:`repro.transport.connection`):
  pooled keep-alive connections with optional pipelining and bounded
  per-connection server queues, enabled per client via
  ``HttpClient(pool=...)`` / ``HttpTransport.enable_pooling``.

Headers live in a :class:`HeaderMap` — case-insensitive like real
HTTP field names (RFC 9110 §5.1), preserving the first-seen casing on
render.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Mapping, MutableMapping
from typing import Callable, Iterable, Iterator, Optional, Union

from repro.observability import metrics as obs_metrics
from repro.simnet.network import Frame, Network, NetworkError, Node, NodeDownError
from repro.transport.base import (
    ResponseCallback,
    ServerHandler,
    Transport,
    TransportBusyError,
    TransportError,
    TransportTimeoutError,
    WirePayload,
)
from repro.transport.uri import Uri

DEFAULT_HTTP_PORT = 80

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

HeadersLike = Union[Mapping[str, str], Iterable[tuple[str, str]], None]


class HeaderMap(MutableMapping):
    """HTTP header fields: case-insensitive lookup, canonical render.

    Field names compare case-insensitively (RFC 9110 §5.1) — a sender
    writing ``content-length`` must hit the same entry as
    ``Content-Length`` — while rendering keeps the casing the field was
    first set with, so wire output is byte-stable.
    """

    __slots__ = ("_entries",)

    def __init__(self, data: HeadersLike = None):
        #: lower-cased name -> (casing as first set, value)
        self._entries: dict[str, tuple[str, str]] = {}
        if isinstance(data, HeaderMap):
            self._entries = data._entries.copy()
        elif data:
            items = data.items() if hasattr(data, "items") else data
            for name, value in items:
                self[name] = value

    def __getitem__(self, name: str) -> str:
        return self._entries[name.lower()][1]

    def __setitem__(self, name: str, value: str) -> None:
        key = name.lower()
        held = self._entries.get(key)
        self._entries[key] = (held[0] if held is not None else name, value)

    def __delitem__(self, name: str) -> None:
        del self._entries[name.lower()]

    def __iter__(self) -> Iterator[str]:
        return iter([canonical for canonical, _ in self._entries.values()])

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._entries

    def copy(self) -> "HeaderMap":
        return HeaderMap(self)

    def __repr__(self) -> str:
        return f"<HeaderMap {dict(self)!r}>"


def _render_headers(headers: Mapping[str, str]) -> str:
    return "".join(f"{k}: {v}\r\n" for k, v in headers.items())


#: body content-types delivered as raw bytes rather than decoded text
_BINARY_CONTENT_PREFIXES = ("multipart/", "application/octet-stream")

#: strict Content-Length field value: optional single leading OWS space,
#: then ASCII digits only — no sign, no padding, no internal whitespace
_CONTENT_LENGTH_RE = re.compile(r" ?([0-9]+)\Z")


def _decoded_body(body: bytes, headers: HeaderMap) -> Union[str, bytes]:
    """Binary content-types keep raw bytes; everything else is UTF-8
    text (a mis-encoded text body is a framing error, not a mojibake)."""
    ctype = headers.get("Content-Type", "").lower()
    if any(ctype.startswith(prefix) for prefix in _BINARY_CONTENT_PREFIXES):
        return body
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError:
        raise TransportError("message body is not valid UTF-8") from None


def parse_head_block(head: Union[bytes, str]) -> tuple[str, HeaderMap, Optional[int]]:
    """Parse a header block (everything before ``\\r\\n\\r\\n``) into
    (start line, headers, declared Content-Length or None).

    ``Content-Length`` is parsed strictly — ``+5``, ``-5``,
    whitespace-padded values, and duplicate ``Content-Length`` lines
    that disagree are all rejected (HeaderMap is last-wins, which would
    otherwise smuggle the conflict through silently).
    """
    if isinstance(head, (bytes, bytearray, memoryview)):
        try:
            head_text = bytes(head).decode("utf-8")
        except UnicodeDecodeError:
            raise TransportError("malformed HTTP head: not valid UTF-8") from None
    else:
        head_text = head
    lines = head_text.split("\r\n")
    start = lines[0]
    headers = HeaderMap()
    declared_length: Optional[int] = None
    for line in lines[1:]:
        if not line:
            continue
        name, colon, value = line.partition(":")
        if not colon:
            raise TransportError(f"malformed HTTP header line: {line!r}")
        if name.strip().lower() == "content-length":
            match = _CONTENT_LENGTH_RE.match(value)
            if match is None:
                raise TransportError(f"bad Content-Length: {value!r}")
            length = int(match.group(1))
            if declared_length is not None and declared_length != length:
                raise TransportError(
                    f"conflicting Content-Length headers: "
                    f"{declared_length} vs {length}"
                )
            declared_length = length
        headers[name.strip()] = value.strip()
    return start, headers, declared_length


def _parse_head(data: Union[bytes, str]) -> tuple[str, HeaderMap, bytes]:
    """Split a raw message into (start line, headers, body bytes).

    Framing is byte-true: the head/body split happens on the raw byte
    sequence and ``Content-Length`` is validated against the *byte*
    length of the body.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    elif isinstance(data, (bytearray, memoryview)):
        data = bytes(data)
    head, sep, body = data.partition(b"\r\n\r\n")
    if not sep:
        raise TransportError("malformed HTTP message: missing header terminator")
    start, headers, declared_length = parse_head_block(head)
    if declared_length is not None and declared_length != len(body):
        raise TransportError(
            f"Content-Length mismatch: declared {declared_length}, "
            f"got {len(body)} bytes"
        )
    return start, headers, body


class BodyStream:
    """A message body supplied as byte chunks instead of one buffer.

    *factory* is a zero-argument callable returning an iterable of
    ``bytes``-like chunks; *length* is the exact total byte count (it
    becomes the declared ``Content-Length``).  A factory — not a bare
    iterator — so retries and re-frames can restart the stream.
    """

    __slots__ = ("factory", "length")

    def __init__(self, factory: Callable[[], Iterable[bytes]], length: int):
        self.factory = factory
        self.length = int(length)

    def chunks(self) -> Iterator[bytes]:
        for chunk in self.factory():
            yield bytes(chunk) if isinstance(chunk, memoryview) else chunk

    def materialise(self) -> bytes:
        return b"".join(self.chunks())

    def __repr__(self) -> str:
        return f"<BodyStream {self.length}B>"


def _body_bytes(body: Union[str, bytes, bytearray, memoryview, BodyStream]) -> bytes:
    if isinstance(body, BodyStream):
        return body.materialise()
    if isinstance(body, str):
        return body.encode("utf-8")
    return bytes(body)


def _text_preview(body, limit: int = 200) -> str:
    """A short printable view of a body for error messages."""
    if isinstance(body, BodyStream):
        return f"<stream {body.length}B>"
    if isinstance(body, (bytes, bytearray, memoryview)):
        return bytes(body)[:limit].decode("utf-8", "replace")
    return body[:limit]


def _body_declared_length(body) -> int:
    if isinstance(body, BodyStream):
        return body.length
    if isinstance(body, str):
        return len(body.encode("utf-8"))
    return len(body)


class HttpRequest:
    """An HTTP request message.

    ``body`` may be ``str`` (encoded to UTF-8 exactly once at frame
    time), raw ``bytes`` (attachments / binary parts go through
    untouched), or a :class:`BodyStream` (the E16 chunked path: the
    body is produced as an iterator of byte chunks and never
    materialised here).
    """

    def __init__(
        self,
        method: str,
        path: str,
        body: Union[str, bytes, BodyStream] = "",
        headers: HeadersLike = None,
    ):
        self.method = method.upper()
        self.path = path if path.startswith("/") else "/" + path
        self.body = body
        self.headers = HeaderMap(headers)

    @property
    def body_bytes(self) -> bytes:
        return _body_bytes(self.body)

    def _head_wire(self) -> bytes:
        headers = self.headers.copy()
        # the transport owns framing: whatever the caller set, the
        # declared length must match the body's byte count or the peer
        # rejects it
        headers["Content-Length"] = str(_body_declared_length(self.body))
        head = f"{self.method} {self.path} HTTP/1.1\r\n{_render_headers(headers)}\r\n"
        return head.encode("utf-8")

    def to_wire(self) -> bytes:
        return self._head_wire() + self.body_bytes

    def iter_wire(self) -> Iterator[bytes]:
        """Yield the message as byte chunks: head first, then the body
        as produced — a :class:`BodyStream` body is never materialised."""
        yield self._head_wire()
        if isinstance(self.body, BodyStream):
            yield from self.body.chunks()
        else:
            yield self.body_bytes

    def wire_length(self) -> int:
        return len(self._head_wire()) + _body_declared_length(self.body)

    @classmethod
    def from_wire(cls, data: Union[bytes, str]) -> "HttpRequest":
        start, headers, body = _parse_head(data)
        return cls._from_parts(start, headers, _decoded_body(body, headers))

    @classmethod
    def _from_parts(cls, start: str, headers: HeaderMap, body) -> "HttpRequest":
        """Build from an already-split head + body (the streamed path
        hands the body straight from its sink, undecoded)."""
        parts = start.split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise TransportError(f"malformed request line: {start!r}")
        request = cls(parts[0], parts[1], body)
        request.headers = headers  # built for this message: no second copy
        return request

    def __repr__(self) -> str:
        return (
            f"<HttpRequest {self.method} {self.path} "
            f"body={_body_declared_length(self.body)}B>"
        )


class HttpResponse:
    """An HTTP response message."""

    def __init__(
        self,
        status: int,
        body: Union[str, bytes, BodyStream] = "",
        headers: HeadersLike = None,
        reason: Optional[str] = None,
    ):
        self.status = status
        self.body = body
        self.headers = HeaderMap(headers)
        self.reason = reason if reason is not None else _REASONS.get(status, "Unknown")

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def body_bytes(self) -> bytes:
        return _body_bytes(self.body)

    def _head_wire(self) -> bytes:
        headers = self.headers.copy()
        headers["Content-Length"] = str(_body_declared_length(self.body))
        head = f"HTTP/1.1 {self.status} {self.reason}\r\n{_render_headers(headers)}\r\n"
        return head.encode("utf-8")

    def to_wire(self) -> bytes:
        return self._head_wire() + self.body_bytes

    def iter_wire(self) -> Iterator[bytes]:
        yield self._head_wire()
        if isinstance(self.body, BodyStream):
            yield from self.body.chunks()
        else:
            yield self.body_bytes

    def wire_length(self) -> int:
        return len(self._head_wire()) + _body_declared_length(self.body)

    @classmethod
    def from_wire(cls, data: Union[bytes, str]) -> "HttpResponse":
        start, headers, body = _parse_head(data)
        return cls._from_parts(start, headers, _decoded_body(body, headers))

    @classmethod
    def _from_parts(cls, start: str, headers: HeaderMap, body) -> "HttpResponse":
        parts = start.split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise TransportError(f"malformed status line: {start!r}")
        try:
            status = int(parts[1])
        except ValueError:
            raise TransportError(f"malformed status code in {start!r}") from None
        reason = parts[2] if len(parts) == 3 else ""
        response = cls(status, body, reason=reason)
        response.headers = headers  # built for this message: no second copy
        return response

    def __repr__(self) -> str:
        return (
            f"<HttpResponse {self.status} {self.reason} "
            f"body={_body_declared_length(self.body)}B>"
        )


RequestHandler = Callable[[HttpRequest], HttpResponse]


class HttpServer:
    """A lightweight HTTP listener on one node.

    Mirrors the paper's server: launched only when something deploys
    (§IV-A: "the HTTP server is only launched once the application has
    deployed a service"), capable of listing what it hosts and routing
    requests to per-path handlers.  A catch-all *interceptor* may claim
    a request before routing — that is WSPeer's "application handles the
    request directly" hook.
    """

    def __init__(self, node: Node, port: int = DEFAULT_HTTP_PORT):
        self.node = node
        self.port = port
        self.routes: dict[str, RequestHandler] = {}
        self.interceptor: Optional[Callable[[HttpRequest], Optional[HttpResponse]]] = None
        self.started = False
        self.requests_served = 0
        self.bad_requests = 0
        self.dropped_replies = 0
        #: requests refused by the node's bounded worker pool (E13) and
        #: answered 503 + Retry-After before any parse/dispatch work
        self.overflow_answered = 0
        # E11 persistent-connection knobs: per-connection request-queue
        # bound (None disables shedding), its drain rate in req/s, and
        # how long an inactive server-side connection lives
        self.max_pending_per_connection: Optional[float] = 32.0
        self.conn_drain_rate: float = 200.0
        self.conn_idle_timeout: Optional[float] = 60.0
        # E16 chunked-framing knobs (persistent connections only):
        # responses whose wire form exceeds chunk_threshold bytes are
        # sent as a flow-controlled sequence of chunk frames instead of
        # one giant frame.  None disables response chunking.
        self.chunk_threshold: Optional[int] = None
        self.chunk_size: int = 64 * 1024
        self.stream_window: int = 8
        #: path -> zero-arg factory of a body sink (``write(bytes)`` /
        #: ``close() -> body``) consuming a chunk-streamed request body
        #: incrementally instead of buffering the full wire
        self.stream_sinks: dict[str, Callable[[], object]] = {}
        self._connections: dict[str, object] = {}

    @property
    def wire_port(self) -> str:
        return f"http:{self.port}"

    @property
    def connections(self) -> list:
        """Open server-side persistent connections (E11)."""
        return list(self._connections.values())

    def start(self) -> None:
        if self.started:
            return
        self.node.open_port(self.wire_port, self._on_frame)
        self.node.set_overflow_handler(self.wire_port, self._on_overflow)
        self.started = True

    def stop(self) -> None:
        if not self.started:
            return
        for conn in list(self._connections.values()):
            conn.close(notify=True)
        self.node.close_port(self.wire_port)
        self.node.set_overflow_handler(self.wire_port, None)
        self.started = False

    def add_route(self, path: str, handler: RequestHandler) -> None:
        path = path if path.startswith("/") else "/" + path
        self.routes[path] = handler

    def remove_route(self, path: str) -> None:
        path = path if path.startswith("/") else "/" + path
        self.routes.pop(path, None)
        self.stream_sinks.pop(path, None)

    def add_stream_sink(self, path: str, factory: Callable[[], object]) -> None:
        """Consume chunk-streamed request bodies for *path* through
        ``factory()`` sinks (O(chunk) server-side memory) instead of
        reassembling the full wire before dispatch."""
        path = path if path.startswith("/") else "/" + path
        self.stream_sinks[path] = factory

    def _body_sink_for(self, head: bytes):
        """Pick the stream sink for an incoming chunked request, from
        its parsed head.  None means: buffer the whole wire."""
        if not self.stream_sinks:
            return None
        try:
            start, _, _ = parse_head_block(head)
            parts = start.split(" ")
            path = parts[1] if len(parts) == 3 else ""
        except TransportError:
            return None
        factory = self.stream_sinks.get(path)
        return factory() if factory is not None else None

    def _on_frame(self, frame: Frame) -> None:
        if frame.meta.get("kind") == "connect":
            self._on_connect(frame)
            return
        self._reply(frame, self._response_for(frame.payload))

    def _reply(self, frame: Frame, response: HttpResponse) -> None:
        """Answer *frame* on its reply port.  With nowhere to answer, or
        the serving node dead (e.g. a crash injected mid-dispatch), the
        reply is lost on the wire — which must be visible, not silent
        and not an unhandled kernel exception."""
        reply_port = frame.meta.get("reply_port")
        if reply_port:
            try:
                self.node.send(frame.src, reply_port, response.to_wire())
                return
            except (NetworkError, NodeDownError):
                pass
        self.dropped_replies += 1
        obs_metrics.inc("transport.http.dropped_replies")

    def _on_overflow(self, frame: Frame, retry_after: float) -> None:
        """The node's bounded worker pool rejected *frame*: answer 503 +
        Retry-After without parsing or dispatching — the whole point is
        that a saturated provider refuses cheaply (the E9 admission
        vocabulary at the transport layer)."""
        if frame.meta.get("kind") == "connect":
            # control frame: no reply channel contract; the client's
            # connect timeout (and its retry policy) handles it
            return
        if frame.meta.get("reply_port"):
            self.overflow_answered += 1
            obs_metrics.inc("transport.http.worker_overflow")
        self._reply(
            frame,
            HttpResponse(
                503,
                f"server {self.node.id}: worker pool saturated",
                {"Retry-After": f"{retry_after:.6f}"},
            ),
        )

    def _response_for(self, payload: Union[bytes, str]) -> HttpResponse:
        """Parse and dispatch one raw request (shared with E11
        per-connection delivery)."""
        try:
            request = HttpRequest.from_wire(payload)
        except TransportError as exc:
            self.bad_requests += 1
            obs_metrics.inc("transport.http.bad_requests")
            return HttpResponse(400, str(exc))
        return self._handle(request)

    def _on_connect(self, frame: Frame) -> None:
        from repro.transport.connection import ServerConnection

        conn_id = frame.meta.get("conn")
        reply_port = frame.meta.get("reply_port")
        if not conn_id or not reply_port:
            return
        conn = self._connections.get(conn_id)
        if conn is None:  # a re-sent CONNECT re-uses the live connection
            conn = ServerConnection(self, conn_id, frame.src, reply_port)
            self._connections[conn_id] = conn
            obs_metrics.inc("transport.http.conn_accepted")
            obs_metrics.set_gauge(
                "transport.http.server_connections", len(self._connections)
            )
        self.node.send(
            frame.src, reply_port, "", kind="accept", conn=conn_id,
            srv_port=conn.srv_port,
        )

    def _forget_connection(self, conn) -> None:
        self._connections.pop(conn.id, None)
        obs_metrics.set_gauge(
            "transport.http.server_connections", len(self._connections)
        )

    def _handle(self, request: HttpRequest) -> HttpResponse:
        self.requests_served += 1
        obs_metrics.inc("transport.http.requests_served")
        if self.interceptor is not None:
            intercepted = self.interceptor(request)
            if intercepted is not None:
                return intercepted
        if request.method == "GET" and request.path == "/":
            listing = "\n".join(sorted(self.routes))
            return HttpResponse(200, listing, {"Content-Type": "text/plain"})
        handler = self.routes.get(request.path)
        if handler is None:
            return HttpResponse(404, f"no service at {request.path}")
        if request.method not in ("POST", "GET"):
            return HttpResponse(405, f"method {request.method} not allowed")
        try:
            return handler(request)
        except Exception as exc:  # noqa: BLE001 - server boundary
            return HttpResponse(500, f"{type(exc).__name__}: {exc}")


class HttpClient:
    """Issues requests from a node.

    By default each request opens an ephemeral reply port (the paper's
    throwaway "open connection for return messages").  With a pool
    enabled (:meth:`enable_pooling` or the ``pool=`` constructor
    argument), requests ride persistent pooled connections instead —
    same callback contract, two frame hops instead of four.
    """

    _conn_ids = itertools.count(1)

    def __init__(
        self,
        node: Node,
        default_timeout: Optional[float] = 30.0,
        pool=None,
    ):
        self.node = node
        self.network: Network = node.network
        self.default_timeout = default_timeout
        self.pool = None
        if pool is not None:
            self.enable_pooling(pool)

    def enable_pooling(self, config=None):
        """Route requests over pooled persistent connections (E11).

        *config* may be a :class:`~repro.transport.connection.PoolConfig`,
        an existing :class:`~repro.transport.connection.ConnectionPool`
        (to share one pool between clients on the same node), or None
        for defaults.  Returns the pool.
        """
        from repro.transport.connection import ConnectionPool

        if isinstance(config, ConnectionPool):
            self.pool = config
        else:
            self.pool = ConnectionPool(self.node, config)
        return self.pool

    def request_async(
        self,
        target_node: str,
        port: int,
        request: HttpRequest,
        callback: Callable[[Optional[HttpResponse], Optional[Exception]], None],
        timeout: Optional[float] = None,
    ) -> None:
        """Send *request*; *callback* fires with the response or error."""
        timeout = timeout if timeout is not None else self.default_timeout

        def report(response: Optional[HttpResponse], error: Optional[Exception]) -> None:
            if error is not None:
                obs_metrics.inc(
                    "transport.http.timeouts"
                    if isinstance(error, TransportTimeoutError)
                    else "transport.http.errors"
                )
            callback(response, error)

        obs_metrics.inc("transport.http.requests_sent")
        if self.pool is not None:
            self.pool.lease(target_node, port).send(request, report, timeout=timeout)
            return
        conn = f"http-conn:{next(self._conn_ids)}"
        done: dict = {"fired": False, "timeout_event": None}

        def finish(response: Optional[HttpResponse], error: Optional[Exception]) -> None:
            if done["fired"]:
                return
            done["fired"] = True
            if done["timeout_event"] is not None:
                done["timeout_event"].cancel()
            if self.node.has_port(conn):
                self.node.close_port(conn)
            report(response, error)

        def on_reply(frame: Frame) -> None:
            try:
                response = HttpResponse.from_wire(frame.payload)
            except TransportError as exc:
                finish(None, exc)
                return
            finish(response, None)

        self.node.open_port(conn, on_reply)
        if timeout is not None:
            done["timeout_event"] = self.network.kernel.schedule(
                timeout,
                finish,
                None,
                TransportTimeoutError(
                    f"no response from {target_node}:{port}{request.path} within {timeout}s"
                ),
            )
        try:
            self.node.send(target_node, f"http:{port}", request.to_wire(), reply_port=conn)
        except (NetworkError, NodeDownError) as exc:
            finish(None, exc)

    def request(
        self,
        target_node: str,
        port: int,
        request: HttpRequest,
        timeout: Optional[float] = None,
    ) -> HttpResponse:
        """Synchronous request: pumps the kernel until the reply arrives.

        This is the paper's "HTTP maintains an open connection": virtual
        time advances inside this call until the response or timeout.
        """
        box: dict[str, object] = {}

        def callback(response: Optional[HttpResponse], error: Optional[Exception]) -> None:
            box["response"] = response
            box["error"] = error

        self.request_async(target_node, port, request, callback, timeout)
        self.network.kernel.pump_until(lambda: "response" in box or "error" in box)
        if box.get("error") is not None:
            raise box["error"]  # type: ignore[misc]
        return box["response"]  # type: ignore[return-value]


class HttpTransport(Transport):
    """Transport SPI adapter: SOAP-over-HTTP POST.

    The four ``_…`` hooks at the bottom are where an authenticating
    subclass (:class:`~repro.transport.httpg.HttpgTransport`) adds and
    checks credentials; everything else — status mapping, the route
    adapter, server lifetime, pooling — is shared.
    """

    scheme = "http"
    default_port = DEFAULT_HTTP_PORT

    def __init__(
        self,
        node: Node,
        default_timeout: Optional[float] = 30.0,
        pool=None,
    ):
        self.node = node
        self.client = HttpClient(node, default_timeout, pool=pool)
        self._servers: dict[int, HttpServer] = {}

    @property
    def pool(self):
        return self.client.pool

    def enable_pooling(self, config=None):
        """Persistent pooled connections for this transport's client
        (E11); see :meth:`HttpClient.enable_pooling`."""
        return self.client.enable_pooling(config)

    def server_for(self, port: Optional[int] = None) -> HttpServer:
        """Get (lazily creating, not starting) the server on *port* of
        this node."""
        port = port or self.default_port
        if port not in self._servers:
            self._servers[port] = HttpServer(self.node, port)
        return self._servers[port]

    def send(
        self,
        endpoint: Uri,
        body: WirePayload,
        headers: Optional[dict[str, str]] = None,
        on_response: Optional[ResponseCallback] = None,
        timeout: Optional[float] = None,
    ) -> None:
        request = HttpRequest("POST", "/" + endpoint.path, body, headers)
        request.headers.setdefault("Content-Type", "text/xml; charset=utf-8")
        request.headers.setdefault("Host", endpoint.authority)
        self._outgoing_request(request)

        def callback(response: Optional[HttpResponse], error: Optional[Exception]) -> None:
            if on_response is None:
                return
            if error is None and response.status == 503:
                # explicit shed (before any route ran): surface the
                # Retry-After hint so supervision backs off this
                # endpoint precisely
                try:
                    retry_after = float(response.headers.get("Retry-After", "0"))
                except ValueError:
                    retry_after = 0.0
                error = TransportBusyError(
                    f"{self.scheme.upper()} 503: {_text_preview(response.body)}",
                    retry_after=retry_after,
                )
            if error is None:
                error = self._refused_response(response)
            if error is None and not response.ok and response.status != 500:
                # 500 carries a SOAP fault body the engine will decode;
                # other failure codes are transport-level errors.
                error = TransportError(
                    f"{self.scheme.upper()} {response.status}: "
                    f"{_text_preview(response.body)}"
                )
            if error is not None:
                on_response(None, error)
            else:
                on_response(response.body, None)

        self.client.request_async(
            endpoint.host, endpoint.port or self.default_port, request, callback,
            timeout=timeout,
        )

    def listen(self, address: Uri, handler: ServerHandler) -> None:
        server = self.server_for(address.port)
        server.start()

        def route(request: HttpRequest) -> HttpResponse:
            refusal = self._refused_request(request)
            if refusal is not None:
                return refusal
            body, headers = handler(request.body, dict(request.headers))
            status = int(headers.pop("X-Status", "200"))
            self._outgoing_response(headers)
            return HttpResponse(status, body, headers)

        server.add_route("/" + address.path, route)

    def stop_listening(self, address: Uri) -> None:
        server = self._servers.get(address.port or self.default_port)
        if server is not None:
            server.remove_route("/" + address.path)
            # an installed interceptor still answers requests with no
            # routes left — only a fully idle server shuts down
            if not server.routes and server.interceptor is None:
                server.stop()

    # -- hooks -------------------------------------------------------------
    def _outgoing_request(self, request: HttpRequest) -> None:
        """Client side: last touch before *request* leaves."""

    def _refused_response(self, response: HttpResponse) -> Optional[Exception]:
        """Client side: why *response* cannot be trusted, or None."""
        return None

    def _refused_request(self, request: HttpRequest) -> Optional[HttpResponse]:
        """Server side: the answer to a request no handler may see, or
        None to let it through."""
        return None

    def _outgoing_response(self, headers: dict[str, str]) -> None:
        """Server side: last touch before a handler's answer leaves."""
