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
which is why standard Web-service stacks ended up synchronous.  That
connection is one model here: every :class:`HttpClient` request rides a
persistent connection leased from a
:class:`~repro.transport.connection.ConnectionPool` (E11), and an
:class:`HttpServer`'s listening port answers only the CONNECT that
opens one.  A peer shares one pool between all of its HTTP clients.

Headers live in a :class:`HeaderMap` — case-insensitive like real
HTTP field names (RFC 9110 §5.1), preserving the first-seen casing on
render.

Heads are templated both ways (E28): between two peers a head differs
from the last one only in its ``Content-Length``.  A render is one
``%``-format of a cached prefix that ends in ``Content-Length: ``.  A
parse splits off a final ``\r\nContent-Length: <digits>`` line and
looks the bytes before it up; the digits must pass ``bytes.isdigit``
(ASCII only, where ``str.isdigit`` and ``int`` take Arabic-Indic digits
too).  Anything else runs the strict grammar, and a prefix is stored
only after the strict grammar accepted it and only if it holds no
``Content-Length`` line of its own, so a template answers only what the
strict grammar answered for the same bytes.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, MutableMapping
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from repro.caching import ArtifactCache
from repro.observability import metrics as obs_metrics
from repro.simnet.network import Frame, Network, Node
from repro.transport.base import (
    ResponseCallback,
    ServerHandler,
    Transport,
    TransportBusyError,
    TransportError,
    WirePayload,
)
from repro.transport.uri import Uri

DEFAULT_HTTP_PORT = 80
DEFAULT_HTTPG_PORT = 8443
#: seconds an exchange may take when neither its client nor its call
#: names a timeout (every transport, locator and publisher client)
CLIENT_TIMEOUT = 30.0

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
        if data is None:
            return
        if data.__class__ is HeaderMap or (data.__class__ is not dict and isinstance(data, HeaderMap)):
            self._entries = data._entries.copy()
        elif data:
            items = data.items() if hasattr(data, "items") else data
            for name, value in items:
                self[name] = value

    def __getitem__(self, name: str) -> str:
        return self._entries[name.lower()][1]

    # get / setdefault without the Mapping defaults' raise-and-catch
    def get(self, name: str, default=None):
        held = self._entries.get(name.lower())
        return default if held is None else held[1]

    def setdefault(self, name: str, default=None):
        key = name.lower()
        held = self._entries.get(key)
        if held is None:
            self._entries[key] = (name, default)
            return default
        return held[1]

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


#: encoded heads up to and including ``Content-Length: ``, keyed by
#: (start-line tokens, header entries)
_head_templates = ArtifactCache("http-head-templates", max_entries=256)
#: the parsed head (:class:`_Head`) the strict grammar built for the
#: head bytes before a final ``\r\nContent-Length: `` line, keyed by them
_head_skeletons = ArtifactCache("http-head-skeletons", max_entries=256)
#: the same, keyed on a request prefix with its target and its
#: SOAPAction value cut out (:func:`_cut`): a service's name is a slot
_head_slots = ArtifactCache("http-head-slots", max_entries=64)
#: longer prefixes are parsed every time rather than held
_MAX_SKELETON_BYTES = 4096
_LENGTH_LINE = b"\r\nContent-Length: "
#: a spliced length has at most this many digits (well inside int64)
_MAX_LENGTH_DIGITS = 18


def _render_head(start: tuple, headers: HeaderMap, length: int) -> bytes:
    """The encoded head: start line from the three *start* tokens, the
    header lines, and ``Content-Length: <length>``."""
    entries = headers._entries
    if "content-length" in entries:
        # the transport owns framing: a caller's value is overwritten
        # in place, keeping its casing and position
        entries = {**entries, "content-length": (entries["content-length"][0], length)}
        return _head_text(start, entries, "\r\n").encode("utf-8")
    key = (start, tuple(entries.values()))
    prefix = _head_templates.get(key)
    if prefix is None:
        text = _head_text(start, entries, "Content-Length: ")
        prefix = _head_templates.put(key, text.encode("utf-8"))
    return b"%s%d\r\n\r\n" % (prefix, length)


def _head_text(start: tuple, entries: dict[str, tuple[str, str]], end: str) -> str:
    lines = "".join(f"{name}: {value}\r\n" for name, value in entries.values())
    return "%s %s %s\r\n%s%s" % (*start, lines, end)


#: body content-types delivered as raw bytes rather than decoded text
_BINARY_CONTENT_PREFIXES = ("multipart/", "application/octet-stream")

#: strict Content-Length field value: optional single leading OWS space,
#: then ASCII digits only — no sign, no padding, no internal whitespace
_CONTENT_LENGTH_RE = re.compile(r" ?([0-9]+)\Z")
#: a field name is a token (RFC 9110 §5.1): no whitespace before the colon
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+\Z")
#: what no field value may hold (§5.5): a C0 control other than HTAB
_CONTROL = re.compile(r"[\x00-\x08\x0a-\x1f]")
#: a request target (RFC 9112 §3.2) holds no space or C0 control (DEL is text)
_TARGET = re.compile(r"[^\x00-\x20]+\Z")
#: optional whitespace around a field value (§5.6.3)
_OWS = " \t"
_VERSIONS = ("HTTP/1.0", "HTTP/1.1")


class _Head(NamedTuple):
    """A head as a message reads it: fields as :class:`HeaderMap` entries
    (a cached head's without its final Content-Length line), the start
    line as a request and as a status line (None: it is not one), and
    whether the body stays bytes."""

    start: str
    entries: dict
    request: Optional[tuple]
    response: Optional[tuple]
    binary: bool


def _parsed(start: str, entries: dict) -> _Head:
    """The head of *start* and *entries*; a start line that is neither a
    request line nor a status line of HTTP/1.0 or 1.1 is refused."""
    words, (version, _, rest) = start.split(" "), start.partition(" ")
    code, _, reason = rest.partition(" ")
    three = len(code) == 3 and code.isdecimal()  # isdecimal: what int() reads
    response = (int(code), reason) if version in _VERSIONS and three else None
    request = None
    if len(words) == 3 and words[2] in _VERSIONS and _TOKEN.match(words[0]) and _TARGET.match(words[1]):
        path = words[1]
        request = (words[0].upper(), path if path.startswith("/") else "/" + path)
    if request is None and response is None:
        raise TransportError(f"malformed start line: {start!r}")
    kind = entries.get("content-type")
    binary = kind is not None and kind[1].lower().startswith(_BINARY_CONTENT_PREFIXES)
    return _Head(start, entries, request, response, binary)


def parse_head_block(head: Union[bytes, str]) -> tuple[str, HeaderMap, Optional[int]]:
    """Parse a header block (everything before ``\\r\\n\\r\\n``) into
    (start line, headers, declared Content-Length or None).

    ``Content-Length`` is parsed strictly — ``+5``, ``-5``,
    whitespace-padded values, and duplicate ``Content-Length`` lines
    that disagree are all rejected (HeaderMap is last-wins, which would
    otherwise smuggle the conflict through silently).  A byte head
    whose prefix the strict grammar has already read is answered from
    its skeleton (see the module docstring).
    """
    parsed, headers, declared_length = _read(head.encode("utf-8") if isinstance(head, str) else bytes(head))
    return parsed.start, headers, declared_length


def _read(head: bytes) -> tuple[_Head, HeaderMap, Optional[int]]:
    """The parsed head, the headers and the declared Content-Length (or
    None) of the byte header block *head*."""
    prefix, sep, digits = head.rpartition(_LENGTH_LINE)
    spliced = sep and len(digits) <= _MAX_LENGTH_DIGITS and digits.isdigit()
    if spliced:
        parsed = _head_skeletons.get(prefix) or _slotted(prefix)
        if parsed is not None:
            headers = HeaderMap.__new__(HeaderMap)
            headers._entries = {**parsed.entries, "content-length": ("Content-Length", digits.decode())}
            return parsed, headers, int(digits)
    try:
        head_text = head.decode("utf-8")
    except UnicodeDecodeError:
        raise TransportError("malformed HTTP head: not valid UTF-8") from None
    parsed, headers, declared_length, length_lines = _parse_strict(head_text)
    if spliced and length_lines == 1 and len(prefix) <= _MAX_SKELETON_BYTES:
        # the one Content-Length line is the last one, so the prefix
        # holds none: its entries are these minus that line's
        entries = headers._entries.copy()
        del entries["content-length"]
        held = _head_skeletons.put(prefix, parsed._replace(entries=entries))
        _learn_slots(prefix, held)
    return parsed, headers, declared_length


#: The SOAPAction line, whose value is a slot of :data:`_head_slots`
_ACTION_LINE = b"\r\nSOAPAction: "


def _cut(prefix: bytes) -> Optional[tuple]:
    """*prefix* cut at its slots — the start line's second token (a
    request's target) and the first SOAPAction value: ``(key, target,
    action)``, the key being the rest, in pieces; None when the start
    line has fewer than three tokens or the target holds a line break."""
    parts = prefix.split(b" ", 2)
    if len(parts) != 3 or b"\r\n" in parts[1]:
        return None
    method, target, rest = parts
    at = rest.find(_ACTION_LINE)
    if at < 0:
        return (method, rest), target, None
    end = rest.find(b"\r\n", at + len(_ACTION_LINE))
    end = len(rest) if end < 0 else end
    return (method, rest[:at], rest[end:]), target, rest[at + len(_ACTION_LINE) : end]


def _fill(held: tuple, target: bytes, action: Optional[bytes]) -> Optional[_Head]:
    """The head *held* for a cut prefix with these slot texts in; None
    when a slot is not UTF-8, the action holds a control or the start
    line is refused (the grammar raises)."""
    opening, closing, entries = held
    try:
        start = opening + target.decode("utf-8") + closing
        if action is not None:
            value = action.decode("utf-8")
            if _CONTROL.search(value):
                return None
            entries = {**entries, "soapaction": (entries["soapaction"][0], value.strip(_OWS))}
        return _parsed(start, entries)
    except (UnicodeDecodeError, TransportError):
        return None


def _slotted(prefix: bytes) -> Optional[_Head]:
    """The head of a prefix that is a learned one with another target or
    SOAPAction value, stored as its skeleton; None otherwise."""
    cut = None if len(prefix) > _MAX_SKELETON_BYTES else _cut(prefix)
    held = None if cut is None else _head_slots.get(cut[0])
    parsed = None if held is None else _fill(held, cut[1], cut[2])
    return parsed if parsed is None else _head_skeletons.put(prefix, parsed)


def _learn_slots(prefix: bytes, parsed: _Head) -> None:
    """Store what the grammar read off *prefix* with its slots cut out,
    when the slots read it — and it with other slot texts — back as the
    grammar does (a later SOAPAction line, say, would not)."""
    cut = _cut(prefix)
    if cut is None:
        return
    key, target, action = cut
    method, rest = key[0].decode("utf-8"), key[1].decode("utf-8")
    held = (method + " ", " " + rest.partition("\r\n")[0], parsed.entries)
    probe = b" /probe ".join([key[0], key[1]])
    if action is not None:
        probe += _ACTION_LINE + b"-probe" + key[2]
    try:
        probed = _parse_strict(probe.decode("utf-8"))[0]
    except TransportError:
        return
    if _fill(held, target, action) == parsed and _fill(
        held, b"/probe", None if action is None else b"-probe"
    ) == probed:
        _head_slots.put(key, held)


def _parse_strict(head_text: str) -> tuple[_Head, HeaderMap, Optional[int], int]:
    """The grammar: the parsed head, the headers, the declared length,
    and how many Content-Length lines it read."""
    lines = head_text.split("\r\n")
    start = lines[0]
    headers = HeaderMap()
    declared_length: Optional[int] = None
    length_lines = 0
    for line in lines[1:]:
        if not line:
            continue
        name, colon, value = line.partition(":")
        if not colon or _TOKEN.match(name) is None or _CONTROL.search(value):
            raise TransportError(f"malformed HTTP header line: {line!r}")
        if name.lower() == "content-length":
            match = _CONTENT_LENGTH_RE.match(value)
            try:
                length = int(match.group(1)) if match is not None else -1
            except ValueError:  # past int()'s digit limit
                length = -1
            if length < 0:
                raise TransportError(f"bad Content-Length: {value[:40]!r}")
            if declared_length is not None and declared_length != length:
                raise TransportError(
                    f"conflicting Content-Length headers: "
                    f"{declared_length} vs {length}"
                )
            declared_length = length
            length_lines += 1
        headers[name] = value.strip(_OWS)
    return _parsed(start, headers._entries), headers, declared_length, length_lines


def _parse_message(data: Union[bytes, str]) -> tuple[_Head, HeaderMap, Union[str, bytes]]:
    """Split a raw message into its parsed head, its headers and its body.

    Framing is byte-true: the head/body split happens on the raw byte
    sequence and ``Content-Length`` is validated against the *byte*
    length of the body.  A binary content type keeps the body raw
    bytes; everything else is UTF-8 text (a mis-encoded text body is a
    framing error, not a mojibake).
    """
    if data.__class__ is not bytes:
        data = data.encode("utf-8") if isinstance(data, str) else bytes(data)
    head, sep, body = data.partition(b"\r\n\r\n")
    if not sep:
        raise TransportError("malformed HTTP message: missing header terminator")
    parsed, headers, declared_length = _read(head)
    if declared_length is not None and declared_length != len(body):
        raise TransportError(
            f"Content-Length mismatch: declared {declared_length}, "
            f"got {len(body)} bytes"
        )
    if parsed.binary:
        return parsed, headers, body
    try:
        return parsed, headers, body.decode("utf-8")
    except UnicodeDecodeError:
        raise TransportError("message body is not valid UTF-8") from None


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


def _wire(start: tuple, headers: HeaderMap, body) -> bytes:
    data = _body_bytes(body)
    length = body.length if isinstance(body, BodyStream) else len(data)
    return _render_head(start, headers, length) + data


def _iter_wire(start: tuple, headers: HeaderMap, body) -> Iterator[bytes]:
    yield _render_head(start, headers, _body_declared_length(body))
    yield from body.chunks() if isinstance(body, BodyStream) else (_body_bytes(body),)


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

    def _start(self) -> tuple:
        return (self.method, self.path, "HTTP/1.1")

    def to_wire(self) -> bytes:
        return _wire(self._start(), self.headers, self.body)

    def iter_wire(self) -> Iterator[bytes]:
        """Yield the message as byte chunks: head first, then the body
        as produced — a :class:`BodyStream` body is never materialised."""
        return _iter_wire(self._start(), self.headers, self.body)

    @classmethod
    def from_wire(cls, data: Union[bytes, str]) -> "HttpRequest":
        head, headers, body = _parse_message(data)
        if head.request is None:
            raise TransportError(f"malformed request line: {head.start!r}")
        request = cls.__new__(cls)  # the head is read: nothing to normalise
        (request.method, request.path), request.body, request.headers = head.request, body, headers
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

    def _start(self) -> tuple:
        return ("HTTP/1.1", self.status, self.reason)

    def to_wire(self) -> bytes:
        return _wire(self._start(), self.headers, self.body)

    def iter_wire(self) -> Iterator[bytes]:
        return _iter_wire(self._start(), self.headers, self.body)

    @classmethod
    def from_wire(cls, data: Union[bytes, str]) -> "HttpResponse":
        head, headers, body = _parse_message(data)
        if head.response is None:
            raise TransportError(f"malformed status line: {head.start!r}")
        response = cls.__new__(cls)
        (response.status, response.reason), response.body, response.headers = head.response, body, headers
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
        from repro.transport.connection import PoolConfig

        self.node = node
        self.port = port
        self.routes: dict[str, RequestHandler] = {}
        self.interceptor: Optional[Callable[[HttpRequest], Optional[HttpResponse]]] = None
        self.started = False
        self.requests_served = 0
        #: malformed requests, and frames on the listening port that are
        #: not a CONNECT
        self.bad_requests = 0
        self.dropped_replies = 0
        # E11 connection knobs: per-connection request-queue bound
        # (None, the default, sheds nothing), its drain rate in req/s,
        # and how long a quiet connection lives (swept on accept)
        self.max_pending_per_connection: Optional[float] = None
        self.conn_drain_rate: float = 200.0
        self.conn_idle_timeout: Optional[float] = 60.0
        # E16 chunked-framing knobs (chunk_threshold, chunk_size,
        # stream_window), checked where a PoolConfig is built: responses
        # whose wire form exceeds chunk_threshold bytes leave as a
        # flow-controlled sequence of chunk frames (None: never)
        self.config = PoolConfig()
        self._connections: dict[str, object] = {}

    @property
    def wire_port(self) -> str:
        return f"http:{self.port}"

    @property
    def connections(self) -> list:
        """Open server-side connections (E11)."""
        return list(self._connections.values())

    def start(self) -> None:
        if self.started:
            return
        self.node.open_port(self.wire_port, self._on_frame)
        self.node.set_overflow_handler(self.wire_port, self._on_frame)
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

    def _on_frame(self, frame: Frame, retry_after: Optional[float] = None) -> None:
        """The listening port speaks only CONNECT: it opens a connection
        (or reaches the open one) and answers ACCEPT with the connection
        port.  The request a CONNECT carries goes to the connection —
        shed with *retry_after* when this is the worker pool's overflow
        (see :meth:`ServerConnection._on_frame`)."""
        from repro.transport.connection import ServerConnection

        conn_id = frame.meta.get("conn")
        client_port = frame.meta.get("client_port")
        if frame.meta.get("kind") != "connect" or not conn_id or not client_port:
            self.bad_requests += 1
            obs_metrics.inc("transport.http.bad_requests")
            return
        conn = self._connections.get(conn_id)
        if conn is None:  # a re-sent CONNECT re-uses the live connection
            now = self.node.network.kernel.now
            for quiet in [c for c in self._connections.values() if c.idle_expired(now)]:
                quiet.close(notify=True)
            conn = ServerConnection(self, conn_id, frame.src, client_port)
            self._connections[conn_id] = conn
            obs_metrics.inc("transport.http.conn_accepted")
            obs_metrics.set_gauge(
                "transport.http.server_connections", len(self._connections)
            )
        self.node.send(
            frame.src, client_port, "", kind="accept", conn=conn_id,
            srv_port=conn.srv_port,
        )
        if frame.payload:
            conn._on_frame(frame, retry_after)

    def _response_for(self, payload: Union[bytes, str]) -> HttpResponse:
        """Parse and dispatch one raw request."""
        try:
            request = HttpRequest.from_wire(payload)
        except TransportError as exc:
            self.bad_requests += 1
            obs_metrics.inc("transport.http.bad_requests")
            return HttpResponse(400, str(exc))
        return self._handle(request)

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
    """Issues requests from a node, each over a persistent connection
    leased from :attr:`pool` — two frame hops per request once the
    connection is open.

    *pool* is the :class:`~repro.transport.connection.ConnectionPool`
    to lease from (a peer hands all of its clients one), or the
    :class:`~repro.transport.connection.PoolConfig` of a pool of this
    client's own (None: the defaults).
    """

    def __init__(
        self,
        node: Node,
        default_timeout: Optional[float] = CLIENT_TIMEOUT,
        pool=None,
    ):
        from repro.transport.connection import ConnectionPool

        self.node = node
        self.network: Network = node.network
        self.default_timeout = default_timeout
        self.pool = pool if isinstance(pool, ConnectionPool) else ConnectionPool(node, pool)

    def request_async(
        self,
        target_node: str,
        port: int,
        request: HttpRequest,
        callback: Callable[[Optional[HttpResponse], Optional[Exception]], None],
        timeout: Optional[float] = None,
    ) -> None:
        """Send *request*; *callback* fires once with the response or error."""
        obs_metrics.inc("transport.http.requests_sent")
        self.pool.lease(target_node, port).send(
            request, callback, self.default_timeout if timeout is None else timeout
        )

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
        return self.network.kernel.wait(
            lambda done: self.request_async(target_node, port, request, done, timeout)
        )


class HttpTransport(Transport):
    """Transport SPI adapter: SOAP-over-HTTP POST.

    The four ``_…`` hooks at the bottom are where an authenticating
    subclass (:class:`~repro.transport.httpg.HttpgTransport`) adds and
    checks credentials; everything else — status mapping, the route
    adapter, server lifetime, the client and its *pool* (see
    :class:`HttpClient`) — is shared.
    """

    scheme = "http"
    default_port = DEFAULT_HTTP_PORT

    def __init__(self, node: Node, pool=None):
        self.node = node
        self.client = HttpClient(node, pool=pool)
        self._servers: dict[int, HttpServer] = {}

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
            body, headers = handler(request.body, dict(request.headers._entries.values()))
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
