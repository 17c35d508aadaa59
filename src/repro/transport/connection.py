"""Connection-oriented HTTP: persistent connections, pooling, pipelining.

The paper faults HTTP for "maintaining an open connection for return
messages" (§III) — but at scale the opposite failure dominates: a
client that opens a throwaway connection per request pays full setup
on every call, and the server has no per-caller unit to bound.  E11
models both remedies of real HTTP/1.1 deployments:

* :class:`HttpConnection` — an explicit client-side connection with a
  lifecycle (``connecting → active → idle → closed``), established by a
  CONNECT/ACCEPT frame handshake.  Once open, requests ride the same
  server-side port with monotonically increasing sequence numbers, so
  a request costs two frame hops instead of four.
* optional *pipelining* — several requests in flight on one connection;
  both ends keep reorder buffers keyed on the sequence number, so
  responses are always delivered back to callers in request order even
  when the simulated wire reorders frames (size-dependent latency).
* :class:`ConnectionPool` — a bounded per-client pool with LRU reuse,
  idle-timeout and max-requests-per-connection recycling, and
  health-aware eviction: wire it to a
  :class:`~repro.supervision.health.HealthMonitor` and a ``dead``
  verdict closes every pooled connection to that endpoint.
* :class:`ServerConnection` — the provider half: a per-connection port
  plus a bounded request queue modelled by the existing
  :class:`~repro.supervision.admission.AdmissionController` leaky
  bucket.  Overflow is answered with ``503`` + ``Retry-After`` before
  any dispatch work happens, which the transport surfaces as
  :class:`~repro.transport.base.TransportBusyError` so failover backs
  off exactly as it does for SOAP ``Server.Busy``.

Every connection frame carries a ``conn`` meta key, which the simnet
trace log copies into its ``sent``/``delivered``/``lost`` records —
whole connections can be replayed from a trace.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.observability import metrics as obs_metrics
from repro.simnet.network import Frame, NetworkError, Node, NodeDownError
from repro.transport.base import TransportError, TransportTimeoutError
from repro.transport.http import (
    DEFAULT_HTTP_PORT,
    BodyStream,
    HttpRequest,
    HttpResponse,
    HttpServer,
    _busy,
    _decoded_body,
    parse_head_block,
)

# connection lifecycle states
CONNECTING = "connecting"
ACTIVE = "active"
IDLE = "idle"
CLOSED = "closed"


class ConnectionClosedError(TransportError):
    """The connection closed (or aborted) before the request completed."""


@dataclass(frozen=True)
class PoolConfig:
    """Shape of a client's connection pool.

    ``pipeline=False`` keeps at most one request in flight per
    connection (later requests queue locally), which is HTTP/1.1
    without pipelining.  ``max_requests_per_connection=1`` degenerates
    to a fresh connection per request — the baseline E11 benchmarks
    against.
    """

    #: total connections the pool keeps open (LRU-evicts idle ones)
    max_connections: int = 8
    #: close a connection this long after its last response (None: never)
    idle_timeout: Optional[float] = 10.0
    #: recycle a connection after this many requests (None: unlimited)
    max_requests_per_connection: Optional[int] = None
    #: allow several in-flight requests per connection
    pipeline: bool = True
    #: abort if the CONNECT/ACCEPT handshake takes longer than this
    connect_timeout: Optional[float] = 5.0
    #: E16: send messages whose wire form exceeds this many bytes as a
    #: sequence of chunk frames instead of one giant frame (None
    #: disables request chunking; BodyStream bodies always stream)
    chunk_threshold: Optional[int] = None
    #: byte size of each chunk frame on the streamed path
    chunk_size: int = 64 * 1024
    #: flow-control window: chunks in flight before awaiting credit
    stream_window: int = 8


ResponseHandler = Callable[[Optional[HttpResponse], Optional[Exception]], None]


# ----------------------------------------------------------------------
# E16 chunked transfer framing.
#
# A message bigger than ``chunk_threshold`` (or one whose body is a
# BodyStream) rides the connection as ``kind="chunk"`` frames — each
# carrying ``seq`` (which exchange), ``idx`` (position), ``last`` — and
# the receiver grants ``kind="credit"`` frames back as it consumes
# them.  The credit window bounds bytes in flight to
# ``stream_window * chunk_size`` no matter how large the payload is,
# and streamed exchanges are exempted from strict in-order delivery so
# a 64 MB envelope never head-of-line blocks pipelined small calls.
# ----------------------------------------------------------------------


def _rechunk(chunks, size: int):
    """Re-buffer an iterable of byte chunks into chunks of exactly
    *size* bytes (the final one may be short) without copying more than
    one chunk's worth at a time — slicing happens on memoryviews."""
    pending = bytearray()
    for chunk in chunks:
        mv = memoryview(chunk)
        if pending:
            take = min(size - len(pending), len(mv))
            pending += mv[:take]
            mv = mv[take:]
            if len(pending) == size:
                yield bytes(pending)
                pending = bytearray()
        while len(mv) >= size:
            yield bytes(mv[:size])
            mv = mv[size:]
        if len(mv):
            pending += mv
    if pending:
        yield bytes(pending)


def _render(message, threshold: Optional[int]) -> tuple[bool, object]:
    """Render *message* once: ``(True, wire bytes)`` when it goes as one
    frame, ``(False, byte chunks)`` when it streams."""
    if isinstance(message.body, BodyStream):
        return False, message.iter_wire()
    wire = message.to_wire()
    if threshold is not None and len(wire) > threshold:
        return False, (wire,)
    return True, wire


class _StreamSender:
    """Pushes one message's wire bytes as credit-windowed chunk frames."""

    def __init__(
        self,
        node: Node,
        target: str,
        port: str,
        meta: dict,
        chunks,
        chunk_size: int,
        window: int,
        on_error: Optional[Callable[[Exception], None]] = None,
    ):
        self.node = node
        self.target = target
        self.port = port
        self.meta = meta
        self._iter = _rechunk(chunks, chunk_size)
        self.window = max(1, window)
        self._next_idx = 0
        self._acked = -1
        self._lookahead: Optional[bytes] = None
        self._primed = False
        self.finished = False
        self.on_error = on_error
        obs_metrics.inc("transport.http.streams_started")

    def start(self) -> None:
        self._pump()

    def on_credit(self, idx) -> None:
        if isinstance(idx, int) and idx > self._acked:
            self._acked = idx
        self._pump()

    def _take(self) -> tuple[Optional[bytes], bool]:
        if not self._primed:
            self._lookahead = next(self._iter, None)
            self._primed = True
        chunk = self._lookahead
        if chunk is None:
            return None, True
        self._lookahead = next(self._iter, None)
        return chunk, self._lookahead is None

    def _pump(self) -> None:
        while not self.finished and (self._next_idx - self._acked) <= self.window:
            chunk, last = self._take()
            if chunk is None:
                self.finished = True
                break
            try:
                self.node.send(
                    self.target,
                    self.port,
                    chunk,
                    kind="chunk",
                    idx=self._next_idx,
                    last=last,
                    **self.meta,
                )
            except (NetworkError, NodeDownError) as exc:
                self.finished = True
                if self.on_error is not None:
                    self.on_error(exc)
                return
            obs_metrics.inc("transport.http.chunks_sent")
            obs_metrics.inc("transport.http.bytes_streamed", len(chunk))
            self._next_idx += 1
            if last:
                self.finished = True
                obs_metrics.inc("transport.http.streams_completed")


class _StreamReceiver:
    """Reassembles chunk frames for one exchange, feeding a byte sink
    in index order and granting flow-control credits as it consumes.
    Out-of-order chunks are held, but never more than one window's
    worth — the sender cannot outrun its credits."""

    def __init__(self, sink: Callable[[bytes], None], send_credit: Callable[[int], None]):
        self._sink = sink
        self._send_credit = send_credit
        self._next_idx = 0
        self._held: dict[int, bytes] = {}
        self._last_idx: Optional[int] = None
        self.received_bytes = 0
        self.complete = False

    def feed(self, idx, last: bool, payload) -> None:
        if self.complete or not isinstance(idx, int):
            return
        if idx >= self._next_idx and idx not in self._held:
            data = bytes(payload) if not isinstance(payload, bytes) else payload
            self._held[idx] = data
            if last:
                self._last_idx = idx
        while self._next_idx in self._held:
            data = self._held.pop(self._next_idx)
            obs_metrics.inc("transport.http.chunks_received")
            self.received_bytes += len(data)
            self._sink(data)
            self._next_idx += 1
        self._send_credit(self._next_idx - 1)
        if self._last_idx is not None and self._next_idx > self._last_idx:
            self.complete = True


class _WireAssembler:
    """Incremental splitter for a streamed HTTP wire: accumulates the
    head until the ``\\r\\n\\r\\n`` terminator, then buffers the body."""

    def __init__(self):
        self._buf = bytearray()
        self.head: Optional[bytes] = None

    def write(self, data: bytes) -> None:
        self._buf += data
        if self.head is None:
            pos = self._buf.find(b"\r\n\r\n")
            if pos >= 0:
                self.head = bytes(self._buf[:pos])
                del self._buf[: pos + 4]

    def finish_message(self, from_parts) -> object:
        """Assemble the completed message through the message class's
        ``_from_parts``."""
        if self.head is None:
            raise TransportError("streamed message ended before header terminator")
        start, headers, declared = parse_head_block(self.head)
        body = bytes(self._buf)
        if declared is not None and declared != len(body):
            raise TransportError(
                f"Content-Length mismatch on streamed message: "
                f"declared {declared}, got {len(body)} bytes"
            )
        return from_parts(start, headers, _decoded_body(body, headers))


@dataclass(slots=True)
class _Exchange:
    """One request in flight on an :class:`HttpConnection`."""

    seq: int
    request: HttpRequest
    callback: ResponseHandler
    timeout: Optional[float]
    timer: object = None
    done: bool = False
    up_sender: object = None  # the _StreamSender of a chunked request


class HttpConnection:
    """One persistent client→server HTTP connection.

    Opened eagerly in the constructor: the CONNECT frame leaves
    immediately and requests issued while the handshake is in flight
    queue locally, then flush on ACCEPT.  All responses are delivered
    to callers in request order regardless of frame arrival order.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        node: Node,
        target_node: str,
        port: int = DEFAULT_HTTP_PORT,
        config: Optional[PoolConfig] = None,
        on_closed: Optional[Callable[["HttpConnection"], None]] = None,
    ):
        self.node = node
        self.kernel = node.network.kernel
        self.target_node = target_node
        self.port = port
        self.config = config if config is not None else PoolConfig()
        self.id = f"{node.id}:c{next(HttpConnection._ids)}"
        self.local_port = f"http-conn:{self.id}"
        self.state = CONNECTING
        self.opened_at = self.kernel.now
        self.last_used = self.kernel.now
        self.requests_sent = 0
        #: response frames that arrived ahead of an earlier sequence
        self.out_of_order = 0
        self._on_closed = on_closed
        self._srv_port: Optional[str] = None
        #: seq -> in-flight entry, insertion (= request) order
        self._pending: "OrderedDict[int, _Exchange]" = OrderedDict()
        self._backlog: "deque[_Exchange]" = deque()
        self._reorder: dict[int, HttpResponse] = {}
        #: seqs exempt from in-order delivery (E16 streamed exchanges) —
        #: they deliver on completion and never gate ordered peers
        self._unordered: set[int] = set()
        #: seq -> _WireAssembler+_StreamReceiver for chunked responses
        self._rsp_streams: dict[int, tuple] = {}
        self._next_seq = 0
        self._next_delivery = 0
        self._unanswered = 0
        self._idle_event = None
        self._connect_event = None
        self._close_error: Optional[Exception] = None

        obs_metrics.inc("transport.http.conn_opened")
        self.node.open_port(self.local_port, self._on_frame)
        try:
            self.node.send(
                target_node,
                f"http:{port}",
                "",
                kind="connect",
                conn=self.id,
                reply_port=self.local_port,
            )
        except (NetworkError, NodeDownError) as exc:
            self._teardown(exc)
            return
        if self.config.connect_timeout is not None:
            self._connect_event = self.kernel.schedule(
                self.config.connect_timeout, self._on_connect_timeout
            )

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return len(self._pending)

    @property
    def exhausted(self) -> bool:
        limit = self.config.max_requests_per_connection
        return limit is not None and self.requests_sent >= limit

    @property
    def reusable(self) -> bool:
        """Can this connection carry another request?"""
        return self.state != CLOSED and not self.exhausted

    # ------------------------------------------------------------------
    def send(
        self,
        request: HttpRequest,
        callback: ResponseHandler,
        timeout: Optional[float] = None,
    ) -> None:
        """Issue *request*; *callback* fires (in request order) with the
        response or error.  A timeout poisons the whole connection —
        later responses on it can no longer be matched trustworthily.
        A response the server streams as chunk frames is delivered on
        completion, outside the strict request order.
        """
        if self.state == CLOSED:
            callback(
                None,
                self._close_error
                if self._close_error is not None
                else ConnectionClosedError(f"connection {self.id} is closed"),
            )
            return
        entry = _Exchange(self._next_seq, request, callback, timeout)
        self._next_seq += 1
        self.requests_sent += 1
        self._pending[entry.seq] = entry
        if timeout is not None:
            entry.timer = self.kernel.schedule(
                timeout, self._on_request_timeout, entry
            )
        self._touch()
        if self.state == CONNECTING:
            self._backlog.append(entry)
        elif self.config.pipeline or self._unanswered == 0:
            self._transmit(entry)
        else:
            self._backlog.append(entry)

    def close(self) -> None:
        """Close the connection; pending requests (if any) fail with
        :class:`ConnectionClosedError`."""
        self._teardown(None)

    # ------------------------------------------------------------------
    def _touch(self) -> None:
        self.last_used = self.kernel.now
        if self._idle_event is not None:
            self._idle_event.cancel()
            self._idle_event = None
        if self.state == IDLE:
            self.state = ACTIVE

    def _transmit(self, entry: _Exchange) -> None:
        self._unanswered += 1
        self.state = ACTIVE
        request = entry.request
        whole, wire = _render(request, self.config.chunk_threshold)
        if not whole:
            # streamed exchanges opt out of strict ordering: the server
            # dispatches them on completion, so pipelined small calls
            # behind this one are never head-of-line blocked
            self._unordered.add(entry.seq)
            sender = _StreamSender(
                self.node,
                self.target_node,
                self._srv_port,
                {"conn": self.id, "seq": entry.seq},
                wire,
                self.config.chunk_size,
                self.config.stream_window,
                on_error=self._teardown,
            )
            entry.up_sender = sender
            sender.start()
            return
        try:
            self.node.send(
                self.target_node,
                self._srv_port,
                wire,
                kind="request",
                conn=self.id,
                seq=entry.seq,
            )
        except (NetworkError, NodeDownError) as exc:
            self._teardown(exc)

    def _pump_backlog(self) -> None:
        while (
            self._backlog
            and self.state == ACTIVE
            and (self.config.pipeline or self._unanswered == 0)
        ):
            entry = self._backlog.popleft()
            if entry.done:
                continue
            self._transmit(entry)

    def _maybe_idle(self) -> None:
        if self.state != ACTIVE or self._pending:
            return
        if self.exhausted:
            self.close()
            return
        self.state = IDLE
        if self.config.idle_timeout is not None:
            self._idle_event = self.kernel.schedule(
                self.config.idle_timeout, self._on_idle_timeout
            )

    # -- frame handling -------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        kind = frame.meta.get("kind")
        if kind == "accept":
            self._on_accept(frame)
        elif kind == "response":
            self._on_response(frame)
        elif kind == "chunk":
            self._on_response_chunk(frame)
        elif kind == "credit":
            self._on_credit(frame)
        elif kind == "close":
            self._on_remote_close()

    def _on_accept(self, frame: Frame) -> None:
        if self.state != CONNECTING:
            return
        if self._connect_event is not None:
            self._connect_event.cancel()
            self._connect_event = None
        self._srv_port = frame.meta.get("srv_port")
        self.state = ACTIVE
        self._pump_backlog()
        self._maybe_idle()

    def _on_response(self, frame: Frame) -> None:
        seq = frame.meta.get("seq")
        try:
            response = HttpResponse.from_wire(frame.payload)
        except TransportError as exc:
            self._teardown(exc)
            return
        self._complete(seq, response)

    def _on_response_chunk(self, frame: Frame) -> None:
        """A chunk of a streamed response: feed the per-seq assembler,
        deliver (out of order) when the last chunk lands."""
        seq = frame.meta.get("seq")
        if not isinstance(seq, int) or seq not in self._pending:
            return
        stream = self._rsp_streams.get(seq)
        if stream is None:
            assembler = _WireAssembler()
            receiver = _StreamReceiver(
                assembler.write,
                lambda idx, seq=seq: self._send_credit(seq, idx),
            )
            stream = (assembler, receiver)
            self._rsp_streams[seq] = stream
            # a streaming response exempts this seq from strict order —
            # it completes whenever its last chunk lands
            self._unordered.add(seq)
            self._drain()
        assembler, receiver = stream
        try:
            receiver.feed(frame.meta.get("idx"), frame.meta.get("last", False), frame.payload)
        except TransportError as exc:
            self._teardown(exc)
            return
        if not receiver.complete:
            return
        self._rsp_streams.pop(seq, None)
        try:
            response = assembler.finish_message(HttpResponse._from_parts)
        except TransportError as exc:
            self._teardown(exc)
            return
        self._complete(seq, response)

    def _on_credit(self, frame: Frame) -> None:
        seq = frame.meta.get("seq")
        entry = self._pending.get(seq) if isinstance(seq, int) else None
        if entry is not None and entry.up_sender is not None:
            entry.up_sender.on_credit(frame.meta.get("idx"))

    def _send_credit(self, seq: int, idx: int) -> None:
        if self._srv_port is None:
            return
        try:
            self.node.send(
                self.target_node, self._srv_port, b"",
                kind="credit", conn=self.id, seq=seq, idx=idx,
            )
        except (NetworkError, NodeDownError):
            pass  # the request timeout owns this failure mode

    def _complete(self, seq, response: HttpResponse) -> None:
        if not isinstance(seq, int) or seq not in self._pending:
            return  # stale or duplicate frame
        if seq == self._next_delivery:
            self._deliver(seq, response)
            self._drain()
        elif seq in self._unordered or seq < self._next_delivery:
            # streamed exchange: deliver on completion, out of band
            self._deliver_oob(seq, response)
            self._drain()
        else:
            # arrived ahead of an earlier response: hold it so callers
            # still see responses in request order
            self.out_of_order += 1
            obs_metrics.inc("transport.http.ooo_frames")
            self._reorder[seq] = response
            return
        if self.state == CLOSED:
            return  # a callback closed us
        self._pump_backlog()
        self._maybe_idle()

    def _drain(self) -> None:
        """Advance ordered delivery: release held responses in order,
        skipping over seqs that opted out of ordering."""
        while True:
            if self._next_delivery in self._reorder:
                self._deliver(
                    self._next_delivery, self._reorder.pop(self._next_delivery)
                )
            elif self._next_delivery in self._unordered:
                self._unordered.discard(self._next_delivery)
                self._next_delivery += 1
            else:
                break

    def _deliver(self, seq: int, response: HttpResponse) -> None:
        entry = self._pending.pop(seq)
        self._unordered.discard(seq)
        self._next_delivery = seq + 1
        self._unanswered -= 1
        self._finish_entry(entry, response, None)

    def _deliver_oob(self, seq: int, response: HttpResponse) -> None:
        entry = self._pending.pop(seq)
        if seq >= self._next_delivery:
            # leave the seq marked so ordered draining skips over it
            self._unordered.add(seq)
        self._unanswered -= 1
        self._finish_entry(entry, response, None)

    def _on_remote_close(self) -> None:
        self._srv_port = None  # the server is gone; no close echo needed
        error = (
            ConnectionClosedError(f"connection {self.id} closed by server")
            if self._pending
            else None
        )
        self._teardown(error)

    # -- timers ---------------------------------------------------------
    def _on_idle_timeout(self) -> None:
        obs_metrics.inc("transport.http.conn_idle_closed")
        self.close()

    def _on_connect_timeout(self) -> None:
        self._teardown(
            TransportTimeoutError(
                f"connect to {self.target_node}:{self.port} timed out "
                f"after {self.config.connect_timeout}s"
            )
        )

    def _on_request_timeout(self, entry: _Exchange) -> None:
        if entry.done:
            return
        request = entry.request
        self._finish_entry(
            entry,
            None,
            TransportTimeoutError(
                f"no response from {self.target_node}:{self.port}"
                f"{request.path} within {entry.timeout}s"
            ),
        )
        self._teardown(
            ConnectionClosedError(
                f"connection {self.id} aborted: request {entry.seq} timed out"
            )
        )

    # -- teardown -------------------------------------------------------
    def _finish_entry(
        self, entry: _Exchange, response: Optional[HttpResponse], error: Optional[Exception]
    ) -> None:
        if entry.done:
            return
        entry.done = True
        if entry.timer is not None:
            entry.timer.cancel()
            entry.timer = None
        entry.callback(response, error)

    def _teardown(self, error: Optional[Exception]) -> None:
        if self.state == CLOSED:
            return
        self.state = CLOSED
        self._close_error = (
            error
            if error is not None
            else ConnectionClosedError(f"connection {self.id} is closed")
        )
        for event_attr in ("_idle_event", "_connect_event"):
            event = getattr(self, event_attr)
            if event is not None:
                event.cancel()
                setattr(self, event_attr, None)
        if error is not None:
            obs_metrics.inc("transport.http.conn_aborted")
        pending = list(self._pending.values())
        self._pending.clear()
        self._backlog.clear()
        self._reorder.clear()
        self._unordered.clear()
        self._rsp_streams.clear()
        if self._srv_port is not None:
            try:
                self.node.send(
                    self.target_node, self._srv_port, "", kind="close", conn=self.id
                )
            except (NetworkError, NodeDownError):
                pass
        if self.node.has_port(self.local_port):
            self.node.close_port(self.local_port)
        for entry in pending:
            self._finish_entry(entry, None, self._close_error)
        if self._on_closed is not None:
            self._on_closed(self)

    def __repr__(self) -> str:
        return (
            f"<HttpConnection {self.id} -> {self.target_node}:{self.port} "
            f"{self.state} in_flight={self.in_flight} sent={self.requests_sent}>"
        )


class ConnectionPool:
    """Bounded per-client pool of :class:`HttpConnection`\\ s.

    Keyed by ``(target node, port)``.  ``lease`` reuses an open
    connection when one can take another request, preferring a free one
    (no requests in flight); otherwise it opens a new connection,
    LRU-evicting a free one first when the pool is at
    ``config.max_connections``.
    """

    def __init__(self, node: Node, config: Optional[PoolConfig] = None):
        self.node = node
        self.config = config if config is not None else PoolConfig()
        self._conns: dict[tuple[str, int], list[HttpConnection]] = {}
        self._health = None
        self.opened = 0
        self.reused = 0
        self.evicted = 0
        self.evicted_dead = 0

    # ------------------------------------------------------------------
    def lease(self, target_node: str, port: int) -> HttpConnection:
        """A connection to ``target_node:port``, reused when possible.

        Preference order: a *free* reusable connection (nothing in
        flight); a busy pipelined one; a fresh connection while under
        ``max_connections`` (LRU-evicting a free one elsewhere first);
        and at the bound without pipelining, the least-loaded reusable
        connection — requests then serialise on its local backlog,
        which is HTTP/1.1-without-pipelining semantics.
        """
        key = (target_node, port)
        bucket = self._conns.setdefault(key, [])
        bucket[:] = [c for c in bucket if c.state != CLOSED]
        reusable = [c for c in bucket if c.reusable]
        candidate = next((c for c in reusable if c.in_flight == 0), None)
        if candidate is None and self.config.pipeline and reusable:
            candidate = min(reusable, key=lambda c: c.in_flight)
        if candidate is None and self.size >= self.config.max_connections:
            self._evict_lru_free()
            if self.size >= self.config.max_connections and reusable:
                # nothing evictable and no room: serialise on the
                # least-loaded connection rather than overshoot
                candidate = min(reusable, key=lambda c: c.in_flight)
        if candidate is not None:
            self.reused += 1
            obs_metrics.inc("transport.http.conn_reused")
            return candidate
        conn = HttpConnection(
            self.node, target_node, port, self.config, on_closed=self._forget
        )
        self.opened += 1
        if conn.state != CLOSED:  # opening can fail synchronously
            bucket.append(conn)
        self._update_gauge()
        return conn

    @property
    def size(self) -> int:
        return sum(len(bucket) for bucket in self._conns.values())

    def connections(self) -> list[HttpConnection]:
        return [conn for bucket in self._conns.values() for conn in bucket]

    def stats(self) -> dict[str, int]:
        return {
            "open": self.size,
            "opened": self.opened,
            "reused": self.reused,
            "evicted": self.evicted,
            "evicted_dead": self.evicted_dead,
        }

    # ------------------------------------------------------------------
    def attach_health(self, monitor) -> None:  # type: ignore[no-untyped-def]
        """Evict pooled connections when *monitor* declares their
        endpoint dead — a new lease then starts from a fresh handshake
        instead of queueing on a corpse."""
        self._health = monitor
        monitor.add_verdict_listener(self._on_verdict)

    def _on_verdict(self, address: str, verdict: str) -> None:
        if verdict != "dead":  # repro.supervision.health.DEAD
            return
        from repro.transport.uri import Uri, UriError

        try:
            uri = Uri.parse(address)
        except UriError:
            return
        if uri.scheme == "http":
            port = uri.port if uri.port is not None else DEFAULT_HTTP_PORT
        elif uri.scheme == "httpg":
            from repro.transport.httpg import DEFAULT_HTTPG_PORT

            port = uri.port if uri.port is not None else DEFAULT_HTTPG_PORT
        else:
            return
        for conn in list(self._conns.get((uri.host, port), ())):
            if conn.state != CLOSED:
                self.evicted_dead += 1
                obs_metrics.inc("transport.http.conn_evicted_dead")
                conn.close()

    # ------------------------------------------------------------------
    def _evict_lru_free(self) -> None:
        free = [c for c in self.connections() if c.state != CLOSED and c.in_flight == 0]
        if not free:
            return  # everything is busy: allow a temporary overshoot
        victim = min(free, key=lambda c: c.last_used)
        self.evicted += 1
        obs_metrics.inc("transport.http.conn_evicted")
        victim.close()

    def _forget(self, conn: HttpConnection) -> None:
        bucket = self._conns.get((conn.target_node, conn.port))
        if bucket is not None and conn in bucket:
            bucket.remove(conn)
        self._update_gauge()

    def _update_gauge(self) -> None:
        obs_metrics.set_gauge("transport.http.pool_size", self.size)

    def __repr__(self) -> str:
        return f"<ConnectionPool open={self.size} opened={self.opened} reused={self.reused}>"


class ServerConnection:
    """The provider half of one persistent connection.

    Owns a dedicated port, restores request order with a reorder buffer
    keyed on the client's sequence numbers, and gates each request
    through a per-connection
    :class:`~repro.supervision.admission.AdmissionController` leaky
    bucket — the bounded request queue.  Overflow answers ``503`` with
    a ``Retry-After`` hint *before* any parse/dispatch work, so a
    saturated connection stays cheap to refuse.
    """

    def __init__(
        self, server: HttpServer, conn_id: str, peer: str, client_port: str
    ):
        self.server = server
        self.node = server.node
        self.kernel = server.node.network.kernel
        self.id = conn_id
        self.peer = peer
        self.client_port = client_port
        self.srv_port = f"http-srv:{server.port}:{conn_id}"
        capacity = server.max_pending_per_connection
        if capacity is not None:
            from repro.supervision.admission import AdmissionController

            self.admission = AdmissionController(
                capacity=capacity,
                drain_rate=server.conn_drain_rate,
                clock=lambda: self.kernel.now,
            )
        else:
            self.admission = None
        self._next_seq = 0
        #: seq -> raw payload, or a ``(None, retry_after)`` marker for a
        #: request the node's worker pool shed before delivery (E13)
        self._held: dict[int, object] = {}
        #: seq -> (assembler, receiver) for in-progress chunked uploads
        self._streams: dict[int, tuple] = {}
        #: seqs handled out-of-band (chunk-streamed) — in-order draining
        #: skips them so they never stall later ordered requests
        self._oob: set[int] = set()
        #: seq -> _StreamSender for chunk-streamed responses
        self._rsp_senders: dict[int, _StreamSender] = {}
        self._idle_event = None
        self.requests_handled = 0
        self.busy_answered = 0
        self.closed = False
        self.node.open_port(self.srv_port, self._on_frame)
        self.node.set_overflow_handler(self.srv_port, self._on_overflow)
        self._arm_idle()

    # ------------------------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        kind = frame.meta.get("kind")
        if kind == "close":
            self.close(notify=False)
            return
        if kind == "chunk":
            self._on_chunk(frame)
            self._arm_idle()
            return
        if kind == "credit":
            sender = self._rsp_senders.get(frame.meta.get("seq"))
            if sender is not None:
                sender.on_credit(frame.meta.get("idx"))
                if sender.finished:
                    self._rsp_senders.pop(frame.meta.get("seq"), None)
            return
        if kind != "request":
            return
        seq = frame.meta.get("seq")
        if (
            not isinstance(seq, int)
            or seq < self._next_seq
            or seq in self._held
            or seq in self._oob
        ):
            return  # duplicate or garbage
        self._held[seq] = frame.payload
        self._drain_in_order()
        self._arm_idle()

    def _on_chunk(self, frame: Frame) -> None:
        """One chunk of a streamed request upload.  The seq is handled
        out-of-band: it dispatches when its last chunk lands, and the
        in-order drain skips over it meanwhile."""
        seq = frame.meta.get("seq")
        if not isinstance(seq, int):
            return
        stream = self._streams.get(seq)
        if stream is None:
            if seq < self._next_seq or seq in self._oob:
                return  # duplicate chunk of a finished stream
            assembler = _WireAssembler()
            receiver = _StreamReceiver(
                assembler.write,
                lambda idx, seq=seq: self._send_credit(seq, idx),
            )
            stream = (assembler, receiver)
            self._streams[seq] = stream
            self._oob.add(seq)
            self._drain_in_order()  # later ordered requests advance past us
        assembler, receiver = stream
        try:
            receiver.feed(frame.meta.get("idx"), frame.meta.get("last", False), frame.payload)
        except TransportError:
            self.server.bad_requests += 1
            obs_metrics.inc("transport.http.bad_requests")
            self._streams.pop(seq, None)
            self._respond(seq, HttpResponse(400, "malformed chunked request"))
            return
        if not receiver.complete:
            return
        self._streams.pop(seq, None)
        self._dispatch_streamed(seq, assembler)

    def _send_credit(self, seq: int, idx: int) -> None:
        try:
            self.node.send(
                self.peer, self.client_port, b"",
                kind="credit", conn=self.id, seq=seq, idx=idx,
            )
        except (NetworkError, NodeDownError):
            pass  # sender stalls; the client's request timeout owns it

    def _admitted(self, seq: int) -> bool:
        """Gate request *seq* through the connection's bounded queue; a
        refused one is answered 503 + Retry-After here."""
        if self.admission is None:
            return True
        admitted, retry_after = self.admission.try_admit()
        obs_metrics.set_gauge("transport.http.queue_depth", self.admission.level)
        if not admitted:
            self.busy_answered += 1
            obs_metrics.inc("transport.http.queue_overflow")
            self._respond(seq, _busy(f"connection {self.id}: request queue full", retry_after))
        return admitted

    def _dispatch_streamed(self, seq: int, assembler: _WireAssembler) -> None:
        if not self._admitted(seq):
            return
        self.requests_handled += 1
        try:
            request = assembler.finish_message(HttpRequest._from_parts)
        except TransportError as exc:
            self.server.bad_requests += 1
            obs_metrics.inc("transport.http.bad_requests")
            self._respond(seq, HttpResponse(400, str(exc)))
            return
        self._respond(seq, self.server._handle(request))

    def _on_overflow(self, frame: Frame, retry_after: float) -> None:
        """The worker pool shed a pipelined request.  It still occupies
        its slot in the sequence — answered 503 in order, so later
        requests on the connection are not stalled waiting for it."""
        if frame.meta.get("kind") != "request":
            return
        seq = frame.meta.get("seq")
        if not isinstance(seq, int) or seq < self._next_seq or seq in self._held:
            return
        self._held[seq] = (None, retry_after)
        self._drain_in_order()
        self._arm_idle()

    def _drain_in_order(self) -> None:
        while True:
            if self._next_seq in self._oob:
                # chunk-streamed seq: dispatched out-of-band on its own
                # completion; ordered requests behind it keep flowing
                self._oob.discard(self._next_seq)
                self._next_seq += 1
                continue
            if self._next_seq not in self._held:
                break
            seq_now = self._next_seq
            self._next_seq += 1
            entry = self._held.pop(seq_now)
            if isinstance(entry, tuple):  # shed by the worker pool
                self.busy_answered += 1
                obs_metrics.inc("transport.http.worker_overflow")
                self._respond(
                    seq_now, _busy(f"connection {self.id}: worker pool saturated", entry[1])
                )
            else:
                self._process(seq_now, entry)

    def _process(self, seq: int, payload) -> None:
        if self._admitted(seq):
            self.requests_handled += 1
            self._respond(seq, self.server._response_for(payload))

    def _respond(self, seq: int, response: HttpResponse) -> None:
        whole, wire = _render(response, self.server.chunk_threshold)
        if not whole:
            sender = _StreamSender(
                self.node,
                self.peer,
                self.client_port,
                {"conn": self.id, "seq": seq},
                wire,
                self.server.chunk_size,
                self.server.stream_window,
                on_error=self._on_stream_error,
            )
            self._rsp_senders[seq] = sender
            sender.start()
            if sender.finished:
                self._rsp_senders.pop(seq, None)
            return
        try:
            self.node.send(
                self.peer,
                self.client_port,
                wire,
                kind="response",
                conn=self.id,
                seq=seq,
            )
        except (NetworkError, NodeDownError):
            self.server.dropped_replies += 1
            obs_metrics.inc("transport.http.dropped_replies")

    def _on_stream_error(self, exc: Exception) -> None:
        self.server.dropped_replies += 1
        obs_metrics.inc("transport.http.dropped_replies")

    # ------------------------------------------------------------------
    def _arm_idle(self) -> None:
        if self._idle_event is not None:
            self._idle_event.cancel()
            self._idle_event = None
        if self.server.conn_idle_timeout is not None:
            self._idle_event = self.kernel.schedule(
                self.server.conn_idle_timeout, self._on_idle
            )

    def _on_idle(self) -> None:
        self.close(notify=True)

    def close(self, notify: bool = True) -> None:
        if self.closed:
            return
        self.closed = True
        self._streams.clear()
        self._rsp_senders.clear()
        if self._idle_event is not None:
            self._idle_event.cancel()
            self._idle_event = None
        if self.node.has_port(self.srv_port):
            self.node.close_port(self.srv_port)
        self.node.set_overflow_handler(self.srv_port, None)
        if notify and self.node.up:
            try:
                self.node.send(
                    self.peer, self.client_port, "", kind="close", conn=self.id
                )
            except (NetworkError, NodeDownError):
                pass
        self.server._forget_connection(self)

    def __repr__(self) -> str:
        return (
            f"<ServerConnection {self.id} peer={self.peer} "
            f"handled={self.requests_handled} busy={self.busy_answered}>"
        )
