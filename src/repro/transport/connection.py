"""Connection-oriented HTTP: the one client path, its pool, pipelining.

The paper faults HTTP for "maintaining an open connection for return
messages" (§III).  Here that connection is explicit and reused: every
:class:`~repro.transport.http.HttpClient` request rides a persistent
connection leased from a :class:`ConnectionPool` (E11, E28(b));
``max_requests_per_connection=1`` is the per-request connection.

* :class:`HttpConnection` — the client half (``connecting → active →
  idle → closed``).  Until the server's ACCEPT names the connection
  port, requests ride CONNECT frames to the listening port; after it,
  the connection port, numbered in sequence.  Either way a request
  costs two frame hops.  Several may be in flight (*pipelining*); both
  ends reorder on the sequence number, so callers see responses in
  request order even when the wire reorders frames.
* :class:`ConnectionPool` — a bounded per-node pool with LRU reuse,
  request-cap recycling, and health-aware eviction: a ``dead`` verdict
  from a :class:`~repro.supervision.health.HealthMonitor` closes every
  pooled connection to that endpoint.
* :class:`ServerConnection` — the provider half: a per-connection port
  and, when configured, a bounded request queue (the
  :class:`~repro.supervision.admission.AdmissionController` leaky
  bucket) whose overflow is answered ``503`` + ``Retry-After`` before
  any dispatch work, surfaced as
  :class:`~repro.transport.base.TransportBusyError`.

Idle is a deadline, not a timer: each end notes when a connection went
quiet and checks ``+ idle_timeout`` only when it matters —
:meth:`ConnectionPool.lease` closes an expired candidate (counting
``transport.http.conn_idle_closed``), the server sweeps expired
connections when it accepts one.  A steady request schedules no kernel
event but its own timeout.  Every connection frame carries a ``conn``
meta key, which the simnet trace log copies into its records.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.observability import metrics as obs_metrics
from repro.simnet.network import Frame, NetworkError, Node, NodeDownError
from repro.transport.base import TransportError, TransportTimeoutError
from repro.transport.http import (
    DEFAULT_HTTP_PORT,
    DEFAULT_HTTPG_PORT,
    BodyStream,
    HttpRequest,
    HttpResponse,
    HttpServer,
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


def _busy(message: str, retry_after: float) -> HttpResponse:
    """The 503 a saturated connection answers with."""
    return HttpResponse(503, message, {"Retry-After": f"{retry_after:.6f}"})


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
    worth: a chunk the sender's credits could not have covered (at or
    past ``next index + window``), or one past the announced last
    index, raises :class:`TransportError`."""

    def __init__(
        self, sink: Callable[[bytes], None], send_credit: Callable[[int], None], window: int
    ):
        self._sink = sink
        self._send_credit = send_credit
        self._window = max(1, window)
        self._next_idx = 0
        self._held: dict[int, bytes] = {}
        self._last_idx: Optional[int] = None
        self.received_bytes = 0
        self.complete = False

    def feed(self, idx, last: bool, payload) -> None:
        if self.complete or not isinstance(idx, int):
            return
        if idx >= self._next_idx + self._window or (
            self._last_idx is not None and idx > self._last_idx
        ):
            raise TransportError(f"chunk {idx} outside the receive window")
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


def _finish(entry: _Exchange, response: Optional[HttpResponse], error: Optional[Exception]) -> None:
    """Fire *entry*'s callback once, counting a failed exchange."""
    if entry.done:
        return
    entry.done = True
    if entry.timer is not None:
        entry.timer.cancel()
        entry.timer = None
    if error is not None:
        obs_metrics.inc(
            "transport.http.timeouts"
            if isinstance(error, TransportTimeoutError)
            else "transport.http.errors"
        )
    entry.callback(response, error)


class HttpConnection:
    """One persistent client→server HTTP connection.

    Until the server's ACCEPT names the connection port, each request
    rides a CONNECT frame to the listening port, which opens the
    connection (or reaches the one already open): a cold request costs
    the two hops a warm one does, and leaves at once.  All responses are
    delivered to callers in request order regardless of frame arrival
    order.
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
        #: when the connection last had nothing in flight; its idle
        #: deadline is ``idle_since + config.idle_timeout``
        self.idle_since = self.kernel.now
        self.requests_sent = 0
        #: response frames that arrived ahead of an earlier sequence
        self.out_of_order = 0
        self._on_closed = on_closed
        self._srv_port: Optional[str] = None
        #: seq -> in-flight entry, insertion (= request) order
        self._pending: dict[int, _Exchange] = {}
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
        self._connect_event = None
        self._close_error: Optional[Exception] = None

        obs_metrics.inc("transport.http.conn_opened")
        self.node.open_port(self.local_port, self._on_frame)

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return len(self._pending)

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
        seq = self._next_seq
        entry = _Exchange(seq, request, callback, timeout)
        if self.state is CLOSED:
            _finish(entry, None, self._close_error)
            return
        self._next_seq = seq + 1
        self.requests_sent += 1
        self._pending[seq] = entry
        if timeout is not None:
            entry.timer = self.kernel.schedule(timeout, self._on_request_timeout, entry)
        config = self.config
        if not (config.pipeline or self._unanswered == 0):
            self._backlog.append(entry)
        elif (self.state is CONNECTING or config.chunk_threshold is not None
              or isinstance(request.body, BodyStream)):
            self._transmit(entry)
        else:  # the steady request: one frame on the open connection
            self._unanswered += 1
            self.state = ACTIVE
            try:
                self.node.send(
                    self.target_node, self._srv_port, request.to_wire(),
                    kind="request", conn=self.id, seq=seq,
                )
            except (NetworkError, NodeDownError) as exc:
                self._teardown(exc)

    def close(self) -> None:
        """Close the connection; pending requests (if any) fail with
        :class:`ConnectionClosedError`."""
        self._teardown(None)

    # ------------------------------------------------------------------
    def _transmit(self, entry: _Exchange) -> None:
        """Render the request once and put it on the wire: one frame,
        or — a :class:`BodyStream` body, or a wire past the chunk
        threshold — a stream of chunk frames."""
        if self.state is IDLE:
            self.state = ACTIVE
        request = entry.request
        if isinstance(request.body, BodyStream):
            chunks = request.iter_wire()
        else:
            wire = request.to_wire()
            threshold = self.config.chunk_threshold
            if threshold is None or len(wire) <= threshold:
                self._unanswered += 1
                if self._srv_port is None:
                    self._connect(wire, entry.seq)
                    return
                try:
                    self.node.send(
                        self.target_node, self._srv_port, wire,
                        kind="request", conn=self.id, seq=entry.seq,
                    )
                except (NetworkError, NodeDownError) as exc:
                    self._teardown(exc)
                return
            chunks = (wire,)
        if self._srv_port is None:  # chunk frames need the connection port
            self._backlog.append(entry)
            self._connect(b"", None)
            return
        self._unanswered += 1
        # streamed exchanges opt out of strict ordering: the server
        # dispatches them on completion, so pipelined small calls
        # behind this one are never head-of-line blocked
        self._unordered.add(entry.seq)
        sender = _StreamSender(
            self.node,
            self.target_node,
            self._srv_port,
            {"conn": self.id, "seq": entry.seq},
            chunks,
            self.config.chunk_size,
            self.config.stream_window,
            on_error=self._teardown,
        )
        entry.up_sender = sender
        sender._pump()

    def _connect(self, wire: bytes, seq: Optional[int]) -> None:
        """Send a CONNECT to the listening port, carrying request *seq*
        (none when *wire* is empty); the first one arms the connect
        timeout."""
        if self._connect_event is None and self.config.connect_timeout is not None:
            self._connect_event = self.kernel.schedule(
                self.config.connect_timeout, self._on_connect_timeout
            )
        try:
            self.node.send(
                self.target_node, f"http:{self.port}", wire, kind="connect",
                conn=self.id, client_port=self.local_port, seq=seq,
            )
        except (NetworkError, NodeDownError) as exc:
            self._teardown(exc)

    def _settle(self) -> None:
        """After an answer or the handshake: flush what queued, then go
        idle (or retire, when the request budget is spent)."""
        while (
            self._backlog
            and self.state is ACTIVE
            and (self.config.pipeline or self._unanswered == 0)
        ):
            entry = self._backlog.popleft()
            if not entry.done:
                self._transmit(entry)
        if self._pending or self.state is not ACTIVE:
            return
        limit = self.config.max_requests_per_connection
        if limit is not None and self.requests_sent >= limit:
            self.close()
            return
        self.state = IDLE
        self.idle_since = self.kernel.now

    # -- frame handling -------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        meta = frame.meta
        seq = meta.get("seq")
        if (
            meta.get("kind") != "response"
            or seq != self._next_delivery
            or self._reorder
            or self._unordered
        ):
            self._on_other_frame(frame)
            return
        # the steady case: the next response in order, nothing held
        entry = self._pending.get(seq)
        if entry is None:
            return  # stale or duplicate frame
        try:
            response = HttpResponse.from_wire(frame.payload)
        except TransportError as exc:
            self._teardown(exc)
            return
        del self._pending[seq]
        self._next_delivery = seq + 1
        self._unanswered -= 1
        entry.done = True
        if entry.timer is not None:
            entry.timer.cancel()
            entry.timer = None
        entry.callback(response, None)
        if self._backlog:
            self._settle()
        elif not self._pending and self.state is ACTIVE:  # _settle's tail
            limit = self.config.max_requests_per_connection
            if limit is not None and self.requests_sent >= limit:
                self.close()
            else:
                self.state = IDLE
                self.idle_since = self.kernel.now

    def _on_other_frame(self, frame: Frame) -> None:
        kind = frame.meta.get("kind")
        if kind == "response":
            seq = frame.meta.get("seq")
            entry = self._pending.get(seq) if isinstance(seq, int) else None
            if entry is None:
                return  # stale or duplicate frame
            try:
                response = HttpResponse.from_wire(frame.payload)
            except TransportError as exc:
                self._teardown(exc)
                return
            self._complete(entry, response)
        elif kind == "accept":
            if self.state is not CONNECTING:
                return
            if self._connect_event is not None:
                self._connect_event.cancel()
                self._connect_event = None
            self._srv_port = frame.meta.get("srv_port")
            self.state = ACTIVE
            self._settle()
        elif kind == "chunk":
            self._on_response_chunk(frame)
        elif kind == "credit":
            seq = frame.meta.get("seq")
            entry = self._pending.get(seq) if isinstance(seq, int) else None
            if entry is not None and entry.up_sender is not None:
                entry.up_sender.on_credit(frame.meta.get("idx"))
        elif kind == "close":
            self._srv_port = None  # the server is gone; no close echo needed
            self._teardown(
                ConnectionClosedError(f"connection {self.id} closed by server")
                if self._pending
                else None
            )

    def _on_response_chunk(self, frame: Frame) -> None:
        """A chunk of a streamed response: feed the per-seq assembler,
        deliver (out of order) when the last chunk lands."""
        seq = frame.meta.get("seq")
        entry = self._pending.get(seq) if isinstance(seq, int) else None
        if entry is None or seq in self._reorder:
            return
        stream = self._rsp_streams.get(seq)
        if stream is None:
            assembler = _WireAssembler()
            receiver = _StreamReceiver(
                assembler.write,
                lambda idx, seq=seq: self._send_credit(seq, idx),
                self.config.stream_window,
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
            if not receiver.complete:
                return
            self._rsp_streams.pop(seq, None)
            response = assembler.finish_message(HttpResponse._from_parts)
        except TransportError as exc:
            self._teardown(exc)
            return
        self._complete(entry, response)

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

    def _complete(self, entry: _Exchange, response: HttpResponse) -> None:
        seq = entry.seq
        if seq == self._next_delivery:
            self._next_delivery = seq + 1
            self._unordered.discard(seq)
        elif seq > self._next_delivery and seq not in self._unordered:
            # arrived ahead of an earlier response: hold it so callers
            # still see responses in request order
            self.out_of_order += 1
            obs_metrics.inc("transport.http.ooo_frames")
            self._reorder[seq] = response
            return
        # otherwise a streamed exchange, delivered on completion out of
        # band; a seq ahead of delivery stays marked so draining skips it
        del self._pending[seq]
        self._unanswered -= 1
        _finish(entry, response, None)
        self._drain()
        if self.state is not CLOSED:  # a callback may have closed us
            self._settle()

    def _drain(self) -> None:
        """Advance ordered delivery: release held responses in order,
        skipping over seqs that opted out of ordering."""
        while True:
            seq = self._next_delivery
            if seq in self._reorder:
                self._next_delivery = seq + 1
                response = self._reorder.pop(seq)
                entry = self._pending.pop(seq, None)
                if entry is not None:
                    self._unanswered -= 1
                    _finish(entry, response, None)
            elif seq in self._unordered:
                self._unordered.discard(seq)
                self._next_delivery = seq + 1
            else:
                break

    # -- timers ---------------------------------------------------------
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
        self._teardown(
            ConnectionClosedError(
                f"connection {self.id} aborted: request {entry.seq} timed out"
            ),
            first=(
                entry,
                TransportTimeoutError(
                    f"no response from {self.target_node}:{self.port}"
                    f"{entry.request.path} within {entry.timeout}s"
                ),
            ),
        )

    # -- teardown -------------------------------------------------------
    def _teardown(self, error: Optional[Exception], first: Optional[tuple] = None) -> None:
        """Close for good, and only then fail what was pending — *first*
        (an entry and its own error) before the rest — so no callback
        sees a half-closed connection."""
        if self.state is CLOSED:
            return
        self.state = CLOSED
        self._close_error = (
            error
            if error is not None
            else ConnectionClosedError(f"connection {self.id} is closed")
        )
        if self._connect_event is not None:
            self._connect_event.cancel()
            self._connect_event = None
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
        self.node.close_port(self.local_port)
        if self._on_closed is not None:
            self._on_closed(self)
        if first is not None:
            _finish(first[0], None, first[1])
        for entry in pending:
            _finish(entry, None, self._close_error)

    def __repr__(self) -> str:
        return (
            f"<HttpConnection {self.id} -> {self.target_node}:{self.port} "
            f"{self.state} in_flight={self.in_flight} sent={self.requests_sent}>"
        )


class ConnectionPool:
    """Bounded per-node pool of :class:`HttpConnection`\\ s.

    Keyed by ``(target node, port)``.  ``lease`` reuses an open
    connection when one can take another request, preferring a free one
    (no requests in flight); otherwise it opens a new connection,
    LRU-evicting a free one first when the pool is at
    ``config.max_connections``.  Assigning :attr:`config` reconfigures
    the live connections too.
    """

    def __init__(self, node: Node, config: Optional[PoolConfig] = None):
        self.node = node
        self._kernel = node.network.kernel
        self._config = config if config is not None else PoolConfig()
        self._conns: dict[tuple[str, int], list[HttpConnection]] = {}
        #: open connections across all endpoints
        self.size = 0
        self.opened = 0
        self.reused = 0
        self.evicted = 0
        self.evicted_dead = 0

    @property
    def config(self) -> PoolConfig:
        return self._config

    @config.setter
    def config(self, config: PoolConfig) -> None:
        self._config = config
        for conn in self.connections():
            conn.config = config

    # ------------------------------------------------------------------
    def lease(self, target_node: str, port: int) -> HttpConnection:
        """A connection to ``target_node:port``, reused when possible.

        Preference order: a *free* reusable connection (nothing in
        flight); a busy pipelined one; a fresh connection while under
        ``max_connections`` (LRU-evicting a free one elsewhere first);
        and at the bound without pipelining, the least-loaded reusable
        connection — requests then serialise on its local backlog,
        which is HTTP/1.1-without-pipelining semantics.  A free
        connection past its idle deadline is closed and passed over.
        """
        key = (target_node, port)
        bucket = self._conns.get(key)
        least_loaded = None
        if bucket:
            # one pass, no lists: the first free connection, else the
            # least-loaded busy one
            limit = self._config.max_requests_per_connection
            idle_timeout = self._config.idle_timeout
            for conn in bucket:
                if limit is not None and conn.requests_sent >= limit:
                    continue
                if conn._pending:
                    if least_loaded is None or len(conn._pending) < len(least_loaded._pending):
                        least_loaded = conn
                elif idle_timeout is not None and conn.idle_since + idle_timeout <= self._kernel.now:
                    obs_metrics.inc("transport.http.conn_idle_closed")
                    conn.close()  # past its idle deadline (this edits the bucket)
                    return self.lease(target_node, port)
                else:
                    least_loaded = conn
                    break
            else:
                if not self._config.pipeline:
                    least_loaded = self._room_or(least_loaded)
            if least_loaded is not None:
                self.reused += 1
                obs_metrics.inc("transport.http.conn_reused")
                return least_loaded
        if self.size >= self._config.max_connections:
            self._evict_lru_free()
        conn = HttpConnection(self.node, target_node, port, self._config, on_closed=self._forget)
        self.opened += 1
        self._conns.setdefault(key, []).append(conn)
        self.size += 1
        obs_metrics.set_gauge("transport.http.pool_size", self.size)
        return conn

    def _room_or(self, busy: Optional[HttpConnection]) -> Optional[HttpConnection]:
        """Without pipelining and no free connection: None when a new
        one fits (LRU-evicting a free one elsewhere at the bound), else
        *busy* to serialise on rather than overshoot."""
        if self.size >= self._config.max_connections:
            self._evict_lru_free()
            if self.size >= self._config.max_connections:
                return busy
        return None

    def connections(self) -> list[HttpConnection]:
        return [conn for bucket in self._conns.values() for conn in bucket]

    # ------------------------------------------------------------------
    def attach_health(self, monitor) -> None:  # type: ignore[no-untyped-def]
        """Evict pooled connections when *monitor* declares their
        endpoint dead — a new lease then starts from a fresh handshake
        instead of queueing on a corpse."""
        monitor.add_verdict_listener(self._on_verdict)

    def _on_verdict(self, address: str, verdict: str) -> None:
        if verdict != "dead":  # repro.supervision.health.DEAD
            return
        from repro.transport.uri import UriError, parse_uri_cached

        try:
            uri = parse_uri_cached(address)
        except UriError:
            return
        defaults = {"http": DEFAULT_HTTP_PORT, "httpg": DEFAULT_HTTPG_PORT}
        port = uri.port if uri.port is not None else defaults.get(uri.scheme)
        for conn in list(self._conns.get((uri.host, port), ())):
            self.evicted_dead += 1
            obs_metrics.inc("transport.http.conn_evicted_dead")
            conn.close()

    # ------------------------------------------------------------------
    def _evict_lru_free(self) -> None:
        free = [c for c in self.connections() if not c._pending]
        if not free:
            return  # everything is busy: allow a temporary overshoot
        victim = min(free, key=lambda c: c.idle_since)
        self.evicted += 1
        obs_metrics.inc("transport.http.conn_evicted")
        victim.close()

    def _forget(self, conn: HttpConnection) -> None:
        bucket = self._conns.get((conn.target_node, conn.port))
        if bucket is not None and conn in bucket:
            bucket.remove(conn)
            self.size -= 1
            obs_metrics.set_gauge("transport.http.pool_size", self.size)

    def __repr__(self) -> str:
        return f"<ConnectionPool open={self.size} opened={self.opened} reused={self.reused}>"


class ServerConnection:
    """The provider half of one persistent connection.

    Owns a dedicated port, restores request order with a reorder buffer
    keyed on the client's sequence numbers, and — when the server sets
    ``max_pending_per_connection`` — gates each request through a
    per-connection
    :class:`~repro.supervision.admission.AdmissionController` leaky
    bucket, the bounded request queue.  Overflow answers ``503`` with
    a ``Retry-After`` hint *before* any parse/dispatch work, so a
    saturated connection stays cheap to refuse.  ``last_seen`` is when
    the client last sent anything; the server sweeps connections quiet
    for ``conn_idle_timeout``.
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
        self.reset_admission()
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
        self.last_seen = self.kernel.now
        self.requests_handled = 0
        self.busy_answered = 0
        self.closed = False
        self.node.open_port(self.srv_port, self._on_frame)
        self.node.set_overflow_handler(self.srv_port, self._on_frame)

    def reset_admission(self) -> None:
        """(Re)build the request queue from the server's current knobs."""
        capacity = self.server.max_pending_per_connection
        self.admission = None
        if capacity is not None:
            from repro.supervision.admission import AdmissionController

            self.admission = AdmissionController(
                capacity=capacity,
                drain_rate=self.server.conn_drain_rate,
                clock=lambda: self.kernel.now,
            )

    def idle_expired(self, now: float) -> bool:
        timeout = self.server.conn_idle_timeout
        return timeout is not None and self.last_seen + timeout <= now

    # ------------------------------------------------------------------
    def _on_frame(self, frame: Frame, retry_after: Optional[float] = None) -> None:
        """Every frame of the connection — and, with *retry_after*, one
        the node's worker pool shed: a shed request still occupies its
        slot in the sequence and is answered 503 in order, so later
        requests are not stalled waiting for it.  The listening port
        hands over the request a CONNECT carries (kind ``connect``)."""
        self.last_seen = self.kernel.now
        meta = frame.meta
        seq = meta.get("seq")
        if (
            retry_after is None
            and meta.get("kind") == "request"
            and seq == self._next_seq
            and not self._held
            and not self._oob
        ):
            # the steady case: the next request in order, nothing held
            # (inlined _process)
            self._next_seq = seq + 1
            if self.admission is None or self._admitted(seq):
                self.requests_handled += 1
                self._respond(seq, self.server._response_for(frame.payload))
            return
        kind = meta.get("kind")
        if kind in ("request", "connect"):
            if (
                isinstance(seq, int)
                and seq >= self._next_seq
                and seq not in self._held
                and seq not in self._oob
            ):  # not a duplicate, not garbage
                self._held[seq] = frame.payload if retry_after is None else (None, retry_after)
                self._drain_in_order()
        elif retry_after is not None:
            return  # a shed control frame is simply lost
        elif kind == "close":
            self.close(notify=False)
        elif kind == "chunk":
            self._on_chunk(frame)
        elif kind == "credit":
            sender = self._rsp_senders.get(seq)
            if sender is not None:
                sender.on_credit(meta.get("idx"))
                if sender.finished:
                    self._rsp_senders.pop(seq, None)

    def _on_chunk(self, frame: Frame) -> None:
        """One chunk of a streamed request upload.  The seq is handled
        out-of-band: it dispatches when its last chunk lands, and the
        in-order drain skips over it meanwhile."""
        seq = frame.meta.get("seq")
        if not isinstance(seq, int):
            return
        stream = self._streams.get(seq)
        if stream is None:
            if seq < self._next_seq or seq in self._oob or seq in self._held:
                return  # duplicate chunk of a finished stream
            assembler = _WireAssembler()
            receiver = _StreamReceiver(
                assembler.write,
                lambda idx, seq=seq: self._send_credit(seq, idx),
                self.server.stream_window,
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
        # the queue's depth is read when wanted: ``admission.level``
        admitted, retry_after = self.admission.try_admit()
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
        """Answer *seq* as one frame, or as chunk frames (see
        :meth:`HttpConnection._transmit`)."""
        if isinstance(response.body, BodyStream):
            chunks = response.iter_wire()
        else:
            wire = response.to_wire()
            threshold = self.server.chunk_threshold
            if threshold is None or len(wire) <= threshold:
                try:
                    self.node.send(
                        self.peer, self.client_port, wire,
                        kind="response", conn=self.id, seq=seq,
                    )
                except (NetworkError, NodeDownError):
                    self._on_stream_error(None)
                return
            chunks = (wire,)
        sender = _StreamSender(
            self.node,
            self.peer,
            self.client_port,
            {"conn": self.id, "seq": seq},
            chunks,
            self.server.chunk_size,
            self.server.stream_window,
            on_error=self._on_stream_error,
        )
        self._rsp_senders[seq] = sender
        sender._pump()
        if sender.finished:
            self._rsp_senders.pop(seq, None)

    def _on_stream_error(self, exc: Optional[Exception]) -> None:
        self.server.dropped_replies += 1
        obs_metrics.inc("transport.http.dropped_replies")

    # ------------------------------------------------------------------
    def close(self, notify: bool = True) -> None:
        if self.closed:
            return
        self.closed = True
        self._streams.clear()
        self._rsp_senders.clear()
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
