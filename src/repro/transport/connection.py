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
  costs two frame hops.  Several may be in flight (*pipelining*).
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

Both halves are ends of one kind (:class:`_End`): each sends a message
through one decision (one frame, or a stream of chunk frames), reads a
streamed message through one chunk codec, and passes what arrives on
to its role through one in-order release keyed on the sequence
number — so callers see responses, and handlers see requests, in
request order even when the wire reorders frames.

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
)

# connection lifecycle states
CONNECTING = "connecting"
ACTIVE = "active"
IDLE = "idle"
CLOSED = "closed"


#: abort a connection whose CONNECT/ACCEPT handshake takes longer
CONNECT_TIMEOUT = 5.0


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
    #: E16: send messages whose wire form exceeds this many bytes as a
    #: sequence of chunk frames instead of one giant frame (None
    #: disables request chunking; BodyStream bodies always stream)
    chunk_threshold: Optional[int] = None
    #: byte size of each chunk frame on the streamed path
    chunk_size: int = 64 * 1024
    #: flow-control window: chunks in flight before awaiting credit
    stream_window: int = 8

    def __post_init__(self) -> None:
        # a zero chunk size would stream empty frames until the call
        # timed out, a zero window would stream nothing; a pool of no
        # connection still opens one, and a cap of no request acts as 1
        for knob in ("max_connections", "max_requests_per_connection", "chunk_size",
                     "stream_window"):
            value = getattr(self, knob)
            if value is not None and value < 1:
                raise ValueError(f"{knob} must be at least 1, not {value}")
        if self.idle_timeout is not None and self.idle_timeout < 0:
            raise ValueError(f"idle_timeout must not be negative, not {self.idle_timeout}")


ResponseHandler = Callable[[Optional[HttpResponse], Optional[Exception]], None]


def _busy(message: str, retry_after: float) -> HttpResponse:
    """The 503 a saturated connection answers with."""
    return HttpResponse(503, message, {"Retry-After": f"{retry_after:.6f}"})


# ----------------------------------------------------------------------
# E16 chunked transfer framing: one chunk codec for both ends.
#
# A message bigger than the chunk threshold (or one whose body is a
# BodyStream) rides the connection as ``kind="chunk"`` frames — each
# carrying ``seq`` (which exchange), ``idx`` (position), ``last`` —
# sent by a _Sender, and the receiving end's _Reader grants
# ``kind="credit"`` frames back as it takes them.  The credit window
# bounds bytes in flight to ``stream_window * chunk_size`` no matter how
# large the payload is, and a streamed exchange is stepped over by the
# in-order release, so a 64 MB envelope never head-of-line blocks
# pipelined small calls.  The knobs (``chunk_threshold``,
# ``chunk_size``, ``stream_window``) are a PoolConfig: a client's
# pool's, and a server's ``HttpServer.config``.
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


class _Sender:
    """The sending half: one message's wire as chunk frames from *end*,
    never more than ``stream_window`` past the peer's last credit."""

    __slots__ = ("end", "seq", "pieces", "ahead", "window", "idx", "acked")

    def __init__(self, end: "_End", seq: int, chunks, knobs) -> None:
        self.end = end
        self.seq = seq
        self.pieces = _rechunk(chunks, knobs.chunk_size)
        #: the chunk to send next; None once the last one left
        self.ahead: Optional[bytes] = next(self.pieces, None)
        self.window = knobs.stream_window
        self.idx = 0
        self.acked = -1
        obs_metrics.inc("transport.http.streams_started")

    def pump(self, credit: int = -1) -> None:
        """Send what the window allows — after a credit frame, through
        its index *credit*."""
        if credit > self.acked:
            self.acked = credit
        end = self.end
        while self.ahead is not None and self.idx - self.acked <= self.window:
            chunk = self.ahead
            self.ahead = next(self.pieces, None)
            try:
                end.node.send(
                    end.target_node, end._peer_port, chunk, kind="chunk",
                    idx=self.idx, last=self.ahead is None, conn=end.id, seq=self.seq,
                )
            except (NetworkError, NodeDownError) as exc:
                end._senders.pop(self.seq, None)
                end._send_failed(exc)
                return
            obs_metrics.inc("transport.http.chunks_sent")
            obs_metrics.inc("transport.http.bytes_streamed", len(chunk))
            self.idx += 1
        if self.ahead is None:
            end._senders.pop(self.seq, None)
            obs_metrics.inc("transport.http.streams_completed")


class _Reader:
    """The reading half: one streamed message's wire, rebuilt in index
    order whatever order its chunks arrive in.  Early chunks are held,
    but never more than a window's worth: a chunk the sender's credit
    could not have covered (at or past ``next + window``), or one past
    the announced last index, raises :class:`TransportError`."""

    __slots__ = ("window", "next", "last", "early", "wire")

    def __init__(self, window: int) -> None:
        self.window = window
        #: the index the wire continues with
        self.next = 0
        self.last: Optional[int] = None
        self.early: dict[int, bytes] = {}
        self.wire = bytearray()

    def feed(self, idx: int, last: bool, payload) -> Optional[bytes]:
        """Take chunk *idx* (a duplicate changes nothing); the whole
        wire once the last chunk is taken, else None."""
        if idx >= self.next + self.window or (self.last is not None and idx > self.last):
            raise TransportError(f"chunk {idx} outside the receive window")
        if idx >= self.next and idx not in self.early:
            self.early[idx] = payload
            if last:
                self.last = idx
        while self.next in self.early:
            self.wire += self.early.pop(self.next)
            obs_metrics.inc("transport.http.chunks_received")
            self.next += 1
        if self.last is None or self.next <= self.last:
            return None
        # hand the wire over without holding a second copy of it
        wire, self.wire = bytes(self.wire), bytearray()
        return wire


class _End:
    """What both ends of a connection share: the send-a-message
    decision, the chunk codec (a :class:`_Sender` per streamed message
    out, a :class:`_Reader` per streamed message in, credit frames
    between them) and the in-order release.

    An end sends ``_kind`` frames to ``target_node`` at ``_peer_port``
    (None only on a client before ACCEPT); its role supplies what
    happens to what arrives: :meth:`_expects`, :meth:`_on_message` (a
    whole message's wire, parsed as a single frame's is),
    :meth:`_deliver`, :meth:`_fault` and :meth:`_send_failed`.
    """

    _kind = ""

    def __init__(self, node: Node, target_node: str, conn_id: str, peer_port: Optional[str]):
        self.node = node
        self.kernel = node.network.kernel
        self.target_node = target_node
        self.id = conn_id
        self._peer_port = peer_port
        #: the in-order release: the next seq due, items held until
        #: their turn, and seqs it steps over (streamed exchanges,
        #: answered when whole and never blocking the ones behind)
        self._due = 0
        self._held: dict[int, object] = {}
        self._skip: set[int] = set()
        #: seq -> the codec's halves of each streamed message in flight
        self._streams: dict[int, _Reader] = {}
        self._senders: dict[int, _Sender] = {}

    def _send_message(self, seq: int, message, knobs) -> None:
        """Put *message* on the wire: one ``_kind`` frame, or — a
        :class:`BodyStream` body, or a wire past
        ``knobs.chunk_threshold`` — a stream of chunk frames."""
        if isinstance(message.body, BodyStream):
            chunks = message.iter_wire()
        else:
            wire = message.to_wire()
            threshold = knobs.chunk_threshold
            if threshold is None or len(wire) <= threshold:
                port = self._peer_port
                if port is None:  # a client before ACCEPT: the request rides the CONNECT
                    self._connect(wire, seq)
                    return
                try:
                    self.node.send(
                        self.target_node, port, wire, kind=self._kind, conn=self.id, seq=seq,
                    )
                except (NetworkError, NodeDownError) as exc:
                    self._send_failed(exc)
                return
            chunks = (wire,)
        sender = self._senders[seq] = _Sender(self, seq, chunks, knobs)
        self._exempt(seq)
        if self._peer_port is None:  # chunk frames wait for the connection port
            self._connect(b"", None)
        else:
            sender.pump()

    def _on_stream(self, frame: Frame, knobs) -> None:
        """A ``credit`` frame for one of our streams, or a ``chunk`` of
        the peer's: fed to its reader (opened by the first chunk), each
        one credited, the message passed on when whole."""
        meta = frame.meta
        seq = meta.get("seq")
        idx = meta.get("idx")
        if not (isinstance(seq, int) and isinstance(idx, int)):
            return  # garbage
        if meta.get("kind") == "credit":
            sender = self._senders.get(seq)
            if sender is not None:
                sender.pump(idx)
            return
        reader = self._streams.get(seq)
        if reader is None:
            if seq in self._held or not self._expects(seq):
                return  # stale, or a finished message's duplicate
            reader = self._streams[seq] = _Reader(knobs.stream_window)
            self._exempt(seq)
        try:
            wire = reader.feed(idx, meta.get("last", False), frame.payload)
        except TransportError as exc:
            self._streams.pop(seq, None)
            self._fault(seq, exc)
            return
        self._send_credit(seq, reader.next - 1)
        if wire is not None:
            self._streams.pop(seq, None)
            self._on_message(seq, wire)

    def _send_credit(self, seq: int, idx: int) -> None:
        try:
            self.node.send(
                self.target_node, self._peer_port, b"",
                kind="credit", conn=self.id, seq=seq, idx=idx,
            )
        except (NetworkError, NodeDownError):
            pass  # the sender stalls; the request timeout owns this failure

    # -- the in-order release -------------------------------------------
    def _exempt(self, seq: int) -> None:
        """Step the release over *seq*: its exchange streams."""
        if seq >= self._due:
            self._skip.add(seq)
            self._release()

    def _hold(self, seq: int, item) -> None:
        """Hold *item* for its turn, then release what is due."""
        self._held[seq] = item
        self._release()

    def _release(self) -> None:
        """Deliver held items in sequence order, stepping over skipped
        seqs, until the seq due is neither held nor skipped."""
        while True:
            seq = self._due
            if seq in self._skip:
                self._skip.discard(seq)
                self._due = seq + 1
            elif seq in self._held:
                self._due = seq + 1
                self._deliver(seq, self._held.pop(seq))
            else:
                return

    def _hang_up(self, local_port: str, notify: bool) -> None:
        """Close this end for good: forget every stream, sender and held
        item, close *local_port* and, when *notify*, tell the peer."""
        self._held.clear()
        self._skip.clear()
        self._streams.clear()
        self._senders.clear()
        self.node.close_port(local_port)
        if notify:
            try:
                self.node.send(self.target_node, self._peer_port, "", kind="close", conn=self.id)
            except (NetworkError, NodeDownError):
                pass


@dataclass(slots=True)
class _Exchange:
    """One request in flight on an :class:`HttpConnection`."""

    seq: int
    request: HttpRequest
    callback: ResponseHandler
    timeout: Optional[float]
    timer: object = None
    done: bool = False


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


class HttpConnection(_End):
    """One persistent client→server HTTP connection.

    Until the server's ACCEPT names the connection port, each request
    rides a CONNECT frame to the listening port, which opens the
    connection (or reaches the one already open): a cold request costs
    the two hops a warm one does, and leaves at once.  All responses are
    delivered to callers in request order regardless of frame arrival
    order, except that an exchange with a streamed request or response
    is answered when its response is whole.
    """

    _kind = "request"
    _ids = itertools.count(1)

    def __init__(
        self,
        node: Node,
        target_node: str,
        port: int = DEFAULT_HTTP_PORT,
        config: Optional[PoolConfig] = None,
        on_closed: Optional[Callable[["HttpConnection"], None]] = None,
    ):
        super().__init__(node, target_node, f"{node.id}:c{next(HttpConnection._ids)}", None)
        self.port = port
        self.config = config if config is not None else PoolConfig()
        self.local_port = f"http-conn:{self.id}"
        self.state = CONNECTING
        #: when the connection last had nothing in flight; its idle
        #: deadline is ``idle_since + config.idle_timeout``
        self.idle_since = self.kernel.now
        self.requests_sent = 0
        #: response frames that arrived ahead of an earlier sequence
        self.out_of_order = 0
        self._on_closed = on_closed
        #: seq -> in-flight entry, insertion (= request) order
        self._pending: dict[int, _Exchange] = {}
        self._backlog: "deque[_Exchange]" = deque()
        self._next_seq = 0
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
        A request or response streamed as chunk frames is delivered on
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
                    self.target_node, self._peer_port, request.to_wire(),
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
        """Send a request that is not the steady case (see :meth:`send`)."""
        if self.state is IDLE:
            self.state = ACTIVE
        self._unanswered += 1
        self._send_message(entry.seq, entry.request, self.config)

    def _connect(self, wire: bytes, seq: Optional[int]) -> None:
        """Send a CONNECT to the listening port, carrying request *seq*
        (none when *wire* is empty); the first one arms the connect
        timeout."""
        if self._connect_event is None:
            self._connect_event = self.kernel.schedule(CONNECT_TIMEOUT, self._on_connect_timeout)
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
            or seq != self._due
            or self._held
            or self._skip
        ):
            self._on_other_frame(frame)
            return
        # the steady case: the next response in order, nothing held
        entry = self._pending.pop(seq, None)
        if entry is None:
            return  # stale or duplicate frame
        try:
            response = HttpResponse.from_wire(frame.payload)
        except TransportError as exc:
            self._teardown(exc, first=(entry, exc))
            return
        self._due = seq + 1
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
            if isinstance(seq, int) and seq in self._pending:  # not stale, not a duplicate
                self._on_message(seq, frame.payload)
        elif kind == "accept":
            if self.state is not CONNECTING:
                return
            if self._connect_event is not None:
                self._connect_event.cancel()
                self._connect_event = None
            self._peer_port = frame.meta.get("srv_port")
            self.state = ACTIVE
            for sender in list(self._senders.values()):  # streams waiting for the port
                sender.pump()
            self._settle()
        elif kind in ("chunk", "credit"):
            self._on_stream(frame, self.config)
        elif kind == "close":
            self._peer_port = None  # the server is gone; no close echo needed
            self._teardown(
                ConnectionClosedError(f"connection {self.id} closed by server")
                if self._pending
                else None
            )

    # -- the role's side of the codec and the release -------------------
    def _expects(self, seq: int) -> bool:
        return seq in self._pending

    def _on_message(self, seq: int, wire) -> None:
        """Response *seq* is whole: answered now when its exchange
        streams, else held for its turn in request order."""
        try:
            response = HttpResponse.from_wire(wire)
        except TransportError as exc:
            self._teardown(exc)
            return
        if seq < self._due or seq in self._skip:
            self._deliver(seq, response)
        else:
            if seq > self._due:  # ahead of an earlier response
                self.out_of_order += 1
                obs_metrics.inc("transport.http.ooo_frames")
            self._hold(seq, response)
        if self.state is not CLOSED:  # a callback may have closed us
            self._settle()

    def _deliver(self, seq: int, response: HttpResponse) -> None:
        entry = self._pending.pop(seq, None)
        if entry is not None:
            self._unanswered -= 1
            self._senders.pop(seq, None)  # a request stream answered early
            _finish(entry, response, None)

    def _fault(self, seq: int, error: Exception) -> None:
        """A streamed response broke its window: nothing after it on
        this connection can be trusted."""
        self._teardown(error)

    # -- timers ---------------------------------------------------------
    def _on_connect_timeout(self) -> None:
        self._teardown(
            TransportTimeoutError(
                f"connect to {self.target_node}:{self.port} timed out "
                f"after {CONNECT_TIMEOUT}s"
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
        self._hang_up(self.local_port, self._peer_port is not None)
        if self._on_closed is not None:
            self._on_closed(self)
        if first is not None:
            _finish(first[0], None, first[1])
        for entry in pending:
            _finish(entry, None, self._close_error)

    #: a frame the network refused ends the connection
    _send_failed = _teardown

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


class ServerConnection(_End):
    """The provider half of one persistent connection.

    Owns a dedicated port, dispatches requests in the client's sequence
    order through the in-order release, and — when the server sets
    ``max_pending_per_connection`` — gates each request through a
    per-connection
    :class:`~repro.supervision.admission.AdmissionController` leaky
    bucket, the bounded request queue.  Overflow answers ``503`` with
    a ``Retry-After`` hint *before* any parse/dispatch work, so a
    saturated connection stays cheap to refuse.  ``last_seen`` is when
    the client last sent anything; the server sweeps connections quiet
    for ``conn_idle_timeout``.
    """

    _kind = "response"

    def __init__(
        self, server: HttpServer, conn_id: str, peer: str, client_port: str
    ):
        super().__init__(server.node, peer, conn_id, client_port)
        self.server = server
        self.srv_port = f"http-srv:{server.port}:{conn_id}"
        self.reset_admission()
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
            and seq == self._due
            and not self._held
            and not self._skip
        ):
            # the steady case: the next request in order, nothing held
            # (inlined _deliver)
            self._due = seq + 1
            if self.admission is None or self._admitted(seq):
                self.requests_handled += 1
                self._send_message(seq, self.server._response_for(frame.payload), self.server.config)
            return
        kind = meta.get("kind")
        if kind in ("request", "connect"):
            if (
                isinstance(seq, int)
                and seq >= self._due
                and seq not in self._held
                and seq not in self._skip
            ):  # not a duplicate, not garbage
                self._hold(seq, frame.payload if retry_after is None else (None, retry_after))
        elif retry_after is not None:
            return  # a shed control frame is simply lost
        elif kind == "close":
            self.close(notify=False)
        elif kind in ("chunk", "credit"):
            self._on_stream(frame, self.server.config)

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
            self._send_message(
                seq, _busy(f"connection {self.id}: request queue full", retry_after),
                self.server.config,
            )
        return admitted

    # -- the role's side of the codec and the release -------------------
    def _expects(self, seq: int) -> bool:
        return seq >= self._due and seq not in self._skip

    def _deliver(self, seq: int, payload) -> None:
        """Request *seq*'s turn: its raw wire, or a ``(None,
        retry_after)`` marker for one the node's worker pool shed (E13).
        A streamed request's turn is when it is whole."""
        if isinstance(payload, tuple):
            self.busy_answered += 1
            obs_metrics.inc("transport.http.worker_overflow")
            self._send_message(
                seq, _busy(f"connection {self.id}: worker pool saturated", payload[1]),
                self.server.config,
            )
        elif self._admitted(seq):
            self.requests_handled += 1
            self._send_message(seq, self.server._response_for(payload), self.server.config)

    _on_message = _deliver

    def _fault(self, seq: int, error: Exception) -> None:
        """A streamed request broke its window."""
        self.server.bad_requests += 1
        obs_metrics.inc("transport.http.bad_requests")
        self._send_message(seq, HttpResponse(400, str(error)), self.server.config)

    def _send_failed(self, error: Exception) -> None:
        self.server.dropped_replies += 1
        obs_metrics.inc("transport.http.dropped_replies")

    # ------------------------------------------------------------------
    def close(self, notify: bool = True) -> None:
        if self.closed:
            return
        self.closed = True
        self._hang_up(self.srv_port, notify)
        self.node.set_overflow_handler(self.srv_port, None)
        self.server._forget_connection(self)

    def __repr__(self) -> str:
        return (
            f"<ServerConnection {self.id} peer={self.target_node} "
            f"handled={self.requests_handled} busy={self.busy_answered}>"
        )
