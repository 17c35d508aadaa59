"""The simulated network: nodes, frames, delivery.

A :class:`Network` owns a :class:`~repro.simnet.kernel.Kernel` and a set
of :class:`Node`\\ s.  Frames are addressed to ``(node_id, port)``;
ports are string channel names on which transports register handlers
(e.g. ``"http:80"`` or a P2PS pipe id).  Delivery is fire-and-forget
with latency sampled from the network's :class:`LatencyModel`; loss,
partitions and churn are injected by the hooks in
:mod:`repro.simnet.faults`.

Frames carry the actual serialised wire — text for legacy XML frames,
raw ``bytes`` for the E16 byte-true HTTP wire and chunk-streamed
payload slices — so the simulated network moves genuine bytes and
``Frame.size`` is a genuine byte count for latency sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.observability import metrics as obs_metrics
from repro.simnet.kernel import Kernel
from repro.simnet.latency import FixedLatency, LatencyModel
from repro.simnet.trace import Counter, TraceLog


class NetworkError(Exception):
    """Base class for simulated-network errors."""


class NodeDownError(NetworkError):
    """An operation was attempted from/on a node that is down."""


@dataclass
class Frame:
    """A unit of transmission on the simulated wire."""

    src: str
    dst: str
    port: str
    #: serialised wire content: ``str`` for legacy text frames, raw
    #: ``bytes`` for byte-true HTTP wires and chunk slices (E16)
    payload: "str | bytes"
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.payload)


FrameHandler = Callable[[Frame], None]
DeliveryHook = Callable[[Frame], bool]  # return False to drop the frame


#: an overflow handler answers a frame the worker queue rejected:
#: fn(frame, retry_after_hint_seconds)
OverflowHandler = Callable[["Frame", float], None]


class Node:
    """A network endpoint with named ports.

    ``up`` reflects churn state: a down node neither sends nor receives,
    and its handlers stay registered so it can resume on restart (the
    paper's "highly transient connectivity").

    Processing capacity is a **worker pool modelled in virtual time**
    (E13): when a frame costs non-zero service time, it occupies the
    earliest-free of N simulated workers, so a slow request occupies one
    worker while the other N-1 keep serving.  The default pool of one
    worker with an unbounded queue reproduces the original serial-queue
    semantics exactly; :meth:`configure_workers` widens the pool and may
    bound the queue, in which case overflow frames are handed to the
    port's :class:`OverflowHandler` (bindings answer them Busy +
    retry-after) instead of queueing forever.
    """

    def __init__(self, node_id: str, network: "Network"):
        self.id = node_id
        self.network = network
        self.up = True
        self._handlers: dict[str, FrameHandler] = {}
        #: per-frame processing time; > 0 makes frames occupy a worker
        #: (frames wait while all workers are busy), which is how server
        #: saturation becomes visible in experiments
        self.service_time = 0.0
        #: optional per-frame cost override: fn(frame) -> seconds.  This
        #: is what lets one node serve a *mixed* workload where slow
        #: requests pin a worker while fast ones flow past (E13).
        self.frame_cost: Optional[Callable[[Frame], float]] = None
        self.max_queue_delay = 0.0
        #: per-worker busy-until times; len() is the pool width
        self._worker_busy: list[float] = [0.0]
        #: completed busy time per worker (utilisation accounting)
        self._busy_accum: list[float] = [0.0]
        #: max frames allowed to *wait* (None = unbounded)
        self.queue_limit: Optional[float] = None
        self._inflight = 0  # frames accepted by the pool, not yet finished
        self.frames_overflowed = 0
        self.frames_lost_in_service = 0
        self._overflow_handlers: dict[str, OverflowHandler] = {}
        self._instrumented = False  # per-node gauges on after configure_workers
        self._stats_since = 0.0

    # -- ports ----------------------------------------------------------
    def open_port(self, port: str, handler: FrameHandler) -> None:
        if port in self._handlers:
            raise NetworkError(f"port already open on {self.id}: {port}")
        self._handlers[port] = handler

    def close_port(self, port: str) -> None:
        self._handlers.pop(port, None)

    def has_port(self, port: str) -> bool:
        return port in self._handlers

    @property
    def ports(self) -> list[str]:
        return sorted(self._handlers)

    # -- worker pool (E13) -------------------------------------------------
    @property
    def workers(self) -> int:
        """Width of the simulated worker pool."""
        return len(self._worker_busy)

    @property
    def queue_depth(self) -> int:
        """Frames currently *waiting* for a worker (exact: a frame only
        waits while every worker is occupied, so accepted-minus-width is
        the backlog)."""
        return max(0, self._inflight - len(self._worker_busy))

    def configure_workers(
        self, n: int, queue_limit: Optional[float] = None
    ) -> "Node":
        """Resize the pool to *n* workers and (optionally) bound the
        request queue at *queue_limit* waiting frames.

        Resizing resets the pool's busy state (it models a fresh set of
        workers) and turns on per-node queue/utilisation gauges in the
        metrics registry.  Returns the node for chaining.
        """
        if n < 1:
            raise ValueError(f"worker pool needs at least one worker, got {n}")
        if queue_limit is not None and queue_limit < 0:
            raise ValueError(f"negative queue_limit: {queue_limit}")
        self._worker_busy = [0.0] * n
        self._busy_accum = [0.0] * n
        self.queue_limit = queue_limit
        self._instrumented = True
        self._stats_since = self.network.kernel.now
        obs_metrics.set_gauge(f"simnet.workers.{self.id}.pool_size", n)
        return self

    def set_overflow_handler(self, port: str, handler: Optional[OverflowHandler]) -> None:
        """Answer frames the bounded queue rejects on *port* (e.g. the
        HTTP server's 503 + Retry-After path).  Pass None to remove."""
        if handler is None:
            self._overflow_handlers.pop(port, None)
        else:
            self._overflow_handlers[port] = handler

    def worker_stats(self) -> dict[str, Any]:
        """Pool telemetry: width, backlog, per-worker utilisation since
        the pool was (re)configured, and loss/overflow tallies."""
        now = self.network.kernel.now
        elapsed = now - self._stats_since
        utilisation = [
            (accum / elapsed if elapsed > 0 else 0.0) for accum in self._busy_accum
        ]
        return {
            "workers": len(self._worker_busy),
            "queue_depth": self.queue_depth,
            "queue_limit": self.queue_limit,
            "utilisation": utilisation,
            "overflowed": self.frames_overflowed,
            "lost_in_service": self.frames_lost_in_service,
            "max_queue_delay": self.max_queue_delay,
        }

    def _reset_saturation(self) -> None:
        """Forget accumulated busy/backlog state — a restarted node does
        not inherit the queue it died with (E13 satellite: saturation
        used to survive a down/up cycle)."""
        self._worker_busy = [0.0] * len(self._worker_busy)
        self.max_queue_delay = 0.0

    # -- traffic ----------------------------------------------------------
    def send(self, dst: str, port: str, payload: "str | bytes", **meta: Any) -> Frame:
        """Send one frame; returns it (delivery is asynchronous)."""
        return self.network.send(Frame(self.id, dst, port, payload, meta))

    def _deliver(self, frame: Frame) -> None:
        handler = self._handlers.get(frame.port)
        if handler is None:
            self.network.trace.emit(
                self.network.kernel.now, "no-handler", node=self.id, port=frame.port
            )
            return
        cost = (
            self.frame_cost(frame) if self.frame_cost is not None else self.service_time
        )
        if cost <= 0:
            self.network.stats.incr(self.id)
            handler(frame)
            return
        # worker-pool dispatch: the frame starts on the earliest-free of
        # N simulated workers (lowest index breaks ties, so seeded runs
        # stay deterministic); with one worker this degenerates to the
        # original serial queue, arithmetic and trace included
        now = self.network.kernel.now
        busy = self._worker_busy
        worker = 0
        free_at = busy[0]
        for i in range(1, len(busy)):
            if busy[i] < free_at:
                worker = i
                free_at = busy[i]
        start = max(now, free_at)
        if (
            start > now
            and self.queue_limit is not None
            and self._inflight - len(busy) >= self.queue_limit
        ):
            self._overflow(frame, now)
            return
        finish = start + cost
        busy[worker] = finish
        self._inflight += 1
        queue_delay = start - now
        self.max_queue_delay = max(self.max_queue_delay, queue_delay)
        if queue_delay > 0:
            self.network.trace.emit(now, "queued", node=self.id, delay=queue_delay)
        if self._instrumented:
            obs_metrics.set_gauge(
                f"simnet.workers.{self.id}.queue_depth", self.queue_depth
            )
            obs_metrics.observe("simnet.worker.queue_delay", queue_delay)
        self.network.kernel.schedule(finish - now, self._process, frame, handler, worker, cost)

    def _overflow(self, frame: Frame, now: float) -> None:
        """The bounded queue rejected *frame*: count it, trace it, and
        let the port's overflow handler answer (Busy + retry-after via
        the E9 admission vocabulary) — a saturated node answers cheaply
        instead of queueing forever."""
        self.frames_overflowed += 1
        obs_metrics.inc("simnet.worker.overflow")
        retry_after = max(0.0, min(self._worker_busy) - now)
        self.network.trace.emit(
            now, "overflow", node=self.id, port=frame.port, retry_after=retry_after
        )
        handler = self._overflow_handlers.get(frame.port)
        if handler is not None:
            handler(frame, retry_after)

    def _process(
        self, frame: Frame, handler: FrameHandler, worker: int = 0, cost: float = 0.0
    ) -> None:
        self._inflight -= 1
        if worker < len(self._busy_accum):
            self._busy_accum[worker] += cost
        if self._instrumented:
            obs_metrics.set_gauge(
                f"simnet.workers.{self.id}.queue_depth", self.queue_depth
            )
        if not self.up:
            # the node died mid-service: the frame is gone, and that
            # must be visible — traced and counted, never silent
            self.frames_lost_in_service += 1
            self.network.lost_in_service.incr(self.id)
            obs_metrics.inc("simnet.lost_in_service")
            self.network.trace.emit(
                self.network.kernel.now, "lost-in-service", node=self.id, port=frame.port
            )
            return
        self.network.stats.incr(self.id)
        handler(frame)

    # -- lifecycle ----------------------------------------------------------
    def go_down(self) -> None:
        self.up = False
        self.network.trace.emit(self.network.kernel.now, "node-down", node=self.id)

    def go_up(self) -> None:
        self.up = True
        self._reset_saturation()
        self.network.trace.emit(self.network.kernel.now, "node-up", node=self.id)

    def __repr__(self) -> str:
        return f"<Node {self.id} {'up' if self.up else 'down'} ports={len(self._handlers)}>"


class Network:
    """Container of nodes plus the delivery fabric."""

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        latency: Optional[LatencyModel] = None,
        trace: Optional[TraceLog] = None,
    ):
        self.kernel = kernel if kernel is not None else Kernel()
        self.latency = latency if latency is not None else FixedLatency()
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self.stats = Counter()  # frames *handled* per node
        self.sent = Counter()  # frames *sent* per node
        self.lost_in_service = Counter()  # frames lost to mid-service churn
        self._nodes: dict[str, Node] = {}
        self._delivery_hooks: list[DeliveryHook] = []

    # -- node management ---------------------------------------------------
    def add_node(self, node_id: str) -> Node:
        if node_id in self._nodes:
            raise NetworkError(f"duplicate node id: {node_id}")
        node = Node(node_id, self)
        self._nodes[node_id] = node
        return node

    def get_node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NetworkError(f"unknown node: {node_id}") from None

    @property
    def node_ids(self) -> list[str]:
        return sorted(self._nodes)

    # -- fault hooks ---------------------------------------------------------
    def add_delivery_hook(self, hook: DeliveryHook) -> None:
        """Register a hook consulted per frame; returning False drops it."""
        self._delivery_hooks.append(hook)

    def remove_delivery_hook(self, hook: DeliveryHook) -> None:
        """Detach *hook*; a hook not (or no longer) attached is a no-op,
        so injectors may detach themselves redundantly (e.g. ``heal()``
        called twice, or a hook detaching from inside delivery)."""
        try:
            self._delivery_hooks.remove(hook)
        except ValueError:
            pass

    # -- transmission ---------------------------------------------------------
    def send(self, frame: Frame) -> Frame:
        src = self._nodes.get(frame.src)
        if src is None:
            raise NetworkError(f"unknown source node: {frame.src}")
        if not src.up:
            raise NodeDownError(f"source node is down: {frame.src}")
        self.sent.incr(frame.src)

        # connection-scoped (E11) and gossip (E12) frames tag their
        # trace records so each overlay can be filtered out of a trace
        conn = {k: frame.meta[k] for k in ("conn", "gossip") if k in frame.meta}

        # iterate a snapshot: a hook may detach itself (or another hook)
        # mid-delivery without perturbing this frame's hook sequence
        for hook in tuple(self._delivery_hooks):
            if not hook(frame):
                self.trace.emit(self.kernel.now, "dropped", src=frame.src, dst=frame.dst, port=frame.port, **conn)
                return frame

        if frame.dst not in self._nodes:
            self.trace.emit(self.kernel.now, "unroutable", src=frame.src, dst=frame.dst)
            return frame

        if frame.src == frame.dst:
            delay = self.latency.loopback()
        else:
            delay = self.latency.sample(frame.src, frame.dst, frame.size)
        self.trace.emit(
            self.kernel.now, "sent", src=frame.src, dst=frame.dst, port=frame.port, size=frame.size, **conn
        )
        self.kernel.schedule(delay, self._deliver, frame)
        return frame

    def _deliver(self, frame: Frame) -> None:
        conn = {k: frame.meta[k] for k in ("conn", "gossip") if k in frame.meta}
        node = self._nodes.get(frame.dst)
        if node is None or not node.up:
            self.trace.emit(self.kernel.now, "lost", src=frame.src, dst=frame.dst, port=frame.port, **conn)
            return
        self.trace.emit(
            self.kernel.now, "delivered", src=frame.src, dst=frame.dst, port=frame.port, **conn
        )
        node._deliver(frame)

    # -- convenience ---------------------------------------------------------
    @property
    def now(self) -> float:
        return self.kernel.now

    def run(self, until: Optional[float] = None) -> int:
        return self.kernel.run(until=until)

    def __repr__(self) -> str:
        return f"<Network nodes={len(self._nodes)} t={self.kernel.now:.4f}>"
