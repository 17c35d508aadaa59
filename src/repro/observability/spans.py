"""Message-correlated span trees over the WSPeer event tree.

The paper's architectural bet (§III) is that an application listening
at the root of the interface tree "sees every request/response either
side of the messaging engine".  :class:`SpanTracer` is that listener,
productised: it subscribes to one or more peers' event trees and
stitches ``ClientMessageEvent`` / ``ServerMessageEvent`` / reliability
/ supervision events into **one span tree per logical invocation**,
keyed by ``wsa:MessageID``:

- retransmits reuse the logical span — each re-send becomes an
  attempt-numbered child, never a second trace;
- failover hops reuse it too (the executor propagates the original
  MessageID), so cross-endpoint and cross-binding journeys render as
  endpoint-tagged attempt children of a single root;
- when the tracer is attached to provider peers as well, server-side
  processing (request-received → response-sent, dedup replays,
  admission sheds) appears as peer-tagged ``server`` children of the
  same tree — both sides of the engine in one picture.

Storage is a ring buffer of logical spans (``max_spans``): a
retransmission storm cannot grow memory without bound, the oldest
trees are evicted first, and ``evicted`` counts what the ring lost.
The tracer also implements the codec recorder protocol
(:mod:`repro.observability.recorder`): installed with ``codec=True``
it tallies template-cache events that are never even constructed when
no tracer is active.
"""

from __future__ import annotations

import itertools
import json
from collections import OrderedDict, deque
from typing import Any, Callable, Iterator, Optional

from repro.core.events import PeerEvent
from repro.observability import metrics as obs_metrics
from repro.observability.kinds import KNOWN_KINDS
from repro.observability.recorder import TreeListener, set_recorder

_span_ids = itertools.count(1)

#: per-span cap on attempt/server children and annotations: a storm
#: keeps counting (``dropped`` tag) but stops allocating
MAX_CHILDREN = 128
MAX_ANNOTATIONS = 64

#: JSONL exporter record schema: bump when the record shape changes
#: (v2 added ``schema``/``ts`` themselves plus the E17 trace tags)
SPAN_SCHEMA = "repro.span/2"

# root statuses
IN_FLIGHT = "in-flight"
OK = "ok"
ERROR = "error"
SENT = "sent"  # fire-and-forget oneway: complete at send time

#: a span's annotations / children until its first one: most spans of a
#: call never get any, so they never allocate the lists
_NONE_YET: tuple = ()


class Span:
    """One node of a trace tree: a timed, tagged unit of work.

    The tracer's own spans hold a value tuple instead: their fixed tags
    (``_KEYS``; a ``None`` value is an absent tag) then what their name
    is formatted from (``_NAME``).  ``tags`` and ``name`` are built on
    first read, so a span nobody inspects never builds either.
    """

    __slots__ = ("span_id", "_name", "kind", "start", "end", "status",
                 "_values", "_tags", "annotations", "children")
    _KEYS: tuple[str, ...] = ()
    _NAME = ""

    def __init__(self, name: Optional[str], kind: str, start: float,
                 tags: Optional[dict[str, Any]] = None, values: tuple = ()):
        self.span_id = next(_span_ids)
        self._name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.status = IN_FLIGHT
        self._values = values
        self._tags = tags
        #: (time, kind, detail) tuples / child spans, lists once one arrives
        self.annotations: list = _NONE_YET  # type: ignore[assignment]
        self.children: list = _NONE_YET  # type: ignore[assignment]

    @property
    def name(self) -> str:
        return self._NAME.format(*self._values) if self._name is None else self._name

    @property
    def tags(self) -> dict[str, Any]:
        tags = self._tags
        if tags is None:
            tags = self._tags = {
                k: v for k, v in zip(self._KEYS, self._values) if v is not None
            }
        return tags

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def annotate(self, time: float, kind: str, detail: dict[str, Any]) -> bool:
        if len(self.annotations) < MAX_ANNOTATIONS:
            if self.annotations is _NONE_YET:
                self.annotations = []
            self.annotations.append((time, kind, detail))
            return True
        self.tags["annotations_dropped"] = self.tags.get("annotations_dropped", 0) + 1
        return False

    def add_child(self, child: "Span") -> bool:
        if len(self.children) < MAX_CHILDREN:
            if self.children is _NONE_YET:
                self.children = []
            self.children.append(child)
            return True
        self.tags["children_dropped"] = self.tags.get("children_dropped", 0) + 1
        return False

    def close(self, time: float, status: str) -> None:
        self.end = time
        self.status = status

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "tags": dict(self.tags),
            "annotations": [
                {"time": t, "kind": k, **detail} for t, k, detail in self.annotations
            ],
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return f"<Span {self.kind}:{self.name} status={self.status}>"


class _AttemptSpan(Span):
    __slots__ = ()
    _KEYS = ("attempt", "endpoint", "peer", "span_id", "parent_span_id")
    _NAME = "attempt#{0}"


class _ServerSpan(Span):
    __slots__ = ()
    _KEYS = ("peer", "span_id", "parent_span_id")
    _NAME = "server:{3}.{4}"


class _RootSpan(Span):
    """A logical invocation's root, carrying the tracer's bookkeeping for
    it in slots (set by :meth:`SpanTracer._new_root`): the wire trace
    id, the open attempt, the attempt count, and the server span of each
    peer that heard the request."""

    __slots__ = ("trace_id", "attempt", "attempts", "servers")
    _KEYS = ("message_id", "service", "operation", "client", "trace_id", "parent_span_id")
    _NAME = "{1}.{2}"


def _endpoint_host(address: Optional[str]) -> Optional[str]:
    """The node id a URI endpoint lives on (frame-correlation key)."""
    if not address:
        return None
    _, sep, rest = address.partition("://")
    if not sep:
        return None
    return rest.partition("/")[0].partition(":")[0] or None


class SpanTracer(TreeListener):
    """Stitches tree events into per-invocation span trees.

    One tracer may be attached to many peers (client *and* providers):
    everything correlates through the MessageID, so the resulting tree
    spans processes the way the underlying call did.  Also usable as
    the codec recorder and as a :class:`~repro.simnet.trace.TraceLog`
    sink (:meth:`simnet_sink`), folding wire-level frame records into
    the spans of the endpoints they touched.
    """

    #: recorder-protocol flag: hot paths consult this before building
    #: any event detail
    active = True
    peer_slot = "tracer"

    def __init__(
        self,
        max_spans: int = 1024,
        metrics: Optional[obs_metrics.MetricsRegistry] = None,
    ):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.max_spans = max_spans
        self.metrics = metrics if metrics is not None else obs_metrics.default_registry()
        self._spans: "OrderedDict[str, _RootSpan]" = OrderedDict()
        #: the last root touched: a call's events arrive back to back
        self._recent_id: Optional[str] = None
        self._recent_root: Optional[_RootSpan] = None
        #: host -> its open attempt, kept once :meth:`simnet_sink` asks
        self._open_attempt_by_host: Optional[dict[str, Span]] = None
        #: trace_id -> message_ids of the roots in that trace (E17);
        #: maintained against ring eviction, so a live trace id always
        #: names live roots
        self._by_trace: dict[str, list[str]] = {}
        self.evicted = 0
        #: truncation accounting: children/annotations the per-span caps
        #: refused, totalled across every span (satellite of E17 — the
        #: per-span ``*_dropped`` tags exist but were invisible in
        #: aggregate)
        self.spans_dropped = 0
        self.annotations_dropped = 0
        self.events_seen = 0
        self.unknown_kinds: dict[str, int] = {}
        self.codec_counts: dict[str, int] = {}
        # per-kind instrument caches: the observe() hot path must not pay
        # a string concat + registry lookup for every event
        self._event_counters: dict[str, obs_metrics.Counter] = {}
        self._codec_counters: dict[str, obs_metrics.Counter] = {}
        self._latency_hists: dict[str, obs_metrics.Histogram] = {}
        self._spans_started = self.metrics.counter("tracing.spans_started")
        #: recent events that carry no MessageID (breaker transitions,
        #: discovery/publish/deployment traffic) — kept for diagnostics
        self.uncorrelated: "deque[tuple[float, str, str, dict]]" = deque(maxlen=256)
        self._attached: list = []
        self._recorder_installed = False
        self._prev_recorder: Any = None

    # -- wiring ------------------------------------------------------------
    def install(self, *peers: Any, codec: bool = False) -> "SpanTracer":
        """Attach to each WSPeer in *peers* (tagged by ``peer.name``);
        with ``codec=True`` also become the codec-layer recorder."""
        TreeListener.install(self, *peers)
        if codec and not self._recorder_installed:
            self._prev_recorder = set_recorder(self)
            self._recorder_installed = True
        return self

    def uninstall(self) -> None:
        """Detach from every source and release the codec recorder."""
        self.detach()
        if self._recorder_installed:
            set_recorder(self._prev_recorder)
            self._recorder_installed = False
            self._prev_recorder = None

    # -- recorder protocol (codec fast path) -------------------------------
    def codec_event(self, kind: str, detail: Optional[dict[str, Any]] = None) -> None:
        self.codec_counts[kind] = self.codec_counts.get(kind, 0) + 1
        counter = self._codec_counters.get(kind)
        if counter is None:
            counter = self._codec_counters[kind] = self.metrics.counter("codec." + kind)
        if self.metrics.enabled:
            counter.inc()

    # -- span bookkeeping --------------------------------------------------
    def _adopt(self, parent: Span, child: Span) -> None:
        """``parent.add_child`` with tracer-level truncation accounting."""
        if not parent.add_child(child):
            self.spans_dropped += 1
            self.metrics.inc("tracing.spans_dropped")

    def _annotate(self, span: Span, time: float, kind: str,
                  detail: dict[str, Any]) -> None:
        """``span.annotate`` with tracer-level truncation accounting."""
        if not span.annotate(time, kind, detail):
            self.annotations_dropped += 1
            self.metrics.inc("tracing.annotations_dropped")

    def _new_root(self, message_id: str, event: PeerEvent, peer: Optional[str]) -> _RootSpan:
        """The logical span for *message_id*, on its first sight."""
        detail = event.detail
        service = detail.get("service", "")
        operation = detail.get("operation", "")
        trace_id = detail.get("trace_id") or None
        root = _RootSpan(
            None if service or operation else event.kind, "invocation", event.time, None,
            (message_id, service, operation, peer or None, trace_id,
             (detail.get("parent_span_id") or None) if trace_id else None),
        )
        root.children = []  # a root nearly always gets some
        root.trace_id = trace_id
        root.attempt = None
        root.attempts = 0
        root.servers = {}
        spans = self._spans
        while len(spans) >= self.max_spans:
            evicted_id, evicted_root = spans.popitem(last=False)
            mids = self._by_trace.get(evicted_root.trace_id)
            if mids is not None and evicted_id in mids:
                mids.remove(evicted_id)
                if not mids:
                    del self._by_trace[evicted_root.trace_id]
            self.evicted += 1
            self.metrics.inc("tracing.spans_evicted")
        spans[message_id] = root
        if trace_id is not None:
            self._by_trace.setdefault(trace_id, []).append(message_id)
        if self.metrics.enabled:
            self._spans_started.value += 1
        return root

    def _new_attempt(self, root: _RootSpan, event: PeerEvent,
                     peer: Optional[str], number: Optional[int] = None) -> None:
        current = root.attempt
        if current is not None and current.end is None:
            current.close(event.time, ERROR if event.kind == "retransmit" else current.status)
        root.attempts += 1
        attempt_no = number if number is not None else root.attempts
        detail = event.detail
        endpoint = detail.get("endpoint") or None
        span_id = detail.get("span_id") or None
        attempt = root.attempt = _AttemptSpan(
            None, "attempt", event.time, None,
            (attempt_no, endpoint, peer or None, span_id,
             (detail.get("parent_span_id") or None) if span_id else None),
        )
        if len(root.children) < MAX_CHILDREN:
            root.children.append(attempt)
        else:
            self._adopt(root, attempt)
        if self._open_attempt_by_host is not None:
            host = _endpoint_host(endpoint)
            if host:
                self._open_attempt_by_host[host] = attempt

    def _close(self, root: _RootSpan, time: float, status: str) -> None:
        """Close *root* and its open attempt."""
        attempt = root.attempt
        if attempt is not None and attempt.end is None:
            attempt.end, attempt.status = time, status
        root.end, root.status = time, status

    # -- the listener ------------------------------------------------------
    def observe(self, event: PeerEvent, peer: Optional[str] = None) -> None:
        """Fold one tree event into the span store."""
        self.events_seen += 1
        kind = event.kind
        if kind not in KNOWN_KINDS and not kind.startswith("circuit-"):
            self.unknown_kinds[kind] = self.unknown_kinds.get(kind, 0) + 1
            self.metrics.inc("tracing.unknown_kinds")
        counter = self._event_counters.get(kind)
        if counter is None:
            counter = self._event_counters[kind] = self.metrics.counter("events." + kind)
        if self.metrics.enabled:
            counter.value += 1

        detail = event.detail
        message_id = detail.get("message_id")
        if message_id is None:
            self.uncorrelated.append((event.time, kind, event.source, detail))
            return

        if message_id == self._recent_id:
            root = self._recent_root  # already the most recently used
        else:
            root = self._spans.get(message_id)
            if root is None:
                root = self._new_root(message_id, event, peer)
            else:
                self._spans.move_to_end(message_id)
            self._recent_id, self._recent_root = message_id, root
        if root.trace_id is None and detail.get("trace_id"):
            # E17: the first event carrying wire trace-context tags the
            # root and indexes it by trace — the hook distributed_trace() links on
            root.trace_id = root.tags["trace_id"] = detail["trace_id"]
            if detail.get("parent_span_id"):
                root.tags["parent_span_id"] = detail["parent_span_id"]
            self._by_trace.setdefault(root.trace_id, []).append(message_id)

        if kind in ("request-sent", "oneway-sent"):
            # a repeat request-sent with the same MessageID is a failover
            # hop or an executor-driven retry: same logical span
            if root.end is not None:  # reopen a provisionally-failed root
                root.end = None
                root.status = IN_FLIGHT
                root.tags.pop("error", None)
            self._new_attempt(root, event, peer)
            if kind == "oneway-sent" and not detail.get("ack_requested"):
                # fire-and-forget: the trace is complete once sent
                self._close(root, event.time, SENT)
        elif kind == "request-received":
            span_id = detail.get("span_id") or None
            server = _ServerSpan(
                None, "server", event.time, None,
                (peer or None, span_id,
                 (detail.get("parent_span_id") or None) if span_id else None,
                 detail.get("service", ""), detail.get("operation", "")),
            )
            if len(root.children) < MAX_CHILDREN:
                root.children.append(server)
            else:
                self._adopt(root, server)
            root.servers[peer] = server
        elif kind == "response-sent":
            server = root.servers.get(peer)
            if server is not None and server.end is None:
                server.end = event.time
                if server.status != "busy":  # shed verdict beats fault
                    server.status = ERROR if detail.get("fault") else OK
        elif kind in ("response-received", "oneway-acked"):
            self._close(root, event.time, OK)
            name = "oneway.ack_latency" if kind == "oneway-acked" else "invocation.latency"
            hist = self._latency_hists.get(name)
            if hist is None:
                hist = self._latency_hists[name] = self.metrics.histogram(name)
            if self.metrics.enabled:
                hist.observe(event.time - root.start)
        elif kind == "retransmit":
            self._new_attempt(root, event, peer, number=detail.get("attempt"))
        elif kind == "failover":
            self._annotate(root, event.time, kind, {
                "from": detail.get("from_endpoint"),
                "to": detail.get("to_endpoint"),
                "reason": detail.get("reason"),
            })
        elif kind in ("invoke-failed", "oneway-failed", "failover-exhausted"):
            # provisional for failover-driven calls: a later request-sent
            # with the same MessageID reopens the root
            self._close(root, event.time, ERROR)
            root.tags["error"] = detail.get("reason")
            if kind == "failover-exhausted":
                root.tags["rounds"] = detail.get("rounds")
        elif kind == "duplicate-suppressed":
            server = root.servers.get(peer)
            if server is not None and server.end is None:
                server.tags["duplicate"] = True
                self._annotate(server, event.time, kind, {"peer": peer})
            else:
                replay = Span("server:dedup-replay", "server", event.time,
                              tags={"peer": peer, "duplicate": True} if peer
                              else {"duplicate": True})
                replay.close(event.time, OK)
                self._adopt(root, replay)
        elif kind == "request-shed":
            server = root.servers.get(peer)
            tags: dict[str, Any] = {"retry_after": detail.get("retry_after")}
            if peer:
                tags["peer"] = peer
            if server is not None and server.end is None:
                server.tags.update(tags)
                server.status = "busy"
            else:
                shed = Span("server:shed", "server", event.time, tags)
                shed.close(event.time, "busy")
                self._adopt(root, shed)
            self._annotate(root, event.time, kind, tags)
        else:
            self._annotate(root, event.time, kind, dict(detail))

    # -- simnet bridge -----------------------------------------------------
    def simnet_sink(self) -> Callable[[float, str, dict[str, Any]], None]:
        """A :class:`~repro.simnet.trace.TraceLog` sink: frame records
        annotate the open attempt span of the endpoint they touched
        (attempts opened from now on)."""
        if self._open_attempt_by_host is None:
            self._open_attempt_by_host = {}
        by_host = self._open_attempt_by_host

        def sink(time: float, kind: str, detail: dict[str, Any]) -> None:
            self.metrics.inc("simnet." + kind)
            for key in ("dst", "src", "node"):
                host = detail.get(key)
                if host is None:
                    continue
                attempt = by_host.get(host)
                if attempt is not None and attempt.end is None:
                    self._annotate(attempt, time, "frame-" + kind, dict(detail))
                    return

        return sink

    # -- queries -----------------------------------------------------------
    def trace(self, message_id: str) -> Optional[Span]:
        return self._spans.get(message_id)

    def trace_dict(self, message_id: str) -> Optional[dict[str, Any]]:
        span = self._spans.get(message_id)
        return span.to_dict() if span is not None else None

    def traces(self) -> Iterator[tuple[str, Span]]:
        return iter(self._spans.items())

    def __len__(self) -> int:
        return len(self._spans)

    @property
    def message_ids(self) -> list[str]:
        return list(self._spans)

    def trace_ids(self) -> list[str]:
        """Distinct wire trace ids seen, oldest first."""
        return [t for t, mids in self._by_trace.items()
                if any(m in self._spans for m in mids)]

    def roots_for_trace(self, trace_id: str) -> list[tuple[str, Span]]:
        """(message_id, root span) pairs tagged with *trace_id*."""
        return [(m, self._spans[m])
                for m in self._by_trace.get(trace_id, ())
                if m in self._spans]

    def distributed_trace(self, trace_id: str) -> dict[str, Any]:
        """Stitch every invocation tagged with *trace_id* into one causal tree.

        Each invocation root whose wire parent_span_id resolves to a span
        *inside another invocation* of the same trace is nested under that
        invocation as a "call"; unresolved roots stay top-level.  The result
        spans every node (client + server peers) the trace touched.
        """
        members = self.roots_for_trace(trace_id)
        records: dict[str, dict[str, Any]] = {}
        span_owner: dict[str, str] = {}  # wire span_id -> owning message_id
        nodes: set[str] = set()
        for mid, root in members:
            records[mid] = {"message_id": mid, "span": root.to_dict(),
                            "calls": []}
            stack = [root]
            while stack:
                span = stack.pop()
                sid = span.tags.get("span_id")
                if sid:
                    span_owner.setdefault(sid, mid)
                owner = span.tags.get("peer") or span.tags.get("client")
                if owner:
                    nodes.add(owner)
                stack.extend(span.children)
        roots: list[dict[str, Any]] = []
        for mid, root in members:
            parent_sid = root.tags.get("parent_span_id")
            owner = span_owner.get(parent_sid) if parent_sid else None
            if owner is not None and owner != mid:
                records[owner]["calls"].append(records[mid])
            else:
                roots.append(records[mid])
        return {
            "trace_id": trace_id,
            "invocations": len(members),
            "nodes": sorted(nodes),
            "roots": roots,
        }

    # -- exporters ---------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per logical span, oldest first."""
        return "\n".join(
            json.dumps({"schema": SPAN_SCHEMA, "ts": span.start,
                        "message_id": mid, **span.to_dict()}, default=str)
            for mid, span in self._spans.items()
        )

    def export_jsonl(self, path: str) -> int:
        """Write the span store to *path*; returns spans written."""
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as fh:
            if text:
                fh.write(text + "\n")
        return len(self._spans)

    def render(self, message_id: str) -> str:
        """A human-readable tree for one logical invocation."""
        root = self._spans.get(message_id)
        if root is None:
            return f"(no trace for {message_id})"
        lines: list[str] = []

        def fmt(span: Span) -> str:
            dur = f"{span.duration * 1000:.1f}ms" if span.duration is not None else "open"
            tags = " ".join(
                f"{k}={v}" for k, v in span.tags.items()
                if k not in ("service", "operation") and v not in (None, "")
            )
            return f"{span.name} [{dur}] {span.status}" + (f"  {tags}" if tags else "")

        def walk(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
            if is_root:
                lines.append(fmt(span))
                child_prefix = ""
            else:
                connector = "└─ " if is_last else "├─ "
                lines.append(prefix + connector + fmt(span))
                child_prefix = prefix + ("   " if is_last else "│  ")
            for time, kind, detail in span.annotations:
                marker = "   " if is_root else child_prefix + "     "
                brief = " ".join(f"{k}={v}" for k, v in detail.items() if v is not None)
                lines.append(f"{marker}@{time:.3f} {kind} {brief}".rstrip())
            for i, child in enumerate(span.children):
                walk(child, child_prefix, i == len(span.children) - 1, False)

        walk(root, "", True, True)
        return "\n".join(lines)
