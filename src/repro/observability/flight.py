"""Always-on flight recorder (E17): the last N events, post-mortem.

A span tracer answers "show me this invocation"; a flight recorder
answers "what was the node doing just before it died".  It keeps a
bounded ring of the most recent structured events from every source it
listens on — cheap enough to leave on permanently — and freezes a copy
(a *dump*) the instant something catastrophic happens: a fault-schedule
kill, replica state divergence, or a circuit breaker tripping open.
Dumps survive the ring rolling over, so the forensic window is intact
long after the events that filled it have been evicted.

Events are summarised to primitives at capture time: envelope objects
and other live references are dropped, so a dump is always JSON-safe
and holding it never pins engine state alive.  The latest dump (or a
live snapshot when nothing has triggered) is fetchable over the wire
via the introspection service's ``GetFlightRecord`` operation.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Optional

from repro.observability import metrics as obs_metrics
from repro.observability.recorder import TreeListener

#: dump record schema: bump when the record shape changes
FLIGHT_SCHEMA = "repro.flight/1"

#: event kinds that freeze a post-mortem dump the moment they are seen
DUMP_TRIGGERS = frozenset({"node-killed", "state-diverged", "circuit-open"})

#: ring depth per recorder, retained dumps before dropping new ones
CAPACITY = 512
MAX_DUMPS = 32

_PRIMITIVES = (str, int, float, bool, type(None))


def _summarise(detail: Any) -> dict[str, Any]:
    """Primitive-only copy of an event detail dict (drop live objects)."""
    if not isinstance(detail, dict):
        return {}
    return {k: v for k, v in detail.items() if isinstance(v, _PRIMITIVES)}


class FlightRecorder(TreeListener):
    """A bounded ring of recent events plus trigger-frozen dumps."""
    peer_slot = "flight"

    def __init__(self, metrics: Optional[Any] = None):
        self.metrics = metrics if metrics is not None else obs_metrics
        self._ring: deque[dict[str, Any]] = deque(maxlen=CAPACITY)
        self.dumps: list[dict[str, Any]] = []
        self.dumps_dropped = 0
        self.events_seen = 0
        self._attached: list = []

    # -- capture -----------------------------------------------------------
    def observe(self, event: Any, peer: Optional[str] = None) -> None:
        kind = getattr(event, "kind", None)
        if kind is None:
            return
        record: dict[str, Any] = {
            "time": getattr(event, "time", None),
            "kind": kind,
            **_summarise(getattr(event, "detail", None)),
        }
        if peer is not None:
            record["peer"] = peer
        source = getattr(event, "source", None)
        if isinstance(source, str):
            record.setdefault("source", source)
        self._ring.append(record)
        self.events_seen += 1
        self.metrics.inc("flight.events")
        if kind in DUMP_TRIGGERS:
            self.dump(reason=kind, at=record["time"])

    # -- dumps -------------------------------------------------------------
    def dump(self, reason: str, at: Optional[float] = None) -> Optional[dict[str, Any]]:
        """Freeze a copy of the ring.  Returns the dump, or ``None``
        when the dump store is full (counted, never silent)."""
        if len(self.dumps) >= MAX_DUMPS:
            self.dumps_dropped += 1
            self.metrics.inc("flight.dumps_dropped")
            return None
        dump = {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "time": at,
            "events_seen": self.events_seen,
            "events": list(self._ring),
        }
        self.dumps.append(dump)
        self.metrics.inc("flight.dumps")
        return dump

    def latest_dump(self) -> Optional[dict[str, Any]]:
        return self.dumps[-1] if self.dumps else None

    def snapshot(self) -> dict[str, Any]:
        """A live (un-frozen) view of the ring, dump-shaped."""
        return {
            "schema": FLIGHT_SCHEMA,
            "reason": "snapshot",
            "time": self._ring[-1]["time"] if self._ring else None,
            "events_seen": self.events_seen,
            "events": list(self._ring),
        }

    def to_json(self) -> str:
        """The latest dump — or a live snapshot when nothing has
        triggered — as JSON (the ``GetFlightRecord`` payload)."""
        dump = self.latest_dump()
        payload = dict(dump) if dump is not None else self.snapshot()
        payload["dumps"] = len(self.dumps)
        return json.dumps(payload, default=str)

    def __len__(self) -> int:
        return len(self._ring)
