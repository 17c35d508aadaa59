"""The codec-layer recorder hook: zero-cost when nobody is listening.

The message codec's fast path (template-cache splices, wire-template
hits) runs thousands of times per second; instrumenting it must not
tax the common case where no tracer is installed.  The contract:

- hot paths fetch the current recorder and check its ``active`` flag
  *before* building any event detail — when the :class:`NullRecorder`
  is installed the entire cost is one attribute check, and **zero
  objects are allocated per event** (guarded by a CI test);
- a :class:`~repro.observability.spans.SpanTracer` (or anything with
  the same two-member surface) is installed with :func:`set_recorder`
  and then receives ``codec_event(kind, detail)`` calls.

It also holds :class:`TreeListener`, the attach/detach plumbing the
tree-listening instruments (span tracer, flight recorder, SLO engine)
share.  This module deliberately imports nothing from the rest of the
repo so leaf modules (``repro.wsa.headers``, ``repro.soap.envelope``)
can hook in without import cycles.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class NullRecorder:
    """The inactive recorder: hot paths see ``active`` False and stop."""

    active = False

    def codec_event(self, kind: str, detail: Optional[dict[str, Any]] = None) -> None:
        """Never called on the guarded paths; a safe no-op if it is."""


NULL_RECORDER = NullRecorder()
_current: Any = NULL_RECORDER


def current_recorder() -> Any:
    """The active recorder (the shared :class:`NullRecorder` when none)."""
    return _current


def set_recorder(recorder: Optional[Any]) -> Any:
    """Install *recorder* (None restores the null recorder); returns the
    previously installed one so callers can restore it."""
    global _current
    previous = _current
    _current = recorder if recorder is not None else NULL_RECORDER
    return previous


class _Tap:
    """One source's listener: hands each event to ``observe(event, peer)``."""

    __slots__ = ("observe", "peer")

    def __init__(self, observe: Callable[[Any, Optional[str]], None], peer: Optional[str]):
        self.observe = observe
        self.peer = peer

    def message_received(self, event: Any) -> None:
        self.observe(event, self.peer)


class TreeListener:
    """Attach/detach for an instrument with ``observe(event, peer)`` and
    an ``_attached`` list, on any source with ``add_listener`` /
    ``remove_listener`` (a WSPeer's tree root, a fault schedule)."""

    _attached: list
    #: the attribute an installed peer holds this instrument under (what
    #: its introspection service serves)
    peer_slot: str

    def attach(self, source: Any, peer: Optional[str] = None) -> None:
        """Listen on *source*, tagging its events with *peer* so
        multi-peer records say who did what."""
        tap = _Tap(self.observe, peer)  # type: ignore[attr-defined]
        source.add_listener(tap)
        self._attached.append((source, tap))

    def install(self, *peers: Any) -> Any:
        """Attach to each WSPeer in *peers* (tagged by ``peer.name``)
        and register with it as ``peer.<peer_slot>``."""
        for peer in peers:
            self.attach(peer, getattr(peer, "name", None))
            setattr(peer, self.peer_slot, self)
        return self

    def detach(self) -> None:
        """Stop listening everywhere; what was recorded is kept."""
        for source, tap in self._attached:
            try:
                source.remove_listener(tap)
            except ValueError:
                pass
        self._attached.clear()
