"""Duplicate suppression keyed on ``wsa:MessageID``.

Client retries deliberately reuse the MessageID of the original send,
so a provider that remembers recently-answered ids can guarantee
at-most-once *execution* under at-least-once *delivery* — the property
that makes retransmission safe for non-idempotent stateful services
(the paper's hosted "code sources" hold state, §III).

The window is a :class:`~repro.caching.SoftTable` of ``DEDUP_CAP``
entries with FIFO eviction, a ring over *first-insertion* order —
re-remembering an id refreshes its retained value but never its place
in the ring.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.caching import SoftTable

#: MessageIDs a service's window remembers, oldest first out
DEDUP_CAP = 256


class DedupWindow:
    """Recently-seen MessageIDs with their retained responses."""

    def __init__(self):
        #: message id -> [retained value]: only ``peek``ed, so a FIFO;
        #: a re-remember fills the list, keeping its place
        self._entries = SoftTable(DEDUP_CAP)
        self.duplicates = 0  #: hits observed via seen()/get()/__contains__

    @property
    def evicted(self) -> int:
        """Entries gone by the cap."""
        return self._entries.evictions

    # ------------------------------------------------------------------
    def remember(self, message_id: str, value: Any = None) -> None:
        """Record *message_id* (optionally with a retained response).

        Re-remembering a live id only refreshes its retained value —
        the entry keeps its original slot in the FIFO ring, so a chatty
        retransmitter cannot indefinitely shield its id from eviction.
        """
        held = self._entries.peek(message_id)
        if held is None:
            self._entries.put(message_id, [value])
        else:
            held[0] = value

    def seen(self, message_id: Optional[str]) -> bool:
        """Is *message_id* a live (non-expired) duplicate?  Counts hits."""
        if message_id is None:
            return False
        hit = message_id in self._entries
        self.duplicates += hit
        return hit

    def get(self, message_id: str) -> Any:
        """The retained value for *message_id* (None when absent).
        A present id counts as a duplicate hit."""
        held = self._entries.peek(message_id)
        if held is None:
            return None
        self.duplicates += 1
        return held[0]

    def __contains__(self, message_id: object) -> bool:
        hit = message_id in self._entries
        self.duplicates += hit
        return hit

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def __repr__(self) -> str:
        return f"<DedupWindow {len(self)}/{DEDUP_CAP} dups={self.duplicates}>"
