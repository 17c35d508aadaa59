"""One soft-state table, and the parsed-artifact caches built on it.

P2P nodes are transient (PAPER.md §III): what a peer holds about others
is soft state — an advert, lease or announcement nobody refreshes
expires — and a table anyone can feed holds no more than its cap.
Every such table in this stack is a :class:`SoftTable`.

The codec caches are :class:`ArtifactCache` s: untimed SoftTables whose
hits refresh recency, registered so that :func:`cache_stats` shows each
one's effectiveness.  SOAP encode/decode tops the web-service cost
profile (TerraService) and most of it repeats: the same WSDL text,
endpoint URI or envelope skeleton.  A cached artifact is a function of
its key, so it never goes stale by age: callers that change the world
call :meth:`ArtifactCache.invalidate` / :func:`clear_all_caches`, also
the lever when a cache is suspected of serving a stale artifact.  No
switch turns the caches off; the slow paths they shortcut (``parse``,
``serialize``, ``SoapEnvelope.from_element``) are called by name.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from math import inf
from typing import Any, Callable, Iterator, Optional

_MISSING = object()


class SoftTable:
    """A key → value table with a cap and, optionally, expiry.

    Past *cap* the oldest entry goes; a :meth:`get` hit makes its entry
    the newest, a :meth:`peek` does not (a table read by ``peek`` is a
    FIFO).  An entry put with a ``valid_time`` (the put's, else the
    table's) lapses that many *clock* seconds later: a read drops it,
    and :meth:`purge` (run by ``len``, iteration and a put past the cap)
    drops every lapsed one, reading the clock only once the soonest
    deadline is due.  A table with no timed entry never reads its clock.
    *on_evict(key, value)* hears each entry gone by cap or by expiry
    (not one popped or cleared).
    """

    def __init__(self, cap: int, valid_time: Optional[float] = None,
                 clock: Optional[Callable[[], float]] = None,
                 on_evict: Optional[Callable[[Any, Any], None]] = None):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.cap, self.valid_time, self._clock, self._on_evict = cap, valid_time, clock, on_evict
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self._deadlines: dict[Any, float] = {}  # timed entries only
        self._soonest = inf  # no deadline held is earlier
        self.hits = self.misses = self.evictions = self.expiries = 0

    def get(self, key: Any, default: Any = None) -> Any:
        """The live value under *key*, counted as a hit or a miss; a
        hit becomes the newest entry."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING or (self._deadlines and self._lapsed(key)):
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def peek(self, key: Any, default: Any = None) -> Any:
        """The live value under *key*; no counter or recency moves."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING or (self._deadlines and self._lapsed(key)):
            return default
        return value

    def __contains__(self, key: Any) -> bool:
        return self.peek(key, _MISSING) is not _MISSING

    def __len__(self) -> int:
        self.purge()
        return len(self._data)

    def __iter__(self) -> Iterator[Any]:
        self.purge()
        return iter(list(self._data))

    def items(self) -> list[tuple[Any, Any]]:
        """Live entries, oldest first (a snapshot: safe to mutate under)."""
        self.purge()
        return list(self._data.items())

    def put(self, key: Any, value: Any, valid_time: Optional[float] = None) -> Any:
        """Store *value* as the newest entry, living *valid_time* (the
        table's when None; forever when both are), and return it."""
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        valid_time = self.valid_time if valid_time is None else valid_time
        if valid_time is not None:
            deadline = self._clock() + valid_time
            self._deadlines[key] = deadline
            if deadline < self._soonest:
                self._soonest = deadline
        elif self._deadlines:
            self._deadlines.pop(key, None)
        if len(data) > self.cap:
            if self._deadlines:
                self.purge()
            while len(data) > self.cap:
                old_key, old_value = data.popitem(last=False)
                if self._deadlines:
                    self._deadlines.pop(old_key, None)
                self.evictions += 1
                if self._on_evict is not None:
                    self._on_evict(old_key, old_value)
        return value

    def pop(self, key: Any, default: Any = None) -> Any:
        """Remove *key* and return its value (*default* when absent)."""
        if self._deadlines:
            self._deadlines.pop(key, None)
        return self._data.pop(key, default)

    def clear(self) -> int:
        """Drop every entry; returns how many were held."""
        dropped = len(self._data)
        self._data.clear()
        self._deadlines.clear()
        self._soonest = inf
        return dropped

    def purge(self) -> int:
        """Expire every lapsed entry; returns how many."""
        if not self._deadlines:
            return 0
        now = self._clock()
        if now < self._soonest:
            return 0
        lapsed = [key for key, deadline in self._deadlines.items() if deadline <= now]
        self._soonest = min((d for d in self._deadlines.values() if d > now), default=inf)
        self._expire(lapsed)
        return len(lapsed)

    def _lapsed(self, key: Any) -> bool:  # expire *key* if it is due
        deadline = self._deadlines.get(key)
        if deadline is None or deadline > self._clock():
            return False
        self._expire([key])
        return True

    def _expire(self, keys: list[Any]) -> None:
        # all leave before any callback runs: a callback may use the table
        gone = [(key, self._data.pop(key)) for key in keys]
        for key in keys:
            del self._deadlines[key]
        self.expiries += len(gone)
        if self._on_evict is not None:
            for key, value in gone:
                self._on_evict(key, value)


_registry: dict[str, "ArtifactCache"] = {}
_registry_lock = threading.Lock()


class ArtifactCache(SoftTable):
    """A named, registered LRU :class:`SoftTable` with no expiry.  Its
    values are shared between callers, so immutable by convention."""

    def __init__(self, name: str, max_entries: int = 256):
        super().__init__(max_entries)
        self.name = name
        self.invalidations = 0
        with _registry_lock:
            _registry[name] = self

    def stats(self) -> dict[str, Any]:
        """Lifetime counters (since the last reset) and occupancy."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits, "misses": self.misses,
            "hit_rate": round(self.hits / lookups, 4) if lookups else 0.0,
            "evictions": self.evictions, "invalidations": self.invalidations,
            "size": len(self._data), "max_entries": self.cap,
        }

    def recent(self) -> Iterator[Any]:
        """Cached values, most recently used first; no counter moves."""
        return reversed(self._data.values())

    def invalidate(self, key: Any) -> bool:
        """Drop one entry; returns True if it was present."""
        present = self.pop(key, _MISSING) is not _MISSING
        self.invalidations += present
        return present

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = super().clear()
        self.invalidations += dropped
        return dropped

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = self.invalidations = 0


# ----------------------------------------------------------------------
# registry-wide observability and control
# ----------------------------------------------------------------------
def cache_stats() -> dict[str, dict[str, Any]]:
    """Hit/miss counters of every registered cache, keyed by cache name."""
    with _registry_lock:
        return {name: cache.stats() for name, cache in sorted(_registry.items())}


def clear_all_caches() -> int:
    """Explicitly invalidate every registered cache; returns entries dropped."""
    with _registry_lock:
        caches = list(_registry.values())
    return sum(cache.clear() for cache in caches)


def reset_cache_stats() -> None:
    """Zero every counter (benchmark hygiene between phases)."""
    with _registry_lock:
        caches = list(_registry.values())
    for cache in caches:
        cache.reset_stats()
