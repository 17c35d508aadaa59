"""Parsed-artifact caches for the message-codec fast path.

TerraService-style measurements put SOAP encode/decode at the top of
the web-service cost profile, and most of that work is *repeated*:
the same WSDL text is parsed per discovery, the same endpoint URI per
retransmission, the same envelope skeleton per invocation.  This module
is the one place that repetition is absorbed:

:class:`ArtifactCache`
    A small, named, bounded LRU map with hit/miss/eviction counters.
    Every cache in the codec layer is an instance of it, registered in
    a process-wide registry so operators can ask one question —
    :func:`cache_stats` — and see every cache's effectiveness.

Invalidation is explicit: callers that change the world (redeploys,
re-registrations) call :meth:`ArtifactCache.invalidate` /
:func:`clear_all_caches` rather than relying on TTL guesswork.
:func:`clear_all_caches` is also the operator's lever when a cache is
suspected of serving a stale artifact: everything derived is rebuilt
from its source on next use.  There is no switch that turns the caches
off; the slow paths they shortcut are ordinary functions
(``parse``, ``serialize``, ``SoapEnvelope.from_element``) that tests
and measurements call by name.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

_MISSING = object()


@dataclass
class CacheStats:
    """Mutable counters describing one cache's lifetime behaviour."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    size: int = 0
    max_entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "size": self.size,
            "max_entries": self.max_entries,
        }


_registry: dict[str, "ArtifactCache"] = {}
_registry_lock = threading.Lock()


class ArtifactCache:
    """A named, bounded LRU cache with observable counters.

    Keys must be hashable; values are shared between callers, so cached
    artifacts are treated as immutable by convention (parsed WSDL
    definitions, frozen dataclasses, pre-split envelope templates).
    """

    def __init__(self, name: str, max_entries: int = 256):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.name = name
        self.max_entries = max_entries
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self.stats = CacheStats(max_entries=max_entries)
        with _registry_lock:
            _registry[name] = self

    # -- lookups -----------------------------------------------------------
    def get(self, key: Any, default: Any = None) -> Any:
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.stats.misses += 1
            return default
        self._data.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Any, value: Any) -> Any:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)
            self.stats.evictions += 1
        self.stats.size = len(self._data)
        return value

    def recent(self) -> Iterator[Any]:
        """Cached values, most recently used first; no counter moves."""
        return reversed(self._data.values())

    def get_or_build(self, key: Any, build: Callable[[], Any]) -> Any:
        """Return the cached value for *key*, building (and storing) on miss."""
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = build()
            self.put(key, value)
        return value

    # -- invalidation ------------------------------------------------------
    def invalidate(self, key: Any) -> bool:
        """Drop one entry; returns True if it was present."""
        present = self._data.pop(key, _MISSING) is not _MISSING
        if present:
            self.stats.invalidations += 1
            self.stats.size = len(self._data)
        return present

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = len(self._data)
        self._data.clear()
        self.stats.invalidations += dropped
        self.stats.size = 0
        return dropped

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __repr__(self) -> str:
        return (
            f"<ArtifactCache {self.name!r} {len(self._data)}/{self.max_entries} "
            f"hits={self.stats.hits} misses={self.stats.misses}>"
        )


# ----------------------------------------------------------------------
# registry-wide observability and control
# ----------------------------------------------------------------------
def cache_stats() -> dict[str, dict[str, Any]]:
    """Hit/miss counters of every registered cache, keyed by cache name."""
    with _registry_lock:
        return {name: cache.stats.as_dict() for name, cache in sorted(_registry.items())}


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
        cache.stats = CacheStats(max_entries=cache.max_entries, size=len(cache))
