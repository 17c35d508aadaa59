"""RendezvousCache — hot lookups never leave the peer.

A client-side cache of resolved services (endpoints + WSDL text +
revision), consulted before any registry round-trip.  Three freshness
signals keep it honest:

- **TTL**: entries expire after ``lifetime`` seconds (the soft-state
  rule every discovery artefact in this stack follows), and past
  :data:`RENDEZVOUS_CACHE_CAP` names the least recently used goes;
- **gossip**: an accepted announcement with a higher freshness counter
  updates the cached endpoints in place; a tombstone or an unknown
  service key drops the entry so the next lookup refetches;
- **supervision**: a dead-health verdict for an endpoint strips it from
  every cached entry (and drops entries left empty).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.caching import SoftTable
from repro.observability import metrics as obs_metrics

#: service names a client keeps resolved, least recently used dropped first
RENDEZVOUS_CACHE_CAP = 4096


class CachedService:
    """One resolved service instance (a provider of a service name)."""

    __slots__ = ("service_key", "endpoints", "wsdl_text", "revision")

    def __init__(
        self, service_key: str, endpoints: list[str], wsdl_text: str, revision: int
    ):
        self.service_key = service_key
        self.endpoints = list(endpoints)
        self.wsdl_text = wsdl_text
        self.revision = revision


class RendezvousCache:
    """Per-client cache of resolved service names."""

    def __init__(self, clock: Callable[[], float], lifetime: float = 30.0):
        self.lifetime = lifetime
        #: service name -> {service_key -> CachedService}, never empty
        self._entries = SoftTable(RENDEZVOUS_CACHE_CAP, lifetime, clock, self._resized)
        self.invalidations = 0

    @property
    def hits(self) -> int:
        return self._entries.hits

    @property
    def misses(self) -> int:
        return self._entries.misses

    def _resized(self, *_evicted: Any) -> None:
        obs_metrics.set_gauge("discovery.cache.size", self.size)

    # ------------------------------------------------------------------
    def get(self, service: str) -> Optional[list[CachedService]]:
        """Cached resolutions of *service*, or None on miss/expiry."""
        items = self._entries.get(service)
        if items is None:
            obs_metrics.inc("discovery.cache.misses")
            return None
        obs_metrics.inc("discovery.cache.hits")
        return [items[key] for key in sorted(items)]

    def put(self, service: str, service_key: str, endpoints: list[str],
            wsdl_text: str, revision: int) -> None:
        items = self._entries.peek(service, {})
        held = items.get(service_key)
        if held is not None and revision < held.revision:
            return  # never cache something staler than what we hold
        items[service_key] = CachedService(service_key, endpoints, wsdl_text, revision)
        self._entries.put(service, items)
        self._resized()

    # ------------------------------------------------------------------
    def invalidate(self, service: str) -> None:
        if self._drop(service):
            self.invalidations += 1
            obs_metrics.inc("discovery.cache.invalidations")

    def _drop(self, service: str) -> bool:
        had = self._entries.pop(service) is not None
        if had:
            self._resized()
        return had

    def invalidate_endpoint(self, address: str) -> None:
        """Strip *address* everywhere (supervision said it is dead)."""
        emptied: list[str] = []
        touched = False
        for service, items in self._entries.items():
            for cached in items.values():
                if address in cached.endpoints:
                    cached.endpoints = [e for e in cached.endpoints if e != address]
                    touched = True
            dead_keys = [k for k, c in items.items() if not c.endpoints]
            for key in dead_keys:
                del items[key]
            if not items:
                emptied.append(service)
        for service in emptied:
            self._drop(service)
        if touched:
            self.invalidations += 1
            obs_metrics.inc("discovery.cache.invalidations")

    # ------------------------------------------------------------------
    def on_announcement(self, announcement: Any) -> None:
        """Gossip feed: reconcile a cached entry with fresher news.

        Same service key with a higher counter updates endpoints in
        place (and re-arms the TTL); a tombstone removes the provider; a
        service key we have never resolved invalidates the whole entry,
        forcing the next lookup to refetch the WSDL from the registry.
        """
        items = self._entries.peek(announcement.service)
        if items is None:
            return  # not cached: nothing to reconcile
        held = items.get(announcement.service_key) if announcement.service_key else None
        if held is None:
            # news about a provider we don't hold — our picture of this
            # service is incomplete, so refetch on next lookup
            self.invalidate(announcement.service)
            return
        if announcement.seq <= held.revision:
            return  # not fresher than what we hold
        if announcement.is_withdrawal:
            del items[announcement.service_key]
            if not items:
                self._drop(announcement.service)
            self.invalidations += 1
            obs_metrics.inc("discovery.cache.invalidations")
            return
        held.endpoints = list(announcement.endpoints)
        held.revision = announcement.seq
        self._entries.put(
            announcement.service, items, max(self.lifetime, announcement.valid_time)
        )
        obs_metrics.inc("discovery.cache.refreshed")

    def watch_health(self, monitor) -> None:
        """Dead-health verdicts invalidate cached endpoints."""
        from repro.supervision.health import DEAD

        def on_verdict(address: str, verdict: str) -> None:
            if verdict == DEAD:
                self.invalidate_endpoint(address)

        monitor.add_verdict_listener(on_verdict)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
