"""Cluster-wide metric aggregation (E17): digests over gossip + scrape.

One peer's :class:`~repro.observability.metrics.MetricsRegistry` answers
"what has *this* node been doing"; operating a cluster needs the sum.
Two transport paths feed the same store:

- **gossip piggyback** — each node periodically folds its registry into
  a compact digest and rides it on the E12 epidemic overlay as a
  :class:`~repro.discovery.gossip.MetricDigest` frame.  Per-origin
  monotonic sequence numbers make acceptance idempotent and ordering
  clock-free, exactly like service announcements;
- **introspection scrape** — a node can pull another's digest directly
  over the ordinary service machinery (``GetMetricsDigest``), for
  pull-based collection or to backfill a partitioned overlay.

Merging is type-aware: counters sum, gauges stay per-origin (summing a
queue depth across nodes is meaningful; summing a breaker state is
not — the reader decides), and histograms bucket-merge when bounds
agree (mismatches are counted, never silently averaged).  The merged
view is served by ``GetClusterMetrics``.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Optional

from repro.observability import metrics as obs_metrics
from repro.observability.metrics import Histogram, MetricsRegistry

#: digest record schema: bump when the shape changes
DIGEST_SCHEMA = 1

#: default virtual-seconds between periodic gossip publishes
DEFAULT_PUBLISH_INTERVAL = 5.0


def digest_registry(registry: MetricsRegistry, origin: str, seq: int,
                    now: float = 0.0) -> dict[str, Any]:
    """Fold *registry* into a JSON-safe digest dict.

    Histograms ship raw buckets (bounds + counts + exact count/sum/
    min/max), not quantiles — quantiles do not merge; buckets do.
    """
    snap = registry.snapshot()
    histograms: dict[str, Any] = {}
    # raw bucket access: quantiles are recomputed after merging, so the
    # digest must carry the mergeable representation
    for name, hist in sorted(registry._histograms.items()):
        histograms[name] = {
            "bounds": list(hist.bounds),
            "counts": list(hist.counts),
            "count": hist.count,
            "sum": hist.total,
            "min": hist.min,
            "max": hist.max,
        }
    return {
        "schema": DIGEST_SCHEMA,
        "origin": origin,
        "seq": seq,
        "time": now,
        "counters": snap["counters"],
        "gauges": snap["gauges"],
        "histograms": histograms,
    }


def merge_digests(digests: list[dict[str, Any]]) -> dict[str, Any]:
    """Combine per-node digests into one cluster view."""
    counters: dict[str, int] = {}
    gauges: dict[str, dict[str, float]] = {}
    merged_hists: dict[str, dict[str, Any]] = {}
    skipped = 0
    origins: list[str] = []
    for digest in digests:
        origin = digest.get("origin", "?")
        origins.append(origin)
        for name, value in digest.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in digest.get("gauges", {}).items():
            gauges.setdefault(name, {})[origin] = value
        for name, h in digest.get("histograms", {}).items():
            held = merged_hists.get(name)
            if held is None:
                merged_hists[name] = {
                    "bounds": list(h["bounds"]),
                    "counts": list(h["counts"]),
                    "count": h["count"],
                    "sum": h["sum"],
                    "min": h["min"],
                    "max": h["max"],
                }
                continue
            if held["bounds"] != list(h["bounds"]):
                skipped += 1  # incompatible buckets: counted, not averaged
                continue
            held["counts"] = [a + b for a, b in zip(held["counts"], h["counts"])]
            held["count"] += h["count"]
            held["sum"] += h["sum"]
            for field, pick in (("min", min), ("max", max)):
                if h[field] is not None:
                    held[field] = (h[field] if held[field] is None
                                   else pick(held[field], h[field]))
    histograms: dict[str, Any] = {}
    for name, h in sorted(merged_hists.items()):
        # rebuild a Histogram so quantiles interpolate over merged buckets
        hist = Histogram(name, h["bounds"])
        hist.counts = list(h["counts"])
        hist.count = h["count"]
        hist.total = h["sum"]
        hist.min = h["min"]
        hist.max = h["max"]
        histograms[name] = hist.snapshot()
    return {
        "schema": DIGEST_SCHEMA,
        "origins": sorted(origins),
        "counters": dict(sorted(counters.items())),
        "gauges": {n: dict(sorted(per.items()))
                   for n, per in sorted(gauges.items())},
        "histograms": histograms,
        "histograms_skipped": skipped,
    }


class ClusterMetricsStore:
    """Freshest digest per origin, accepted seq-monotonically."""

    def __init__(self) -> None:
        self._digests: dict[str, dict[str, Any]] = {}
        self.stale = 0
        self.malformed = 0

    def accept(self, digest: dict[str, Any]) -> bool:
        origin = digest.get("origin")
        seq = digest.get("seq")
        if not origin or not isinstance(seq, int):
            self.malformed += 1
            return False
        held = self._digests.get(origin)
        if held is not None and seq <= held["seq"]:
            self.stale += 1
            return False
        self._digests[origin] = digest
        return True

    def digests(self) -> list[dict[str, Any]]:
        return [self._digests[o] for o in sorted(self._digests)]

    def origins(self) -> list[str]:
        return sorted(self._digests)

    def __len__(self) -> int:
        return len(self._digests)


class ClusterMetricsAgent:
    """One node's participation in cluster metric aggregation.

    Wire it to a gossip node to publish/receive digests epidemically;
    wire it to a peer to scrape others (and be scraped) through
    introspection.  Both paths land in the same per-origin store.
    """

    def __init__(
        self,
        peer: Any = None,
        registry: Optional[MetricsRegistry] = None,
        gossip: Optional[Any] = None,
        clock: Optional[Callable[[], float]] = None,
        origin: Optional[str] = None,
    ):
        self._peer = peer
        self.registry = (registry if registry is not None
                         else obs_metrics.default_registry())
        self.origin = origin or getattr(peer, "name", None) or "local"
        self._clock = clock or getattr(peer, "_clock", None) or (lambda: 0.0)
        self.store = ClusterMetricsStore()
        self.gossip = gossip
        self._seq = 0
        self._timer = None  # the publish cycle, while started
        if gossip is not None:
            gossip.add_digest_listener(self._on_digest)
        if peer is not None:  # what the peer's introspection serves
            peer.cluster_metrics = self

    # -- gossip path ---------------------------------------------------
    def _on_digest(self, digest: Any) -> None:
        try:
            payload = json.loads(digest.payload)
        except (ValueError, TypeError):
            self.store.malformed += 1
            return
        self.store.accept(payload)

    def local_digest(self) -> dict[str, Any]:
        """A fresh digest of the local registry (bumps our seq)."""
        self._seq += 1
        return digest_registry(self.registry, self.origin, self._seq,
                               self._clock())

    def publish(self) -> dict[str, Any]:
        """Digest the local registry and gossip it (when wired).

        The gossip node's self-accept loops the digest back through
        :meth:`_on_digest`, so our own store always holds our freshest.
        """
        digest = self.local_digest()
        if self.gossip is not None:
            self.gossip.announce_digest(json.dumps(digest), seq=digest["seq"])
        else:
            self.store.accept(digest)
        return digest

    def start(self, kernel: Any,
              interval: float = DEFAULT_PUBLISH_INTERVAL) -> None:
        """Publish every *interval* virtual seconds on *kernel*."""
        if self._timer is None:
            self._timer = kernel.every(interval, self.publish)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- scrape path ---------------------------------------------------
    def scrape(self, handle: Any, via: Any = None) -> bool:
        """Pull a digest from another node's introspection service."""
        invoker = via if via is not None else self._peer
        text = invoker.invoke(handle, "GetMetricsDigest")
        try:
            payload = json.loads(text)
        except (ValueError, TypeError):
            self.store.malformed += 1
            return False
        return self.store.accept(payload)

    # -- reading -------------------------------------------------------
    def cluster_snapshot(self) -> dict[str, Any]:
        """The merged cluster view, always including a live local digest."""
        digests = [d for d in self.store.digests()
                   if d.get("origin") != self.origin]
        digests.append(digest_registry(self.registry, self.origin,
                                       self._seq, self._clock()))
        merged = merge_digests(digests)
        merged["nodes"] = merged.pop("origins")
        merged["stale_rejected"] = self.store.stale
        return merged

    def to_json(self) -> str:
        """The ``GetClusterMetrics`` payload."""
        return json.dumps(self.cluster_snapshot(), default=str)
