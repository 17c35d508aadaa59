"""The metrics registry: counters, gauges, fixed-bucket histograms.

TerraService.NET's operations story — per-request accounting turned a
Web-service demo into a service — is the model here: every subsystem
(invocation, transports, hosting, reliability, supervision, codec
caches) reports into one :class:`MetricsRegistry` that can answer
"what has this peer been doing" with a single snapshot.

Design constraints, in order:

1. *Cheap.*  The hot-path cost of one metric update is a dict lookup
   plus an integer add; histograms do one bisect over a small tuple of
   bucket bounds.  A disabled registry costs one boolean check.
2. *Pure python.*  No numpy — quantiles come from the fixed buckets
   (:meth:`Histogram.quantile` interpolates within the bucket that
   holds the rank), so the registry works on constrained peers.
3. *One pane of glass.*  Named collectors fold external sources into
   the snapshot; the codec layer's :func:`repro.caching.cache_stats`
   is registered by default, so cache effectiveness appears next to
   request counters instead of behind a separate API.

A process-wide default registry backs the module-level :func:`inc` /
:func:`observe` / :func:`set_gauge` helpers that the instrumentation
points in core/transport/reliability/supervision call; tests and
benchmarks that need isolation either :meth:`MetricsRegistry.reset`
it or construct private registries.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, Iterable, Optional

#: Default histogram bounds (seconds): tuned for virtual-time latencies
#: from sub-millisecond LAN hops to multi-second retry schedules.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, by: int = 1) -> None:
        self.value += by


class Gauge:
    """A point-in-time value (queue depth, breaker state, cache size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Fixed-bucket histogram with quantile estimation.

    Observations land in the bucket whose upper bound is the first one
    ≥ the value (one bisect); count/sum/min/max are exact, quantiles
    are interpolated within the winning bucket — accurate to a bucket
    width, which is what capacity planning needs and all a
    constant-memory recorder can honestly promise.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Optional[Iterable[float]] = None):
        self.name = name
        self.bounds: tuple[float, ...] = tuple(sorted(bounds)) if bounds else DEFAULT_BUCKETS
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the *q*-quantile (0 ≤ q ≤ 1) from the buckets."""
        if self.count == 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                lower = self.bounds[i - 1] if i > 0 else (self.min or 0.0)
                upper = self.bounds[i] if i < len(self.bounds) else (self.max or lower)
                lower = max(lower, self.min or lower)
                upper = min(upper, self.max or upper)
                if upper <= lower:
                    return lower
                # linear interpolation inside the winning bucket
                into = (rank - (cumulative - bucket_count)) / bucket_count
                return lower + (upper - lower) * into
        return self.max

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


#: a collector folds an external stats source into the snapshot
Collector = Callable[[], dict[str, Any]]


class MetricsRegistry:
    """Named counters / gauges / histograms plus external collectors."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: dict[str, Collector] = {}

    # -- instrument access (creating on first use) -------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str, bounds: Optional[Iterable[float]] = None) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    # -- hot-path update helpers ------------------------------------------
    def inc(self, name: str, by: int = 1) -> None:
        if self.enabled:
            self.counter(name).inc(by)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.gauge(name).set(value)

    # -- external sources --------------------------------------------------
    def add_collector(self, name: str, collector: Collector) -> None:
        self._collectors[name] = collector

    def remove_collector(self, name: str) -> None:
        self._collectors.pop(name, None)

    # -- output ------------------------------------------------------------
    def get(self, name: str) -> int:
        """Current value of counter *name* (0 if never incremented)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def snapshot(self) -> dict[str, Any]:
        """Everything this registry knows, as plain data."""
        out: dict[str, Any] = {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.snapshot() for n, h in sorted(self._histograms.items())},
        }
        for name, collector in sorted(self._collectors.items()):
            try:
                out[name] = collector()
            except Exception as exc:  # noqa: BLE001 - collector boundary
                out[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return out

    def render_text(self) -> str:
        """The plain-text snapshot exporter: one line per instrument."""
        snap = self.snapshot()
        lines = ["# metrics snapshot"]
        for name, value in snap["counters"].items():
            lines.append(f"counter {name} {value}")
        for name, value in snap["gauges"].items():
            lines.append(f"gauge {name} {value:g}")
        for name, h in snap["histograms"].items():
            fields = " ".join(
                f"{k}={h[k]:.6g}" for k in ("mean", "p50", "p95", "p99")
                if h[k] is not None
            )
            lines.append(f"histogram {name} count={h['count']} {fields}".rstrip())
        for section, payload in snap.items():
            if section in ("counters", "gauges", "histograms"):
                continue
            if isinstance(payload, dict):
                for name, value in sorted(payload.items()):
                    lines.append(f"{section} {name} {value}")
            else:
                lines.append(f"{section} {payload}")
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop every instrument (collectors stay registered)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


def _collect_cache_stats() -> dict[str, Any]:
    # function-level import: caching must stay importable without
    # observability and vice versa
    from repro.caching import cache_stats

    return cache_stats()


def _make_default() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.add_collector("caches", _collect_cache_stats)
    return registry


_default = _make_default()


def default_registry() -> MetricsRegistry:
    """The process-wide registry the built-in instrumentation reports to."""
    return _default


def set_metrics_enabled(enabled: bool) -> None:
    """Globally switch the default registry's updates on or off."""
    _default.enabled = bool(enabled)


def reset_default_registry() -> None:
    """Zero the default registry (benchmark/test hygiene between phases)."""
    _default.reset()


# -- module-level shortcuts used by instrumentation points -----------------
def inc(name: str, by: int = 1) -> None:
    if _default.enabled:
        # the hot path: one lookup, no method calls once the counter exists
        counter = _default._counters.get(name) or _default.counter(name)
        counter.value += by


def observe(name: str, value: float) -> None:
    if _default.enabled:
        _default.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    if _default.enabled:
        _default.gauge(name).set(value)
