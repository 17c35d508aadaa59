"""repro.observability — message-correlated tracing and metrics.

Three pieces, each usable alone:

- :mod:`~repro.observability.metrics` — the registry every subsystem
  reports into (counters / gauges / fixed-bucket histograms, plain-text
  exporter, external collectors such as the codec cache stats);
- :mod:`~repro.observability.spans` — :class:`SpanTracer`, the
  root-of-tree listener that stitches events into per-invocation span
  trees keyed by ``wsa:MessageID`` (retransmits, failover hops and
  server-side processing all land in one tree);
- :mod:`~repro.observability.introspection` — the dogfooded service a
  peer hosts about itself (``GetMetrics`` / ``GetTrace`` /
  ``ListServices`` plus the E17 cluster operations), deployed by
  :func:`host_introspection`.

The E17 cluster plane adds four more, still each usable alone:

- :mod:`~repro.observability.tracecontext` — the wire-propagated
  ``repro:TraceContext`` header (W3C-traceparent-shaped) that makes one
  trace id span client → primary → replicas across nodes;
- :mod:`~repro.observability.flight` — the always-on flight recorder:
  a bounded ring of recent events frozen into post-mortem dumps on
  kills / divergence / breaker opens;
- :mod:`~repro.observability.slo` — per-service availability/latency
  objectives judged by multi-window burn rates;
- :mod:`~repro.observability.cluster` — counter/histogram digests
  merged across nodes, fed by gossip piggyback and introspection
  scrapes.

Shared plumbing: :mod:`~repro.observability.stats` (pure-python
quantiles — this package never imports numpy), the event-kind registry
(:mod:`~repro.observability.kinds`) and the zero-allocation codec
recorder hook (:mod:`~repro.observability.recorder`).
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".cluster": (
        "ClusterMetricsAgent", "ClusterMetricsStore", "digest_registry",
        "merge_digests",
    ),
    ".flight": ("DUMP_TRIGGERS", "FlightRecorder"),
    ".introspection": ("INTROSPECTION_NS", "IntrospectionService", "host_introspection"),
    ".kinds": ("FAMILIES", "KIND_REGISTRY", "KNOWN_KINDS", "family_of", "is_known"),
    ".metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "default_registry",
        "reset_default_registry", "set_metrics_enabled",
    ),
    ".recorder": ("NULL_RECORDER", "NullRecorder", "current_recorder", "set_recorder"),
    ".slo": ("SloEngine", "SloPolicy"),
    ".spans": ("Span", "SpanTracer"),
    ".stats": ("percentile", "quantile", "quantile_sorted", "summarize"),
    ".tracecontext": (
        "TRACE_HEADER", "TRACE_NS", "TraceContext", "current_context",
        "propagation_enabled", "set_propagation",
    ),
})
