"""The dogfooded introspection service: WSPeer describing itself.

The strongest claim the paper makes for symmetric peers is that a
node's capabilities are just services — so the observability layer's
own outputs are exposed the same way everything else is: a live
:class:`IntrospectionService` object deployed through the ordinary
container/deployer path, invocable over whichever binding the peer
speaks (HTTP or P2PS), discoverable like any other service.

Operations (RPC-style, results as plain strings so any client can
read them without a struct registry):

- ``GetMetrics()`` — the peer's metrics registry rendered as the
  plain-text snapshot;
- ``GetTrace(message_id)`` — the stitched span tree for one logical
  invocation as JSON (the JSONL exporter's record shape);
- ``GetDistributedTrace(trace_id)`` — every invocation tagged with one
  wire trace id, stitched across nodes (E17);
- ``GetFlightRecord()`` — the flight recorder's latest post-mortem
  dump, or a live snapshot when nothing has triggered (E17);
- ``GetMetricsDigest()`` — the local registry as a mergeable digest,
  the scrape half of cluster aggregation (E17);
- ``GetClusterMetrics()`` — the merged cluster view: gossiped +
  scraped digests folded together (E17);
- ``GetSloStatus()`` — per-service burn rates and health (E17);
- ``ListServices()`` — the peer's deployed services as JSON.

Error results share one documented shape::

    {"error": {"code": "<machine-readable>", "message": "<human>"},
     ...request echo fields...}

so a caller can always dispatch on ``payload["error"]["code"]``.

Hosting the tracer's data over the traced machinery is intentional:
if the span tree for a failover hop cannot itself be fetched through
the container, the observability layer does not actually work.
"""

from __future__ import annotations

import json
from typing import Any

from repro.observability import metrics as obs_metrics

#: namespace the introspection service publishes under
INTROSPECTION_NS = "urn:repro:introspection"

#: the operations exposed through the container (deploy ``include=`` list)
OPERATIONS = ("GetMetrics", "GetTrace", "GetDistributedTrace",
              "GetFlightRecord", "GetMetricsDigest", "GetClusterMetrics",
              "GetSloStatus", "ListServices")


def _error(code: str, message: str, **echo: Any) -> str:
    """The documented error shape: a structured object, never a bare
    string, so callers dispatch on ``payload["error"]["code"]``."""
    return json.dumps({"error": {"code": code, "message": message}, **echo})


class IntrospectionService:
    """A live object the container exposes; one per hosting peer.

    Each operation reads the facility installed on the hosting peer
    (``peer.tracer`` / ``peer.flight`` / ``peer.slo`` /
    ``peer.cluster_metrics``) when it is called, so installing one
    after hosting works."""

    def __init__(self, peer: Any = None):
        self._peer = peer

    # -- helpers (underscored: invisible to the RPC surface) ---------------
    def _registry(self) -> obs_metrics.MetricsRegistry:
        tracer = getattr(self._peer, "tracer", None)
        if tracer is not None:
            return tracer.metrics
        return obs_metrics.default_registry()

    # -- operations --------------------------------------------------------
    def GetMetrics(self) -> str:
        """The hosting peer's metrics snapshot, plain text."""
        return self._registry().render_text()

    def GetTrace(self, message_id: str) -> str:
        """The span tree for *message_id* as JSON, or the documented
        error object when no tracer is wired (``no-tracer``) or the
        ring has evicted / never held the trace (``trace-not-found``)."""
        tracer = getattr(self._peer, "tracer", None)
        if tracer is None:
            return _error("no-tracer", "no tracer attached to this peer",
                          message_id=message_id)
        tree = tracer.trace_dict(message_id)
        if tree is None:
            return _error("trace-not-found",
                          "no trace for that MessageID (unknown or evicted)",
                          message_id=message_id)
        return json.dumps({"message_id": message_id, **tree}, default=str)

    def GetDistributedTrace(self, trace_id: str) -> str:
        """Every invocation carrying *trace_id*, stitched into one
        cross-node causal tree."""
        tracer = getattr(self._peer, "tracer", None)
        if tracer is None:
            return _error("no-tracer", "no tracer attached to this peer",
                          trace_id=trace_id)
        stitched = tracer.distributed_trace(trace_id)
        if not stitched["invocations"]:
            return _error("trace-not-found",
                          "no invocations tagged with that trace id",
                          trace_id=trace_id)
        return json.dumps(stitched, default=str)

    def GetFlightRecord(self) -> str:
        """The latest flight-recorder dump (live snapshot if none)."""
        flight = getattr(self._peer, "flight", None)
        if flight is None:
            return _error("no-flight-recorder",
                          "no flight recorder attached to this peer")
        return flight.to_json()

    def GetMetricsDigest(self) -> str:
        """The local registry as a mergeable digest (the scrape path)."""
        cluster = getattr(self._peer, "cluster_metrics", None)
        if cluster is not None:
            return json.dumps(cluster.local_digest(), default=str)
        # no agent: still scrapeable — an anonymous seq-0 digest of the
        # registry this service renders
        from repro.observability.cluster import digest_registry
        origin = getattr(self._peer, "name", None) or "local"
        return json.dumps(digest_registry(self._registry(), origin, 0),
                          default=str)

    def GetClusterMetrics(self) -> str:
        """The merged cluster view (gossiped + scraped digests)."""
        cluster = getattr(self._peer, "cluster_metrics", None)
        if cluster is None:
            return _error("no-cluster-agent",
                          "no cluster metrics agent on this peer")
        return cluster.to_json()

    def GetSloStatus(self) -> str:
        """Per-service burn rates and health annotations."""
        slo = getattr(self._peer, "slo", None)
        if slo is None:
            return _error("no-slo-engine", "no SLO engine on this peer")
        return slo.status_json()

    def ListServices(self) -> str:
        """The hosting peer's deployed services as JSON."""
        if self._peer is None:
            return json.dumps({"services": []})
        return json.dumps({
            "peer": getattr(self._peer, "name", ""),
            "services": list(getattr(self._peer, "deployed_services", [])),
        })


def host_introspection(peer: Any, name: str = "Introspection") -> Any:
    """Deploy *peer*'s self-description service.

    ``GetMetrics`` / ``GetTrace(message_id)`` / ``ListServices`` become
    invocable over the peer's binding like any other operations — the
    observability outputs are themselves services (the paper's
    symmetric-peer argument applied to the peer's own internals).
    Uses the tracer installed on the peer (``peer.tracer``), looked up
    on each call so a tracer installed after hosting is served.
    Returns the :class:`~repro.core.hosting.DeployedService`.
    """
    service = IntrospectionService(peer)
    return peer.deploy(
        service, name=name, namespace=INTROSPECTION_NS, include=list(OPERATIONS)
    )
