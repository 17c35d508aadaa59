"""What the benchmark measures: workloads, metrics, layers, bounds.

This is the single table the runner, the report, the comparison and the
smoke test read.  ``BENCHMARK.json`` at the repo root restates the parts
the PR driver needs (names, units, bounds); ``test_bench_smoke.py``
checks the two agree.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

SCHEMA = "repro.bench/1"
TRACE_SCHEMA = "repro.bench.trace/1"

#: name -> the one-line reason the workload exists
WORKLOADS: dict[str, str] = {
    "echo_http": (
        "smallest message over SOAP/HTTP, warm caches, encode-template hit: "
        "per-call overhead dominates (decode is E23's target)"
    ),
    "echo_p2ps": (
        "same call over P2PS pipes with a ReplyTo EPR: header-heavy envelopes "
        "and the pipe send path; transport.* and uddi do no work"
    ),
    "wide_http": (
        "64 floats each way: list args bypass the request template, so encode "
        "and parse cost scale with bytes, not calls"
    ),
    "pipelined_http": (
        "16 async calls in flight over 2 pooled pipelined connections: the "
        "pool, reorder buffer, admission and a deep kernel run-queue"
    ),
    "lifecycle_http": (
        "deploy-publish-locate-stub-call-withdraw over 512 names: uddi, wsdl, "
        "locator/publisher, and a working set larger than the 256-entry caches"
    ),
    "lossy_p2ps": (
        "echo_p2ps under 10% frame loss with an assured retry policy: the only "
        "workload where retransmit timers and dedup replay do work"
    ),
}


class Metric(NamedTuple):
    unit: str
    better: str  # "lower" | "higher"
    clock: str  # "wall" | "virtual" | "count"
    #: share of the parent's median by which the metric may get worse;
    #: 0.0 means any worsening is a regression (exact counts)
    bound: Optional[float]


#: the eight end-to-end metrics, reported for every workload.  Bounds
#: are three times the widest quartile spread seen over ten seeds on the
#: sandbox the benchmark was defined on (ops/s 4.6 %, p50 4.8 %, p99
#: 10 %), not ISSUE 11's 10 %: a bound inside the noise gates nothing.
END_TO_END: dict[str, Metric] = {
    "setup_s": Metric("s", "lower", "wall", 0.25),
    "ops_per_s": Metric("ops/s", "higher", "wall", 0.15),
    "op_p50_us": Metric("us", "lower", "wall", 0.15),
    "op_p99_us": Metric("us", "lower", "wall", 0.25),
    "fail_share": Metric("ratio", "lower", "count", 0.0),
    "wire_bytes_per_op": Metric("B", "lower", "count", 0.0),
    "virtual_ms_per_op": Metric("ms", "lower", "virtual", 0.0),
    "peak_rss_mb": Metric("MB", "lower", "wall", 0.05),
}

#: layers are this repo's modules under ``repro``
LAYERS: tuple[str, ...] = (
    "core.invocation",
    "core.hosting",
    "core.locator",
    "core.publisher",
    "wsa.headers",
    "soap.envelope",
    "soap.rpc",
    "soap.handlers",
    "xmlkit.parser",
    "xmlkit.serializer",
    "reliability.executor",
    "reliability.dedup",
    "transport.http",
    "transport.connection",
    "p2ps.pipes",
    "p2ps.peer",
    "simnet.network",
    "simnet.kernel",
    "uddi.client",
    "uddi.registry",
    "wsdl",
    "supervision.admission",
    "observability.metrics",
)

#: exact counts from the count pass (never timed)
COUNTS: dict[str, Metric] = {
    "simnet.network.frames_per_op": Metric("count", "lower", "count", None),
    "simnet.kernel.events_per_op": Metric("count", "lower", "count", None),
    "reliability.executor.retransmits_per_op": Metric("count", "lower", "count", None),
    "reliability.dedup.duplicates_per_op": Metric("count", "lower", "count", None),
    "transport.connection.connects_per_op": Metric("count", "lower", "count", None),
    "caching.hit_rate": Metric("ratio", "higher", "count", None),
    "wsa.headers.template_hit_rate": Metric("ratio", "higher", "count", None),
}

#: off-path codec rates over the wires captured in the count pass
CODEC_RATES: dict[str, Metric] = {
    "xmlkit.parser.parse_mb_per_s": Metric("MB/s", "higher", "wall", None),
    "xmlkit.serializer.serialize_mb_per_s": Metric("MB/s", "higher", "wall", None),
    "xmlkit.stream.feed_parse_mb_per_s": Metric("MB/s", "higher", "wall", None),
    "xmlkit.stream.iter_serialize_mb_per_s": Metric("MB/s", "higher", "wall", None),
}

#: harness self-checks
HARNESS: dict[str, Metric] = {
    "bench.trace_overhead_pct": Metric("%", "lower", "wall", None),
    "bench.unattributed_us_per_op": Metric("us", "lower", "wall", None),
}


def per_layer_metrics() -> dict[str, Metric]:
    """Every per-layer metric the traced run reports, in print order."""
    out: dict[str, Metric] = {}
    for layer in LAYERS:
        out[f"{layer}.self_us_per_op"] = Metric("us", "lower", "wall", None)
        out[f"{layer}.calls_per_op"] = Metric("count", "lower", "count", None)
    out.update(COUNTS)
    out.update(CODEC_RATES)
    out.update(HARNESS)
    return out


# ----------------------------------------------------------------------
# The PR driver's view (BENCHMARK.json).  Its contract bounds every
# end-to-end metric as a share of the parent's median, so a metric that
# is 0 (fail_share) cannot be bounded and is carried by the result
# line's attempted/failed keys instead; and it rejects a time that reads
# the same on every run, which virtual_ms_per_op does by design (it is
# a model output), so that one is reported with the per-layer metrics.
# ----------------------------------------------------------------------
DRIVER_END_TO_END: tuple[str, ...] = (
    "setup_s",
    "ops_per_s",
    "op_p50_us",
    "op_p99_us",
    "peak_rss_mb",
    "wire_bytes_per_op",
)
#: the driver needs a positive share; counts that repeat exactly per
#: seed still vary a little across seeds on the lossy workload
DRIVER_BOUNDS: dict[str, float] = {"wire_bytes_per_op": 0.05}
DRIVER_VIRTUAL = "simnet.kernel.virtual_ms_per_op"


def driver_per_layer_metrics() -> dict[str, Metric]:
    out = per_layer_metrics()
    out[DRIVER_VIRTUAL] = END_TO_END["virtual_ms_per_op"]._replace(bound=None)
    return out
