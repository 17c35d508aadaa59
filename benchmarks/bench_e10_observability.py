"""E10 — the cost and the payoff of the observability layer.

Three questions, one per section:

1. *Cost* (E10a): what does observing add to a call?  The signal is
   ~10µs of tracer work on a ~350µs invocation, and on a shared
   machine CPU drift between any two timed blocks is larger than
   that — so the measurement has two layers.  The **gate** rides on
   direct cost: a real invocation's event stream is captured once,
   then replayed straight through ``SpanTracer.observe`` thousands of
   times (and the metrics module's ``inc`` / the codec recorder hook
   are timed the same way); composing those per-event costs with the
   live-measured events-per-call and dividing by the off-mode per-call
   baseline gives a low-noise estimate of the instrumentation's
   first-order cost as a fraction of a call.  The **cross-check** is that A/B: persistent
   worlds per mode (``off``, ``metrics``, ``tracing``), timed as small
   paired batches back-to-back (rotated order, CPU seconds, GC
   parked), reported as the median of per-batch ratios — alongside a
   ``null`` column (a second off-mode world through the identical
   estimator) that shows the measurement's noise floor and explains
   why the gate does not ride on it.
2. *Payoff* (E10b): an E9-style churn run with failover enabled,
   traced.  The stitched span tree for one churn-induced failover must
   show a single logical span (one MessageID) with ≥ 2 attempt
   children carrying different endpoint tags — the whole multi-hop
   journey in one picture.
3. *Dogfood* (E10c): the introspection service answers ``GetMetrics``
   / ``GetTrace`` / ``ListServices`` over BOTH bindings — HTTP and
   P2PS pipes — including fetching the E10b-style trace through the
   very machinery the trace describes.

Results land in BENCH_E10.json.  ``E10_SMOKE=1`` shrinks the run for CI.
"""

import gc
import json
import os
import time

from _workloads import (
    EchoService,
    build_p2ps_world,
    build_standard_world,
    emit_json,
    print_table,
)

from repro.core import ServiceHandle, WSPeer
from repro.core.binding import StandardBinding
from repro.core.events import RecordingListener
from repro.observability import (
    MetricsRegistry,
    SpanTracer,
    set_metrics_enabled,
    set_recorder,
)
from repro.observability import metrics as obs_metrics
from repro.observability.introspection import host_introspection
from repro.observability.metrics import default_registry, reset_default_registry
from repro.observability.tracecontext import set_propagation
from repro.simnet import ChurnSchedule, FixedLatency, Network
from repro.supervision.failover import attach_failover
from repro.uddi import UddiRegistryNode

SMOKE = bool(os.environ.get("E10_SMOKE"))
BATCH_CALLS = 25                    # invokes per timed batch
N_BATCHES = 8 if SMOKE else 24      # paired batches (one per mode each)
N_WARMUP = 10                       # untimed cache/world warmers
N_REPLAY = 500 if SMOKE else 2000   # captured calls replayed through observe()
N_TIGHT = 5000 if SMOKE else 20000  # iterations for single-op cost loops
OVERHEAD_GATE = 0.05                # tracing must cost <= 5%

# E9-style churn shape for the traced failover run
N_PROVIDERS = 3
REQUEST_GAP = 0.05
ATTEMPT_TIMEOUT = 0.25
DOWNTIME = 1.0
CYCLE = 4.5
MAX_CHURN_CALLS = 40 if SMOKE else 120


# ----------------------------------------------------------------------
# E10a — observing the E8 workload: off vs metrics vs tracing
# ----------------------------------------------------------------------
class _ModeWorld:
    """One persistent world per mode; (de)activated around each batch."""

    def __init__(self, mode: str):
        self.mode = mode
        world = build_standard_world(n_providers=1, n_consumers=1)
        self.consumer = world.consumers[0]
        self.handle = self.consumer.locate_one("Echo0")
        self.calls = 0
        self.tracer = None
        if mode == "tracing":
            total = N_WARMUP + (N_BATCHES + 1) * BATCH_CALLS
            self.tracer = SpanTracer(max_spans=total + 1)
            # listeners stay attached for the world's life; only the
            # process-global bits (codec recorder) toggle per batch
            self.tracer.attach(self.consumer, peer=self.consumer.name)
            self.tracer.attach(world.providers[0], peer=world.providers[0].name)

    def activate(self):
        if self.mode in ("off", "null"):
            set_metrics_enabled(False)
        elif self.mode == "tracing":
            self._prev = set_recorder(self.tracer)

    def deactivate(self):
        if self.mode in ("off", "null"):
            set_metrics_enabled(True)
        elif self.mode == "tracing":
            set_recorder(self._prev)

    def run_batch(self, n: int) -> float:
        """*n* invokes under this mode; returns CPU seconds."""
        self.activate()
        try:
            start = time.process_time()
            for _ in range(n):
                self.calls += 1
                self.consumer.invoke(
                    self.handle, "echo", {"message": f"m{self.calls}"}
                )
            return time.process_time() - start
        finally:
            self.deactivate()


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _capture_call_events(world):
    """One real invocation's correlated event stream, both roots,
    time-ordered and tagged with the peer that heard each event."""
    consumer, provider = world.consumers[0], world.providers[0]
    handle = consumer.locate_one("Echo0")
    consumer.invoke(handle, "echo", {"message": "warm"})
    recorders = []
    for peer in (consumer, provider):
        recorder = RecordingListener()
        peer.add_listener(recorder)
        recorders.append((peer, recorder))
    consumer.invoke(handle, "echo", {"message": "captured"})
    tagged = []
    for peer, recorder in recorders:
        peer.remove_listener(recorder)
        tagged.extend((event, peer.name) for event in recorder.events)
    tagged.sort(key=lambda pair: pair[0].time)
    return [(e, p) for e, p in tagged if e.detail.get("message_id")]


def _measure_tracer_cost(sample) -> float:
    """Microseconds per observe(), replaying the captured stream with
    fresh MessageIDs so every replay builds and closes a real tree."""
    replays = []
    for i in range(N_REPLAY):
        mid = f"urn:uuid:e10-replay-{i}"
        for event, peer in sample:
            replays.append((
                event.__class__(event.kind, event.time + i, event.source,
                                {**event.detail, "message_id": mid}),
                peer,
            ))
    best = None
    for _ in range(3):
        tracer = SpanTracer(max_spans=N_REPLAY + 1, metrics=MetricsRegistry())
        observe = tracer.observe
        start = time.process_time()
        for event, peer in replays:
            observe(event, peer=peer)
        elapsed = time.process_time() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / len(replays) * 1e6


def _measure_codec_hook_cost() -> float:
    """Microseconds per codec_event() on an installed tracer."""
    tracer = SpanTracer(metrics=MetricsRegistry())
    hook = tracer.codec_event
    best = None
    for _ in range(3):
        start = time.process_time()
        for _ in range(N_TIGHT):
            hook("template-hit")
        elapsed = time.process_time() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / N_TIGHT * 1e6


def _measure_metric_op_cost() -> float:
    """Microseconds per module-level inc() — the exact call the
    transport/hosting/reliability instrumentation sites make."""
    best = None
    for _ in range(3):
        start = time.process_time()
        for _ in range(N_TIGHT):
            obs_metrics.inc("bench.e10.op")
        elapsed = time.process_time() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / N_TIGHT * 1e6


def _registry_op_count(snapshot) -> int:
    """Counter increments + histogram observations in a snapshot."""
    total = sum(snapshot.get("counters", {}).values())
    for hist in snapshot.get("histograms", {}).values():
        total += hist.get("count", 0)
    return total


def measure_overhead() -> dict:
    modes = ("off", "null", "metrics", "tracing")
    worlds = {mode: _ModeWorld(mode) for mode in modes}
    for world in worlds.values():
        world.run_batch(N_WARMUP)  # caches, code paths, allocator

    # metrics ops per call: registry delta over one warm batch
    ops_before = _registry_op_count(default_registry().snapshot())
    worlds["metrics"].run_batch(BATCH_CALLS)
    ops_per_call = (
        _registry_op_count(default_registry().snapshot()) - ops_before
    ) / BATCH_CALLS

    # end-to-end cross-check: paired batches, median of per-batch ratios
    ratios = {"null": [], "metrics": [], "tracing": []}
    totals = {mode: 0.0 for mode in modes}
    off_us_per_call = []
    gc.collect()
    gc.disable()  # collector cycles must not land on one unlucky batch
    try:
        for batch in range(N_BATCHES):
            times = {}
            for i in range(len(modes)):  # rotated: order bias hits every mode
                mode = modes[(batch + i) % len(modes)]
                times[mode] = worlds[mode].run_batch(BATCH_CALLS)
            for mode in ratios:
                ratios[mode].append(times[mode] / times["off"])
            for mode in modes:
                totals[mode] += times[mode]
            off_us_per_call.append(times["off"] / BATCH_CALLS * 1e6)
    finally:
        gc.enable()
    tracer = worlds["tracing"].tracer
    assert len(tracer) == worlds["tracing"].calls, (
        f"tracing mode lost spans: {len(tracer)} != {worlds['tracing'].calls}"
    )

    # direct cost: the gate's numerator, measured where the noise isn't
    baseline_us = _median(off_us_per_call)
    events_per_call = tracer.events_seen / worlds["tracing"].calls
    codec_per_call = sum(tracer.codec_counts.values()) / worlds["tracing"].calls
    per_event_us = _measure_tracer_cost(_capture_call_events(
        build_standard_world(n_providers=1, n_consumers=1)
    ))
    per_codec_us = _measure_codec_hook_cost()
    per_op_us = _measure_metric_op_cost()
    tracing_us = per_event_us * events_per_call + per_codec_us * codec_per_call
    metrics_us = per_op_us * ops_per_call

    return {
        "baseline_us_per_call": baseline_us,
        "tracing": {
            "per_event_us": per_event_us,
            "events_per_call": events_per_call,
            "per_codec_event_us": per_codec_us,
            "codec_events_per_call": codec_per_call,
            "us_per_call": tracing_us,
            "overhead": tracing_us / baseline_us,
        },
        "metrics": {
            "per_op_us": per_op_us,
            "ops_per_call": ops_per_call,
            "us_per_call": metrics_us,
            "overhead": metrics_us / baseline_us,
        },
        "end_to_end_check": {
            "batch_calls": BATCH_CALLS,
            "batches": N_BATCHES,
            "seconds": {mode: totals[mode] for mode in modes},
            "median_ratio": {
                mode: _median(values) for mode, values in ratios.items()
            },
        },
        "gate": OVERHEAD_GATE,
    }


# ----------------------------------------------------------------------
# E10b — a stitched span tree for a churn-induced failover
# ----------------------------------------------------------------------
def _build_replicated_world():
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    providers, endpoints = [], []
    wsdl = None
    for i in range(N_PROVIDERS):
        peer = WSPeer(net.add_node(f"prov{i}"), StandardBinding(registry.endpoint))
        peer.deploy(EchoService(), name="Echo")
        providers.append(peer)
        local = peer.local_handle("Echo")
        wsdl = wsdl or local.wsdl
        endpoints.extend(local.endpoints)
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    handle = ServiceHandle("Echo", wsdl, endpoints, source="merged")
    return net, providers, consumer, handle


def _failover_trace(tracer: SpanTracer):
    """The first trace whose root has >= 2 attempt children on
    different endpoints (i.e. an actual failover hop), or None."""
    for message_id, span in tracer.traces():
        attempts = [c for c in span.children if c.kind == "attempt"]
        endpoints = {c.tags.get("endpoint") for c in attempts} - {None}
        if len(attempts) >= 2 and len(endpoints) >= 2:
            return message_id, span
    return None


def trace_churn_failover() -> dict:
    net, providers, consumer, handle = _build_replicated_world()
    tracer = SpanTracer(max_spans=MAX_CHURN_CALLS * 2)
    tracer.install(consumer, *providers)
    set_propagation(True)
    executor = attach_failover(consumer)

    horizon = MAX_CHURN_CALLS * (REQUEST_GAP + 4 * ATTEMPT_TIMEOUT)
    churn = ChurnSchedule(net)
    for i, provider in enumerate(providers):
        churn.kill_restart_cycle(
            provider.node.id,
            start=0.5 + i * (CYCLE / N_PROVIDERS),
            downtime=DOWNTIME,
            period=CYCLE,
            until=horizon,
        )

    answered = 0
    found = None
    for i in range(MAX_CHURN_CALLS):
        try:
            executor.invoke(handle, "echo", {"message": f"m{i}"},
                            timeout=ATTEMPT_TIMEOUT)
            answered += 1
        except Exception:  # noqa: BLE001 - unavailability is expected here
            pass
        net.run(until=net.now + REQUEST_GAP)  # paced; do not drain churn
        found = _failover_trace(tracer)
        if found is not None:
            break

    assert found is not None, "churn never induced a traced failover"
    message_id, span = found
    roots_with_mid = sum(
        1 for mid, _ in tracer.traces() if mid == message_id
    )
    attempts = [c for c in span.children if c.kind == "attempt"]
    rendered = tracer.render(message_id)
    tracer.uninstall()
    return {
        "message_id": message_id,
        "answered": answered,
        "failovers": executor.failovers,
        "logical_spans_for_message": roots_with_mid,
        "attempt_children": len(attempts),
        "attempt_endpoints": sorted(
            {c.tags.get("endpoint") for c in attempts} - {None}
        ),
        "status": span.status,
        "rendered": rendered,
        "tree": span.to_dict(),
    }


# ----------------------------------------------------------------------
# E10c — introspection round-trips over both bindings
# ----------------------------------------------------------------------
def _roundtrip(consumer, provider, locate_name: str) -> dict:
    handle = consumer.locate_one(locate_name)
    listing = json.loads(consumer.invoke(handle, "ListServices", {}))
    metrics_text = consumer.invoke(handle, "GetMetrics", {})
    # trace something first, then fetch its tree through the service
    traced_mid = provider.tracer.message_ids[-1] if provider.tracer and len(
        provider.tracer
    ) else None
    trace_payload = (
        json.loads(consumer.invoke(handle, "GetTrace", {"message_id": traced_mid}))
        if traced_mid
        else {"error": "nothing traced"}
    )
    return {
        "services": listing.get("services", []),
        "metrics_lines": len(metrics_text.splitlines()),
        "trace_ok": "error" not in trace_payload,
        "trace_children": len(trace_payload.get("children", [])),
    }


def introspection_http() -> dict:
    world = build_standard_world(n_providers=1, n_consumers=1)
    consumer, provider = world.consumers[0], world.providers[0]
    tracer = SpanTracer()
    tracer.install(consumer, provider)
    set_propagation(True)
    handle = consumer.locate_one("Echo0")
    consumer.invoke(handle, "echo", {"message": "traced"})
    host_introspection(provider)
    provider.publish("Introspection")
    result = _roundtrip(consumer, provider, "Introspection")
    tracer.uninstall()
    return result


def introspection_p2ps() -> dict:
    world = build_p2ps_world(n_providers=1, n_consumers=1)
    consumer, provider = world.consumers[0], world.providers[0]
    tracer = SpanTracer()
    tracer.install(consumer, provider)
    set_propagation(True)
    handle = consumer.locate_one("Echo0")
    consumer.invoke(handle, "echo", {"message": "traced"})
    host_introspection(provider)
    provider.publish("Introspection")
    world.net.run()  # let the adverts settle
    result = _roundtrip(consumer, provider, "Introspection")
    tracer.uninstall()
    return result


# ----------------------------------------------------------------------
def run_e10_experiment():
    reset_default_registry()
    results = {}

    overhead = measure_overhead()
    results["overhead"] = overhead
    e2e = overhead["end_to_end_check"]["median_ratio"]
    print_table(
        f"E10a  observability cost per invocation "
        f"(baseline {overhead['baseline_us_per_call']:.0f}us/call)",
        ["mode", "us/call added", "overhead", "e2e check"],
        [
            ["off", "-", "-", "-"],
            ["null (off vs off)", "-", "-", f"{(e2e['null'] - 1) * 100:+.1f}%"],
            ["metrics", f"{overhead['metrics']['us_per_call']:.1f}",
             f"{overhead['metrics']['overhead'] * 100:+.1f}%",
             f"{(e2e['metrics'] - 1) * 100:+.1f}%"],
            ["tracing", f"{overhead['tracing']['us_per_call']:.1f}",
             f"{overhead['tracing']['overhead'] * 100:+.1f}%",
             f"{(e2e['tracing'] - 1) * 100:+.1f}%"],
        ],
        note=f"gate: tracing <= {OVERHEAD_GATE * 100:.0f}% over off, from "
        f"direct cost ({overhead['tracing']['per_event_us']:.2f}us x "
        f"{overhead['tracing']['events_per_call']:.1f} events/call); the "
        "null column is the e2e method's noise floor on this machine",
    )

    churn = trace_churn_failover()
    results["failover_trace"] = {
        k: v for k, v in churn.items() if k != "tree"
    }
    results["failover_trace"]["tree"] = churn["tree"]
    print(f"\n== E10b  stitched span tree for a churn-induced failover "
          f"({churn['failovers']} failovers over {churn['answered']} answered calls)")
    print(churn["rendered"])

    http_rt = introspection_http()
    p2ps_rt = introspection_p2ps()
    results["introspection"] = {"http": http_rt, "p2ps": p2ps_rt}
    print_table(
        "E10c  introspection service round-trips (dogfooded)",
        ["binding", "services listed", "metrics lines", "GetTrace ok"],
        [
            ["http", len(http_rt["services"]), http_rt["metrics_lines"],
             http_rt["trace_ok"]],
            ["p2ps", len(p2ps_rt["services"]), p2ps_rt["metrics_lines"],
             p2ps_rt["trace_ok"]],
        ],
        note="GetMetrics/GetTrace/ListServices served by the peer about "
        "itself, over the binding being observed",
    )

    snapshot = default_registry().snapshot()
    results["final_counters"] = snapshot["counters"]
    emit_json("BENCH_E10.json", results)
    return results


# ----------------------------------------------------------------------
# assertions (run under pytest; the CI smoke uses E10_SMOKE=1)
# ----------------------------------------------------------------------
def test_e10_tracing_overhead_within_gate():
    overhead = measure_overhead()
    assert overhead["tracing"]["overhead"] <= OVERHEAD_GATE
    assert overhead["metrics"]["overhead"] <= OVERHEAD_GATE
    # the tracer did real work while measured: every call left a tree
    assert overhead["tracing"]["events_per_call"] >= 4


def test_e10_failover_trace_is_one_stitched_tree():
    churn = trace_churn_failover()
    assert churn["logical_spans_for_message"] == 1
    assert churn["attempt_children"] >= 2
    assert len(churn["attempt_endpoints"]) >= 2
    assert churn["status"] == "ok"


def test_e10_introspection_roundtrips_both_bindings():
    for result in (introspection_http(), introspection_p2ps()):
        assert "Introspection" in result["services"]
        assert result["metrics_lines"] > 5
        assert result["trace_ok"]


if __name__ == "__main__":
    run_e10_experiment()
