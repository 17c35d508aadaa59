"""E17 — the cluster observability plane, measured end to end.

Four questions, one per section:

1. *One causal tree* (E17a): a replicated stateful call whose primary
   is killed at the request-received instant must still leave ONE
   stitched distributed trace — client root with >= 2 attempt children
   on different endpoints (the failover hop), the killed server's
   partial span, the surviving server's span, and the delta ships to
   the replicas nested under it — spanning >= 3 nodes, all under one
   wire trace id.
2. *Cost* (E17b): what does wire propagation add to a traced call?
   As in E10, the **gate** rides on direct cost — a propagated call's
   event stream replayed through ``SpanTracer.observe`` plus the
   header codec (child mint + encode on the client, decode + child on
   the server) timed in tight loops, composed with live-measured
   events-per-call and divided by the off-mode per-call baseline.
   The **cross-check** is the paired-batch A/B (rotated order, CPU
   seconds, GC parked, median of per-batch ratios) with a ``null``
   column showing the measurement's noise floor.
3. *Post-mortems* (E17c): the flight recorder must freeze a dump at
   EVERY fault-schedule kill point of the E15 suite — before the delta
   ships, mid-ship, after ship but before the reply, and during the
   handoff itself (two kills, two dumps).
4. *Aggregation* (E17d): gossiped metric digests merge to exact
   cluster-wide ground truth; the SLO engine reads OK through a
   failover-saved run and CRITICAL through an exhausted one; and the
   flight/cluster/SLO payloads are all fetchable over the wire through
   the introspection service.

Results land in BENCH_E17.json.  ``E17_SMOKE=1`` shrinks the run.
"""

import gc
import json
import os
import time

from _workloads import build_standard_world, emit_json, print_table

from repro.core import ServiceHandle, WSPeer
from repro.core.binding import StandardBinding
from repro.core.events import RecordingListener
from repro.observability import MetricsRegistry, SpanTracer, set_metrics_enabled
from repro.observability.cluster import ClusterMetricsAgent
from repro.observability.flight import FlightRecorder
from repro.observability.introspection import host_introspection
from repro.observability.slo import CRITICAL, OK, SloEngine, SloPolicy
from repro.observability.tracecontext import (
    FLAG_SAMPLED,
    TraceContext,
    decode,
    encode,
    new_span_id,
    new_trace_id,
    reset as reset_propagation,
    set_propagation,
)
from repro.replication import ReplicationGroup
from repro.simnet import ChurnSchedule, FixedLatency, Network
from repro.supervision.failover import attach_failover
from repro.uddi import UddiRegistryNode
from repro.simnet.wiretap import payload_text

SMOKE = bool(os.environ.get("E17_SMOKE"))
BATCH_CALLS = 25                    # invokes per timed batch
N_BATCHES = 8 if SMOKE else 24      # paired batches (one per mode each)
N_WARMUP = 10                       # untimed cache/world warmers
N_REPLAY = 500 if SMOKE else 2000   # captured calls replayed through observe()
N_TIGHT = 5000 if SMOKE else 20000  # iterations for the codec cost loop
OVERHEAD_GATE = 0.05                # propagated tracing must cost <= 5%

N_PROVIDERS = 3
REQUEST_GAP = 0.05
ATTEMPT_TIMEOUT = 0.25


class CounterService:
    """Whole-object session state; every execution moves the value."""

    def __init__(self):
        self.value = 0

    def increment(self, by: int) -> int:
        self.value += by
        return self.value


class ReplWorld:
    """One replicated stateful service on N providers (E15 shape)."""

    def __init__(self):
        self.net = Network(latency=FixedLatency(0.002))
        self.registry = UddiRegistryNode(self.net.add_node("registry"))
        self.providers = []
        for i in range(N_PROVIDERS):
            peer = WSPeer(
                self.net.add_node(f"prov{i}"),
                StandardBinding(self.registry.endpoint),
            )
            peer.deploy(CounterService(), name="Svc")
            self.providers.append(peer)
        self.consumer = WSPeer(
            self.net.add_node("cons"), StandardBinding(self.registry.endpoint)
        )
        self.group = ReplicationGroup.establish(
            self.providers[0], "Svc", self.providers[1:], r=N_PROVIDERS - 1
        )
        self.executor = attach_failover(self.consumer)
        self.executor.attach_replication(self.group)
        self.handle = self.group.handle()

    def pace(self, dt=REQUEST_GAP):
        self.net.run(until=self.net.now + dt)

    def invoke(self, operation, args):
        return self.executor.invoke(
            self.handle, operation, args, timeout=ATTEMPT_TIMEOUT
        )


# ----------------------------------------------------------------------
# E17a — one stitched distributed trace through a failover hop
# ----------------------------------------------------------------------
def trace_failover_fanout() -> dict:
    reset_propagation()
    world = ReplWorld()
    tracer = SpanTracer(metrics=MetricsRegistry())
    tracer.install(*world.providers, world.consumer)
    set_propagation(True)
    harness = ChurnSchedule(world.net)
    try:
        world.invoke("increment", {"by": 1})  # session lives on the primary
        world.pace()
        primary = world.providers[0]
        harness.kill_on_event(
            primary, "request-received", primary.node.id,
            match=lambda e: e.detail.get("service") == "Svc",
        )
        world.invoke("increment", {"by": 1})
        world.pace(1.0)  # let the delta ships land

        # registry/anti-entropy traffic roots its own traces; pick the
        # hopped increment — the call root with attempts on >= 2 endpoints
        hopped = None
        for mid, root in tracer.traces():
            if (root.tags.get("operation") != "increment"
                    or root.tags.get("client") != "cons"):
                continue
            attempts = [c for c in root.children if c.kind == "attempt"]
            endpoints = {c.tags.get("endpoint") for c in attempts} - {None}
            if len(endpoints) >= 2:
                hopped = (mid, root, attempts, endpoints)
        assert hopped is not None, "the armed kill never induced a hop"
        mid, root, attempts, endpoints = hopped
        stitched = tracer.distributed_trace(root.tags["trace_id"])
        rendered = tracer.render(mid)
        nested = stitched["roots"][0]["calls"] if stitched["roots"] else []
        return {
            "message_id": mid,
            "trace_id": root.tags["trace_id"],
            "invocations": stitched["invocations"],
            "nodes": stitched["nodes"],
            "top_level_roots": len(stitched["roots"]),
            "nested_calls": len(nested),
            "attempt_children": len(attempts),
            "attempt_endpoints": sorted(endpoints),
            "status": root.status,
            "kills": harness.describe(),
            "rendered": rendered,
        }
    finally:
        tracer.uninstall()
        reset_propagation()


# ----------------------------------------------------------------------
# E17b — the cost of wire propagation on a traced call
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
        if mode == "traced":
            total = N_WARMUP + (N_BATCHES + 1) * BATCH_CALLS
            self.tracer = SpanTracer(
                max_spans=total + 1, metrics=MetricsRegistry()
            )
            self.tracer.attach(self.consumer, peer=self.consumer.name)
            self.tracer.attach(
                world.providers[0], peer=world.providers[0].name
            )

    def activate(self):
        if self.mode in ("off", "null"):
            set_metrics_enabled(False)
        else:  # traced: the header rides every request in this batch
            set_propagation(True)

    def deactivate(self):
        if self.mode in ("off", "null"):
            set_metrics_enabled(True)
        else:
            set_propagation(False)

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


def _capture_propagated_call_events():
    """One real propagated invocation's correlated event stream."""
    world = build_standard_world(n_providers=1, n_consumers=1)
    consumer, provider = world.consumers[0], world.providers[0]
    handle = consumer.locate_one("Echo0")
    set_propagation(True)
    try:
        consumer.invoke(handle, "echo", {"message": "warm"})
        recorders = []
        for peer in (consumer, provider):
            recorder = RecordingListener()
            peer.add_listener(recorder)
            recorders.append((peer, recorder))
        consumer.invoke(handle, "echo", {"message": "captured"})
    finally:
        reset_propagation()
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
        mid = f"urn:uuid:e17-replay-{i}"
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


def _measure_header_codec_cost() -> float:
    """Microseconds per call of pure header-codec work: the client
    mints a child and encodes it; the server decodes the wire text and
    mints its own continuation child."""
    ctx = TraceContext(new_trace_id(), new_span_id(), FLAG_SAMPLED)
    best = None
    for _ in range(3):
        start = time.process_time()
        for _ in range(N_TIGHT):
            wire = encode(ctx.child())
            decode(wire).child()
        elapsed = time.process_time() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / N_TIGHT * 1e6


def measure_overhead() -> dict:
    reset_propagation()
    modes = ("off", "null", "traced")
    worlds = {mode: _ModeWorld(mode) for mode in modes}
    for world in worlds.values():
        world.run_batch(N_WARMUP)  # caches, code paths, allocator

    # end-to-end cross-check: paired batches, median of per-batch ratios
    ratios = {"null": [], "traced": []}
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
    tracer = worlds["traced"].tracer
    assert len(tracer) == worlds["traced"].calls, (
        f"traced mode lost spans: {len(tracer)} != {worlds['traced'].calls}"
    )
    assert len(tracer.trace_ids()) > 0, "propagation left no wire trace ids"

    # direct cost: the gate's numerator, measured where the noise isn't
    baseline_us = _median(off_us_per_call)
    events_per_call = tracer.events_seen / worlds["traced"].calls
    per_event_us = _measure_tracer_cost(_capture_propagated_call_events())
    per_header_us = _measure_header_codec_cost()
    traced_us = per_event_us * events_per_call + per_header_us
    reset_propagation()

    return {
        "baseline_us_per_call": baseline_us,
        "traced": {
            "per_event_us": per_event_us,
            "events_per_call": events_per_call,
            "header_codec_us_per_call": per_header_us,
            "us_per_call": traced_us,
            "overhead": traced_us / baseline_us,
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
# E17c — a flight-recorder dump at every crash kill point
# ----------------------------------------------------------------------
CRASH_POINTS = ["before_ship", "during_ship", "after_ship", "during_handoff"]


def _arm(world, harness, point):
    """Install the E15 crash for *point*, to fire on the next mutation."""
    primary = world.providers[0]
    svc = lambda e: e.detail.get("service") == "Svc"  # noqa: E731
    if point == "before_ship":
        harness.kill_on_event(
            primary, "request-received", primary.node.id, match=svc
        )
    elif point == "during_ship":
        behind = world.group.members[1]
        harness.drop_next(
            lambda f: f.dst == behind.node_id and "apply_delta" in payload_text(f),
            count=1,
            label="lose one delta ship",
        )
        harness.kill_on_event(
            primary, "response-sent", primary.node.id, defer=True, match=svc
        )
    elif point == "after_ship":
        harness.drop_replies_from(primary.node.id, count=1)
        harness.kill_on_event(
            primary, "response-sent", primary.node.id, defer=True, match=svc
        )
    elif point == "during_handoff":
        harness.drop_replies_from(primary.node.id, count=1)
        harness.kill_on_event(
            primary, "response-sent", primary.node.id, defer=True, match=svc
        )
        target = world.providers[1]
        harness.kill_on_event(
            target, "request-received", target.node.id, match=svc,
            label="kill first handoff target",
        )
    else:
        raise ValueError(point)


def _drive(world, n_calls):
    answered = 0
    for _ in range(n_calls):
        try:
            world.invoke("increment", {"by": 1})
            answered += 1
        except Exception:  # noqa: BLE001 - unavailability is expected here
            pass
        world.pace()
    return answered


def measure_flight_at_crash_point(point) -> dict:
    world = ReplWorld()
    harness = ChurnSchedule(world.net)
    recorder = FlightRecorder(metrics=MetricsRegistry())
    recorder.install(world.consumer, *world.providers)
    recorder.attach(harness)

    answered = _drive(world, 2)  # warm-up
    _arm(world, harness, point)
    answered += _drive(world, 6)
    world.pace(2.0)

    kills = harness.kills
    kill_dumps = [d for d in recorder.dumps if d["reason"] == "node-killed"]
    return {
        "answered": answered,
        "kills": len(kills),
        "kill_dumps": len(kill_dumps),
        "killed_nodes": sorted({a.node for a in kills}),
        "dumped_nodes": sorted({
            d["events"][-1].get("node") for d in kill_dumps if d["events"]
        }),
        "last_dump_events": len(kill_dumps[-1]["events"]) if kill_dumps else 0,
        "ring_events_seen": recorder.events_seen,
    }


# ----------------------------------------------------------------------
# E17d — cluster aggregation ground truth, SLO health, wire fetch
# ----------------------------------------------------------------------
def measure_cluster_aggregation() -> dict:
    from repro.discovery.gossip import GossipNode

    net = Network(latency=FixedLatency(0.002))
    agents, gossips = [], []
    truth_calls = 0
    for i, name in enumerate(("ga", "gb", "gc")):
        gossip = GossipNode(net.add_node(name), fanout=2, hops=3)
        registry = MetricsRegistry()
        registry.inc("calls", i + 1)
        truth_calls += i + 1
        registry.observe("latency", 0.001 * (i + 1))
        agent = ClusterMetricsAgent(
            registry=registry, gossip=gossip, origin=name,
            clock=lambda: net.now,
        )
        gossips.append(gossip)
        agents.append(agent)
    for g in gossips:
        g.link(*[other.node.id for other in gossips if other is not g])
    for agent in agents:
        agent.publish()
    net.run()

    merged = [agent.cluster_snapshot() for agent in agents]
    return {
        "truth_calls": truth_calls,
        "merged_calls": [m["counters"]["calls"] for m in merged],
        "merged_latency_count": [
            m["histograms"]["latency"]["count"] for m in merged
        ],
        "nodes_seen": [m["nodes"] for m in merged],
        "every_node_agrees": all(
            m["counters"]["calls"] == truth_calls
            and m["nodes"] == ["ga", "gb", "gc"]
            and m["histograms"]["latency"]["count"] == 3
            for m in merged
        ),
    }


def measure_slo_health() -> dict:
    # a failover-saved run reads OK: 6 good, 0 bad
    net = Network(latency=FixedLatency(0.002))
    registry_node = UddiRegistryNode(net.add_node("registry"))
    providers, endpoints, wsdl = [], [], None
    for i in range(N_PROVIDERS):
        peer = WSPeer(
            net.add_node(f"prov{i}"), StandardBinding(registry_node.endpoint)
        )
        peer.deploy(CounterService(), name="Svc")
        providers.append(peer)
        local = peer.local_handle("Svc")
        wsdl = wsdl or local.wsdl
        endpoints.extend(local.endpoints)
    consumer = WSPeer(
        net.add_node("cons"), StandardBinding(registry_node.endpoint)
    )
    handle = ServiceHandle("Svc", wsdl, endpoints, source="merged")
    engine = SloEngine().install(consumer)
    executor = attach_failover(consumer)
    for _ in range(5):
        executor.invoke(handle, "increment", {"by": 1}, timeout=1.0)
    providers[0].node.go_down()
    executor.invoke(handle, "increment", {"by": 1}, timeout=1.0)
    saved = engine.report(net.now + 60.0)["Svc"]

    # an exhausted run burns budget fast enough to read CRITICAL
    from repro.core.events import ClientMessageEvent

    hot = SloEngine(
        policy=SloPolicy(availability_target=0.9, fast_burn=2.0),
        metrics=MetricsRegistry(),
    )
    for i in range(10):
        hot.observe(ClientMessageEvent(
            "request-sent", 1.0 + i * 0.01, "cons",
            {"service": "Svc", "message_id": f"m{i}", "operation": "op"}))
        hot.observe(ClientMessageEvent(
            "failover-exhausted", 1.5 + i * 0.01, "cons",
            {"service": "Svc", "message_id": f"m{i}", "reason": "down"}))
    burning = hot.report(2.0)["Svc"]

    return {
        "failover_saved": {
            "good": saved["good"], "bad": saved["bad"],
            "status": saved["status"],
            "burn_short": saved["burn_short"],
        },
        "exhausted": {
            "bad": burning["bad"], "status": burning["status"],
            "burn_short": burning["burn_short"],
            "transitions": len(burning["transitions"]),
        },
    }


def fetch_plane_over_wire() -> dict:
    """Every E17 payload served by the introspection service itself."""
    reset_propagation()
    world = build_standard_world(n_providers=1, n_consumers=1)
    consumer, provider = world.consumers[0], world.providers[0]
    tracer = SpanTracer(metrics=MetricsRegistry())
    tracer.install(provider, consumer)
    set_propagation(True)
    FlightRecorder().install(provider)
    SloEngine().install(provider)
    agent = ClusterMetricsAgent(provider, registry=MetricsRegistry())
    agent.registry.inc("calls", 4)
    try:
        handle = consumer.locate_one("Echo0")
        consumer.invoke(handle, "echo", {"message": "traced"})
        host_introspection(provider)
        provider.publish("Introspection")
        intro = consumer.locate_one("Introspection")

        traced_mid = tracer.message_ids[0]
        trace = json.loads(
            consumer.invoke(intro, "GetTrace", {"message_id": traced_mid}))
        dist = json.loads(consumer.invoke(
            intro, "GetDistributedTrace",
            {"trace_id": tracer.trace_ids()[0]}))
        flight = json.loads(consumer.invoke(intro, "GetFlightRecord"))
        cluster = json.loads(consumer.invoke(intro, "GetClusterMetrics"))
        slo = json.loads(consumer.invoke(intro, "GetSloStatus"))
        missing = json.loads(consumer.invoke(
            intro, "GetTrace", {"message_id": "urn:uuid:no-such"}))
        return {
            "trace_ok": "error" not in trace,
            "distributed_invocations": dist.get("invocations", 0),
            "flight_schema": flight.get("schema"),
            "flight_events": len(flight.get("events", [])),
            "cluster_calls": cluster.get("counters", {}).get("calls"),
            "slo_schema": slo.get("schema"),
            "error_shape_ok": (
                missing.get("error", {}).get("code") == "trace-not-found"
                and bool(missing.get("error", {}).get("message"))
            ),
        }
    finally:
        tracer.uninstall()
        reset_propagation()


# ----------------------------------------------------------------------
def run_e17_experiment():
    results = {}

    fanout = trace_failover_fanout()
    results["distributed_trace"] = {
        k: v for k, v in fanout.items() if k != "rendered"
    }
    print(f"\n== E17a  one stitched distributed trace "
          f"({fanout['invocations']} invocations over "
          f"{len(fanout['nodes'])} nodes, trace {fanout['trace_id'][:8]}…)")
    print(fanout["rendered"])

    overhead = measure_overhead()
    results["overhead"] = overhead
    e2e = overhead["end_to_end_check"]["median_ratio"]
    print_table(
        f"E17b  propagated tracing cost per invocation "
        f"(baseline {overhead['baseline_us_per_call']:.0f}us/call)",
        ["mode", "us/call added", "overhead", "e2e check"],
        [
            ["off", "-", "-", "-"],
            ["null (off vs off)", "-", "-",
             f"{(e2e['null'] - 1) * 100:+.1f}%"],
            ["traced + header", f"{overhead['traced']['us_per_call']:.1f}",
             f"{overhead['traced']['overhead'] * 100:+.1f}%",
             f"{(e2e['traced'] - 1) * 100:+.1f}%"],
        ],
        note=f"gate: traced <= {OVERHEAD_GATE * 100:.0f}% over off, from "
        f"direct cost ({overhead['traced']['per_event_us']:.2f}us x "
        f"{overhead['traced']['events_per_call']:.1f} events/call + "
        f"{overhead['traced']['header_codec_us_per_call']:.2f}us header "
        "codec); the null column is the e2e method's noise floor",
    )

    results["flight_dumps"] = {}
    rows = []
    for point in CRASH_POINTS:
        metrics = measure_flight_at_crash_point(point)
        results["flight_dumps"][point] = metrics
        rows.append([
            point,
            metrics["kills"],
            metrics["kill_dumps"],
            ",".join(metrics["killed_nodes"]),
            metrics["last_dump_events"],
        ])
    print_table(
        "E17c  flight-recorder dumps at the E15 crash points",
        ["crash point", "kills", "dumps", "killed", "events in dump"],
        rows,
        note="every harness kill freezes a post-mortem dump of the ring — "
        "the black box survives the crash it describes",
    )

    cluster = measure_cluster_aggregation()
    slo = measure_slo_health()
    wire = fetch_plane_over_wire()
    results["cluster_aggregation"] = cluster
    results["slo"] = slo
    results["wire_fetch"] = wire
    print_table(
        "E17d  cluster aggregation + SLO + wire fetch",
        ["check", "result"],
        [
            ["gossiped digests merge to ground truth",
             "yes" if cluster["every_node_agrees"] else "NO"],
            ["cluster calls (truth {})".format(cluster["truth_calls"]),
             str(cluster["merged_calls"])],
            ["SLO through failover",
             f"{slo['failover_saved']['status']} "
             f"({slo['failover_saved']['good']} good, "
             f"{slo['failover_saved']['bad']} bad)"],
            ["SLO when exhausted",
             f"{slo['exhausted']['status']} "
             f"(burn {slo['exhausted']['burn_short']:.1f}x)"],
            ["introspection serves the plane",
             "yes" if (wire["trace_ok"] and wire["error_shape_ok"]
                       and wire["flight_schema"]) else "NO"],
        ],
        note="digests ride the E12 gossip overlay; health and post-mortems "
        "are fetched over the very binding they observe",
    )

    emit_json("BENCH_E17.json", results)
    return results


# ----------------------------------------------------------------------
# assertions (run under pytest; the CI smoke uses E17_SMOKE=1)
# ----------------------------------------------------------------------
def test_e17_one_stitched_trace_spans_the_cluster():
    fanout = trace_failover_fanout()
    # client -> failover hop -> replica fan-out, all under one trace id
    assert fanout["invocations"] >= 3
    assert len(fanout["nodes"]) >= 3
    assert fanout["top_level_roots"] == 1
    assert fanout["nested_calls"] >= 1  # delta ships nest under the call
    assert fanout["attempt_children"] >= 2
    assert len(fanout["attempt_endpoints"]) >= 2
    assert fanout["status"] == "ok"


def test_e17_propagation_overhead_within_gate():
    overhead = measure_overhead()
    assert overhead["traced"]["overhead"] <= OVERHEAD_GATE
    # the tracer did real work while measured: every call left a tree
    assert overhead["traced"]["events_per_call"] >= 4


def test_e17_flight_dump_at_every_kill_point():
    for point in CRASH_POINTS:
        metrics = measure_flight_at_crash_point(point)
        assert metrics["kills"] >= 1, point
        assert metrics["kill_dumps"] == metrics["kills"], point
        assert metrics["killed_nodes"] == metrics["dumped_nodes"], point
        assert metrics["last_dump_events"] > 1, point


def test_e17_cluster_aggregation_is_exact():
    cluster = measure_cluster_aggregation()
    assert cluster["every_node_agrees"]


def test_e17_slo_reads_the_cluster_right():
    slo = measure_slo_health()
    assert slo["failover_saved"]["status"] == OK
    assert slo["failover_saved"]["good"] == 6
    assert slo["failover_saved"]["bad"] == 0
    assert slo["exhausted"]["status"] == CRITICAL
    assert slo["exhausted"]["transitions"] >= 1


def test_e17_plane_is_fetchable_over_the_wire():
    wire = fetch_plane_over_wire()
    assert wire["trace_ok"]
    assert wire["distributed_invocations"] >= 1
    assert wire["flight_schema"] == "repro.flight/1"
    assert wire["slo_schema"] == "repro.slo/1"
    assert wire["cluster_calls"] == 4
    assert wire["error_shape_ok"]


if __name__ == "__main__":
    run_e17_experiment()
