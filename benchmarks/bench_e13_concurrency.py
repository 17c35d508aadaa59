"""E13 — concurrency core: run-queue scheduler + worker-pool hosting.

The E13 refactor split the kernel into a timer heap plus a due-now
run-queue and replaced each node's serial service queue with N simulated
workers.  Four experiments measure what that buys:

1. *worker pool vs serial* — a closed-loop mixed workload (10% of
   requests cost 20ms, the rest 0.5ms) against one provider.  With one
   worker a slow request head-of-line-blocks everything behind it; with
   four, it pins one worker while the other three keep draining the
   fast traffic.  Acceptance: pool(4) ≥ 3x serial throughput, zero
   lost/overflowed events per the E10 metrics registry.
2. *peer-count sweep* — closed-loop calls/sec and p99 latency as the
   simultaneous peer population grows 100 → 10k (smaller under
   ``E13_SMOKE``).  Every request arms a client-side timeout timer that
   is cancelled when the response lands, so the sweep also exercises
   real timer cancellation at scale; the kernel's physical heap size is
   sampled against its live timer count.
3. *determinism* — the pooled mixed workload replayed twice under
   seeded WAN latency must produce byte-identical traces.
4. *cancelled-timer heap* — a schedule/cancel-heavy micro-workload
   (the retry-timer pattern) demonstrating the heap compacts: physical
   heap size stays proportional to the live timer set, not to the
   total scheduled.

Results land in BENCH_E13.json.  ``E13_SMOKE=1`` shrinks the run for CI.
"""

import os

import numpy as np
from _workloads import emit_json, fmt_ms, print_table

from repro.observability import metrics as obs_metrics
from repro.simnet import FixedLatency, Kernel, Network, SeededLatency, TraceLog
from repro.transport import HttpClient, HttpRequest, HttpResponse, HttpServer
from repro.simnet.wiretap import payload_text

SMOKE = bool(os.environ.get("E13_SMOKE"))
N_CLIENTS = 8 if SMOKE else 16
REQUESTS_PER_CLIENT = 25 if SMOKE else 100
SWEEP_PEERS = [50, 200] if SMOKE else [100, 1000, 10_000]
SWEEP_REQUESTS = 2 if SMOKE else 3
CANCEL_CYCLES = 10_000 if SMOKE else 50_000
HOP_LATENCY = 0.0002  # 0.2ms hops: the server, not the wire, is the bottleneck
SLOW_COST = 0.020
FAST_COST = 0.0005
SLOW_EVERY = 10  # every 10th request is slow (10% of the workload)


def mixed_cost(frame):
    """Per-frame service cost: request frames tagged slow pin a worker."""
    return SLOW_COST if "sleepy" in payload_text(frame) else FAST_COST


def build_world(workers, latency=None, trace=False):
    obs_metrics.reset_default_registry()
    net = Network(
        latency=latency or FixedLatency(HOP_LATENCY),
        trace=TraceLog(enabled=trace),
    )
    server_node = net.add_node("server")
    server_node.frame_cost = mixed_cost
    server_node.configure_workers(workers)
    for i in range(N_CLIENTS):
        net.add_node(f"client{i}")
    server = HttpServer(server_node, 80)
    server.add_route("/work", lambda req: HttpResponse(200, req.body))
    server.start()
    return net, server


# ----------------------------------------------------------------------
# E13a — worker pool vs serial under a mixed fast/slow workload
# ----------------------------------------------------------------------
def measure_worker_pool(workers, latency=None, trace=False):
    net, server = build_world(workers, latency=latency, trace=trace)
    clients = [
        HttpClient(net.get_node(f"client{i}")) for i in range(N_CLIENTS)
    ]
    total = N_CLIENTS * REQUESTS_PER_CLIENT
    done = {"count": 0, "t_last": 0.0, "errors": 0}
    latencies = []

    def drive(client, i, remaining):
        body = "sleepy" if (i * REQUESTS_PER_CLIENT + remaining) % SLOW_EVERY == 0 else "quick"
        t_sent = net.now

        def on_response(resp, err):
            if err is not None or not resp.ok:
                done["errors"] += 1
            latencies.append(net.now - t_sent)
            done["count"] += 1
            done["t_last"] = net.now
            if remaining > 1:
                drive(client, i, remaining - 1)

        client.request_async("server", 80, HttpRequest("POST", "/work", body), on_response)

    for i, client in enumerate(clients):
        drive(client, i, REQUESTS_PER_CLIENT)
    net.run()

    assert done["count"] == total and done["errors"] == 0
    snap = obs_metrics.default_registry().snapshot()
    makespan = done["t_last"]
    stats = server.node.worker_stats()
    return {
        "workers": workers,
        "clients": N_CLIENTS,
        "requests": total,
        "makespan_s": makespan,
        "throughput_rps": total / makespan,
        "p99_latency_s": float(np.percentile(latencies, 99)),
        "mean_utilisation": float(np.mean(stats["utilisation"])),
        "lost_in_service": snap["counters"].get("simnet.lost_in_service", 0),
        "overflowed": snap["counters"].get("simnet.worker.overflow", 0),
        "trace": net.trace.records if trace else None,
    }


# ----------------------------------------------------------------------
# E13b — closed-loop calls/sec and p99 latency vs peer count
# ----------------------------------------------------------------------
def measure_peer_sweep(n_peers):
    obs_metrics.reset_default_registry()
    net = Network(latency=FixedLatency(HOP_LATENCY))
    n_servers = max(1, n_peers // 100)
    servers = []
    for s in range(n_servers):
        node = net.add_node(f"server{s}")
        node.service_time = 0.001
        node.configure_workers(4)
        server = HttpServer(node, 80)
        server.add_route("/work", lambda req: HttpResponse(200, "ok"))
        server.start()
        servers.append(server)
    clients = [HttpClient(net.add_node(f"peer{i}")) for i in range(n_peers)]
    done = {"count": 0, "t_last": 0.0, "errors": 0}
    latencies = []
    heap_samples = []
    total = n_peers * SWEEP_REQUESTS

    def drive(client, i, remaining):
        target = f"server{i % n_servers}"
        t_sent = net.now

        def on_response(resp, err):
            if err is not None or not resp.ok:
                done["errors"] += 1
            latencies.append(net.now - t_sent)
            done["count"] += 1
            done["t_last"] = net.now
            if remaining > 1:
                drive(client, i, remaining - 1)

        # the default 30s timeout timer is cancelled when the response
        # lands — n_peers simultaneous in-flight requests means n_peers
        # live timers that all die young
        client.request_async(target, 80, HttpRequest("POST", "/work", "x"), on_response)

    for i, client in enumerate(clients):
        drive(client, i, SWEEP_REQUESTS)
    heap_samples.append((net.kernel.heap_size, net.kernel.pending))
    net.run()
    heap_samples.append((net.kernel.heap_size, net.kernel.pending))

    assert done["count"] == total and done["errors"] == 0
    snap = obs_metrics.default_registry().snapshot()
    return {
        "peers": n_peers,
        "servers": n_servers,
        "requests": total,
        "makespan_s": done["t_last"],
        "calls_per_s": total / done["t_last"],
        "p50_latency_s": float(np.percentile(latencies, 50)),
        "p99_latency_s": float(np.percentile(latencies, 99)),
        "events_fired": net.kernel.events_fired,
        "heap_at_burst": heap_samples[0][0],
        "pending_at_burst": heap_samples[0][1],
        "heap_after": heap_samples[-1][0],
        "lost_in_service": snap["counters"].get("simnet.lost_in_service", 0),
        "overflowed": snap["counters"].get("simnet.worker.overflow", 0),
    }


# ----------------------------------------------------------------------
# E13c — seeded runs are byte-identical
# ----------------------------------------------------------------------
def trace_signature(records):
    """Canonical byte form of a trace.

    Connection ids draw from a process-global counter
    (``HttpConnection._ids``), so the ids — and the ports named after
    them — differ between repeats inside one process even when the
    schedule replays identically: renumber them by first appearance so
    the comparison tests the schedule, not the global counter."""
    import re

    canon: dict[str, str] = {}

    def rewrite(match):
        return canon.setdefault(match.group(0), f"conn#{len(canon)}")

    lines = []
    for r in records:
        line = f"{r.time:.9f} {r.kind} {sorted(r.detail.items())}"
        lines.append(re.sub(r"[\w-]+:c\d+\b", rewrite, line))
    return "\n".join(lines)


def measure_determinism():
    def run_once():
        return measure_worker_pool(
            4, latency=SeededLatency(median=0.001, sigma=0.4, seed=42), trace=True
        )

    first, second = run_once(), run_once()
    sig1 = trace_signature(first["trace"])
    sig2 = trace_signature(second["trace"])
    return {
        "trace_events": len(first["trace"]),
        "byte_identical": sig1 == sig2,
        "makespans_equal": first["makespan_s"] == second["makespan_s"],
    }


# ----------------------------------------------------------------------
# E13d — cancelled timers leave the heap (the retry-timer pattern)
# ----------------------------------------------------------------------
def measure_timer_cancellation():
    kernel = Kernel()
    live_window = 32
    live = []
    peak_heap = 0
    for i in range(CANCEL_CYCLES):
        live.append(kernel.schedule(1000.0 + i * 1e-4, lambda: None))
        if len(live) > live_window:
            live.pop(0).cancel()
        if kernel.heap_size > peak_heap:
            peak_heap = kernel.heap_size
    return {
        "cycles": CANCEL_CYCLES,
        "live_window": live_window,
        "peak_heap": peak_heap,
        "final_heap": kernel.heap_size,
        "final_pending": kernel.pending,
        "bounded": peak_heap < 10 * live_window + 2 * 64,
    }


# ----------------------------------------------------------------------
def run_e13_experiment():
    results = {}

    rows = []
    for workers in (1, 4):
        metrics = measure_worker_pool(workers)
        metrics.pop("trace")
        results.setdefault("worker_pool", {})[f"workers={workers}"] = metrics
        rows.append([
            workers,
            metrics["requests"],
            fmt_ms(metrics["makespan_s"]),
            f"{metrics['throughput_rps']:.0f}/s",
            fmt_ms(metrics["p99_latency_s"]),
            f"{metrics['mean_utilisation']:.0%}",
            metrics["lost_in_service"],
        ])
    serial = results["worker_pool"]["workers=1"]
    pooled = results["worker_pool"]["workers=4"]
    results["worker_pool"]["speedup"] = (
        pooled["throughput_rps"] / serial["throughput_rps"]
    )
    print_table(
        f"E13a worker pool vs serial ({N_CLIENTS} clients x "
        f"{REQUESTS_PER_CLIENT} requests, 10% slow at {SLOW_COST * 1000:g}ms)",
        ["workers", "requests", "makespan", "throughput", "p99", "util", "lost"],
        rows,
        note=f"speedup {results['worker_pool']['speedup']:.1f}x — a slow request "
        "pins one worker instead of head-of-line-blocking the node",
    )

    rows = []
    for n in SWEEP_PEERS:
        metrics = measure_peer_sweep(n)
        results.setdefault("peer_sweep", {})[str(n)] = metrics
        rows.append([
            n,
            metrics["servers"],
            f"{metrics['calls_per_s']:.0f}/s",
            fmt_ms(metrics["p50_latency_s"]),
            fmt_ms(metrics["p99_latency_s"]),
            metrics["events_fired"],
            f"{metrics['heap_at_burst']}/{metrics['pending_at_burst']}",
        ])
    print_table(
        f"E13b closed-loop sweep ({SWEEP_REQUESTS} requests/peer, "
        f"4 workers/server)",
        ["peers", "servers", "calls/s", "p50", "p99", "events", "heap/pending"],
        rows,
        note="every in-flight request holds a live timeout timer, cancelled "
        "on response; heap/pending shows physical vs live timer count at "
        "peak in-flight",
    )

    determinism = measure_determinism()
    results["determinism"] = determinism
    print_table(
        "E13c seeded determinism (pooled mixed workload, WAN latency, 2 runs)",
        ["trace events", "byte-identical", "equal makespans"],
        [[
            determinism["trace_events"],
            determinism["byte_identical"],
            determinism["makespans_equal"],
        ]],
    )

    cancel = measure_timer_cancellation()
    results["timer_cancellation"] = cancel
    print_table(
        f"E13d timer cancellation ({CANCEL_CYCLES} schedule+cancel cycles, "
        f"{cancel['live_window']} live)",
        ["cycles", "peak heap", "final heap", "live", "bounded"],
        [[
            cancel["cycles"], cancel["peak_heap"], cancel["final_heap"],
            cancel["final_pending"], cancel["bounded"],
        ]],
        note="cancelled timers physically leave the heap (compaction), so "
        "retry-heavy workloads do not accumulate dead entries",
    )

    emit_json("BENCH_E13.json", results)
    return results


# ----------------------------------------------------------------------
# assertions (run under pytest; the CI smoke uses E13_SMOKE=1)
# ----------------------------------------------------------------------
def test_e13_pool_beats_serial_3x_with_zero_loss():
    serial = measure_worker_pool(1)
    pooled = measure_worker_pool(4)
    assert pooled["throughput_rps"] >= 3.0 * serial["throughput_rps"]
    for metrics in (serial, pooled):
        assert metrics["lost_in_service"] == 0
        assert metrics["overflowed"] == 0


def test_e13_sweep_answers_every_peer():
    metrics = measure_peer_sweep(SWEEP_PEERS[0])
    assert metrics["requests"] == SWEEP_PEERS[0] * SWEEP_REQUESTS
    assert metrics["lost_in_service"] == 0
    assert metrics["overflowed"] == 0
    assert metrics["p99_latency_s"] > 0


def test_e13_seeded_runs_are_byte_identical():
    determinism = measure_determinism()
    assert determinism["byte_identical"]
    assert determinism["makespans_equal"]


def test_e13_cancelled_timers_leave_the_heap():
    cancel = measure_timer_cancellation()
    assert cancel["bounded"]
    assert cancel["final_pending"] == cancel["live_window"]


if __name__ == "__main__":
    run_e13_experiment()
