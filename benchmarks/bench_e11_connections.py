"""E11 — persistent connections: keep-alive, pipelining, bounded queues.

The paper notes that HTTP "maintains an open connection for return
messages" (§III); E11 measures what that connection is worth once the
transport actually keeps it open.  Three experiments:

1. *keep-alive* — a closed-loop many-client workload against one
   provider.  Both modes are connection-oriented; the baseline tears
   its connection down after every request (``max_requests_per_connection=1``)
   and so opens a connection each time, while the pooled mode reuses
   one warm connection per client.  A cold request rides its CONNECT,
   so the handshake costs frames (the ACCEPT, then a close), not a
   round trip.  Reported: virtual-time makespan, throughput, frames
   per request, and connections opened.
2. *pipelining* — one client, size-dependent latency
   (``FixedLatency(per_byte=...)``) so large responses genuinely arrive
   after smaller later ones.  Pipelined mode must deliver every response
   in request order with ZERO misordering while the wire demonstrably
   reordered frames; makespan is compared against the non-pipelined
   (serialised) connection.
3. *bounded queue* — a burst into a server whose per-connection
   admission bucket is small: overflow must be answered immediately
   with 503 + Retry-After, never left hanging.

Results land in BENCH_E11.json.  ``E11_SMOKE=1`` shrinks the run for CI.
"""

import os

from _workloads import emit_json, fmt_ms, print_table

from repro.simnet import FixedLatency, Network
from repro.transport import (
    HttpClient,
    HttpRequest,
    HttpResponse,
    HttpServer,
    PoolConfig,
)

SMOKE = bool(os.environ.get("E11_SMOKE"))
N_CLIENTS = 4 if SMOKE else 8
REQUESTS_PER_CLIENT = 10 if SMOKE else 50
PIPELINE_DEPTH = 8 if SMOKE else 24
BURST = 12
QUEUE_CAPACITY = 4.0
HOP_LATENCY = 0.005


def build_world(n_clients, latency=None):
    net = Network(latency=latency or FixedLatency(HOP_LATENCY))
    server_node = net.add_node("server")
    for i in range(n_clients):
        net.add_node(f"client{i}")
    server = HttpServer(server_node, 80)
    server.add_route("/echo", lambda req: HttpResponse(200, req.body))
    server.start()
    return net, server


# ----------------------------------------------------------------------
# E11a — closed-loop keep-alive throughput
# ----------------------------------------------------------------------
def measure_keep_alive(mode):
    config = (
        PoolConfig(max_requests_per_connection=1)
        if mode == "per-request"
        else PoolConfig()
    )
    net, server = build_world(N_CLIENTS)
    frames = {"n": 0}
    net.add_delivery_hook(lambda frame: frames.__setitem__("n", frames["n"] + 1) or True)
    clients = [
        HttpClient(net.get_node(f"client{i}"), pool=config) for i in range(N_CLIENTS)
    ]
    done = {"count": 0, "t_last": 0.0, "errors": 0}
    total = N_CLIENTS * REQUESTS_PER_CLIENT

    def drive(client, remaining):
        def on_response(resp, err):
            if err is not None or not resp.ok:
                done["errors"] += 1
            done["count"] += 1
            done["t_last"] = net.now
            if remaining > 1:
                drive(client, remaining - 1)

        client.request_async(
            "server", 80, HttpRequest("POST", "/echo", "payload"), on_response
        )

    for client in clients:
        drive(client, REQUESTS_PER_CLIENT)
    net.run()

    assert done["count"] == total and done["errors"] == 0
    makespan = done["t_last"]
    return {
        "clients": N_CLIENTS,
        "requests": total,
        "makespan_s": makespan,
        "throughput_rps": total / makespan,
        "frames_per_request": frames["n"] / total,
        "connections_opened": sum(c.pool.opened for c in clients),
        "connections_reused": sum(c.pool.reused for c in clients),
        "requests_served": server.requests_served,
    }


# ----------------------------------------------------------------------
# E11b — pipelining with in-order delivery under wire reordering
# ----------------------------------------------------------------------
def measure_pipelining_makespans():
    # per-byte latency: a 600-char response travels 0.3s longer than a
    # 1-char one, so later small responses overtake earlier large ones.
    # Makespan is the last-response timestamp.
    results = {}
    for pipeline in (False, True):
        net, _ = build_world(
            1, latency=FixedLatency(HOP_LATENCY, per_byte=0.0005)
        )
        # max_connections=1 keeps the comparison honest: without it the
        # non-pipelined pool opens parallel connections (HTTP/1.1
        # browser-style) instead of serialising on one
        client = HttpClient(
            net.get_node("client0"),
            pool=PoolConfig(pipeline=pipeline, max_connections=1),
        )
        bodies = [("x" * 600) if i % 3 == 0 else "s" for i in range(PIPELINE_DEPTH)]
        delivered = []
        last = {"t": 0.0}

        def cb_for(i, last=last, delivered=delivered, net=net):
            def cb(resp, err):
                delivered.append((i, resp, err))
                last["t"] = net.now

            return cb

        for i, body in enumerate(bodies):
            client.request_async(
                "server", 80, HttpRequest("POST", "/echo", body), cb_for(i),
                timeout=600,
            )
        conns = client.pool.connections()
        net.run(until=net.now + 500)

        assert len(delivered) == PIPELINE_DEPTH
        misordered = sum(1 for pos, (i, _, _) in enumerate(delivered) if i != pos)
        mismatched = sum(
            1 for i, resp, err in delivered
            if err is not None or resp.body != bodies[i]
        )
        results["pipelined" if pipeline else "serial"] = {
            "requests": PIPELINE_DEPTH,
            "makespan_s": last["t"],
            "misordered_responses": misordered,
            "mismatched_responses": mismatched,
            "wire_reorderings": sum(c.out_of_order for c in conns),
            "connections_opened": client.pool.opened,
        }
    return results


# ----------------------------------------------------------------------
# E11c — bounded per-connection queue answers overflow with busy
# ----------------------------------------------------------------------
def measure_queue_overflow():
    net, server = build_world(1)
    server.max_pending_per_connection = QUEUE_CAPACITY
    server.conn_drain_rate = 1.0  # virtually no draining within the burst
    client = HttpClient(net.get_node("client0"), pool=PoolConfig(pipeline=True))
    results = []
    for i in range(BURST):
        client.request_async(
            "server", 80, HttpRequest("POST", "/echo", f"r{i}"),
            lambda resp, err: results.append((resp, err)),
        )
    net.run()

    assert len(results) == BURST  # nothing hangs: every request answered
    served = [r for r, e in results if e is None and r.status == 200]
    shed = [r for r, e in results if e is None and r.status == 503]
    assert len(served) + len(shed) == BURST
    retry_hints = [float(r.headers["Retry-After"]) for r in shed]
    return {
        "burst": BURST,
        "queue_capacity": QUEUE_CAPACITY,
        "served": len(served),
        "shed": len(shed),
        "retry_after_min_s": min(retry_hints) if retry_hints else None,
        "retry_after_max_s": max(retry_hints) if retry_hints else None,
    }


# ----------------------------------------------------------------------
def run_e11_experiment():
    results = {}

    rows = []
    for mode in ("per-request", "pooled"):
        metrics = measure_keep_alive(mode)
        results.setdefault("keep_alive", {})[mode] = metrics
        rows.append([
            mode,
            metrics["requests"],
            fmt_ms(metrics["makespan_s"]),
            f"{metrics['throughput_rps']:.0f}/s",
            f"{metrics['frames_per_request']:.2f}",
            metrics["connections_opened"],
            metrics["connections_reused"],
        ])
    print_table(
        f"E11a closed-loop keep-alive ({N_CLIENTS} clients x "
        f"{REQUESTS_PER_CLIENT} requests, {HOP_LATENCY * 1000:g}ms hops)",
        ["mode", "requests", "makespan", "throughput", "frames/req", "opened", "reused"],
        rows,
        note="both modes are connection-oriented; per-request tears down "
        "after each call and pays a connection (ACCEPT + close) per request",
    )

    pipe = measure_pipelining_makespans()
    results["pipelining"] = pipe
    print_table(
        f"E11b pipelining under size-dependent latency "
        f"({PIPELINE_DEPTH} requests, 1 connection)",
        ["mode", "makespan", "wire reorderings", "misordered", "mismatched"],
        [
            [
                name,
                fmt_ms(m["makespan_s"]),
                m["wire_reorderings"],
                m["misordered_responses"],
                m["mismatched_responses"],
            ]
            for name, m in pipe.items()
        ],
        note="large responses physically arrive after smaller later ones; "
        "the reorder buffer still delivers strictly in request order",
    )

    overflow = measure_queue_overflow()
    results["queue_overflow"] = overflow
    print_table(
        f"E11c bounded per-connection queue (burst {BURST}, "
        f"capacity {QUEUE_CAPACITY:g})",
        ["burst", "served", "shed (503)", "Retry-After"],
        [[
            overflow["burst"], overflow["served"], overflow["shed"],
            f"{overflow['retry_after_min_s']:.2f}-"
            f"{overflow['retry_after_max_s']:.2f}s"
            if overflow["shed"] else "-",
        ]],
        note="overflow is answered immediately with 503 + Retry-After and "
        "feeds supervision's busy-backoff, never left hanging",
    )

    emit_json("BENCH_E11.json", results)
    return results


# ----------------------------------------------------------------------
# assertions (run under pytest; the CI smoke uses E11_SMOKE=1)
# ----------------------------------------------------------------------
def test_e11_pooled_beats_per_request_throughput():
    per_request = measure_keep_alive("per-request")
    pooled = measure_keep_alive("pooled")
    # a cold request rides its CONNECT: setup costs frames, not latency
    assert pooled["throughput_rps"] >= per_request["throughput_rps"]
    assert per_request["frames_per_request"] == 4  # + ACCEPT, + close
    # pooled: two hops plus one ACCEPT per client
    assert pooled["frames_per_request"] == (2 * pooled["requests"] + N_CLIENTS) / pooled["requests"]
    assert pooled["connections_opened"] == N_CLIENTS
    assert per_request["connections_opened"] == N_CLIENTS * REQUESTS_PER_CLIENT


def test_e11_pipelining_preserves_order_and_wins_makespan():
    pipe = measure_pipelining_makespans()
    assert pipe["pipelined"]["wire_reorderings"] > 0
    assert pipe["pipelined"]["misordered_responses"] == 0
    assert pipe["pipelined"]["mismatched_responses"] == 0
    assert pipe["serial"]["misordered_responses"] == 0
    assert pipe["pipelined"]["makespan_s"] < pipe["serial"]["makespan_s"]
    assert pipe["pipelined"]["connections_opened"] == 1


def test_e11_queue_overflow_answers_busy():
    overflow = measure_queue_overflow()
    assert overflow["shed"] > 0
    assert overflow["served"] == int(QUEUE_CAPACITY)
    assert overflow["retry_after_min_s"] > 0


if __name__ == "__main__":
    run_e11_experiment()
