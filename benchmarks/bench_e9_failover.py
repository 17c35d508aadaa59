"""E9 — availability under provider churn, with and without failover.

The paper's P2P setting assumes transient providers: peers "may
connect and disconnect frequently" while the services they host stay
advertised.  E9 replicates one logical service across several provider
peers, runs a churn schedule that cycles each provider down and back
up, and drives a paced client against the merged multi-endpoint
handle:

1. *baseline* — plain invocation: the client always talks to the
   deterministically-first endpoint; when that provider is in its down
   window the call burns its retry schedule and fails;
2. *failover* — the supervision subsystem: health-ranked endpoint
   choice, cross-EPR failover on retryable faults, original MessageID
   propagated so provider-side dedup keeps execution at-most-once.

Reported per mode: availability (fraction of calls answered), p50/p99
completion latency of the answered calls, and failover counts.  A
separate churn run against a stateful counter service asserts the
at-most-once guarantee: no provider executes a MessageID twice, ever.

Results land in BENCH_E9.json.  ``E9_SMOKE=1`` shrinks the run for CI.
"""

import os

from _workloads import emit_json, fmt_ms, print_table

import numpy as np

from repro.core import ServiceHandle, WSPeer
from repro.core.binding import StandardBinding
from repro.simnet import ChurnSchedule, FixedLatency, Network
from repro.supervision.failover import attach_failover
from repro.uddi import UddiRegistryNode

SMOKE = bool(os.environ.get("E9_SMOKE"))
N_PROVIDERS = 3
N_CALLS = 40 if SMOKE else 300
REQUEST_GAP = 0.05      # virtual pacing between client calls
ATTEMPT_TIMEOUT = 0.25  # per-attempt budget inside one endpoint
DOWNTIME = 1.0          # seconds each provider spends down per cycle
CYCLE = 4.5             # staggered: at most one provider down at a time


class EchoService:
    def echo(self, message: str) -> str:
        return message


class CounterService:
    """Stateful: every *execution* is visible, duplicates included."""

    def __init__(self):
        self.value = 0

    def increment(self, by: int) -> int:
        self.value += by
        return self.value


def build_replicated_world(service_factory):
    """One logical service on N providers, merged into one handle."""
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    providers, services, endpoints = [], [], []
    wsdl = None
    for i in range(N_PROVIDERS):
        peer = WSPeer(net.add_node(f"prov{i}"), StandardBinding(registry.endpoint))
        service = service_factory()
        peer.deploy(service, name="Echo")
        providers.append(peer)
        services.append(service)
        local = peer.local_handle("Echo")
        wsdl = wsdl or local.wsdl
        endpoints.extend(local.endpoints)
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    handle = ServiceHandle("Echo", wsdl, endpoints, source="merged")
    return net, providers, consumer, handle, services


def schedule_churn(net, providers, horizon):
    """Cycle every provider down/up, phase-shifted so the service as a
    whole is never fully dark.  Identical between modes (no seeds)."""
    churn = ChurnSchedule(net)
    cycles = 0
    for i, provider in enumerate(providers):
        cycles += churn.kill_restart_cycle(
            provider.node.id,
            start=0.5 + i * (CYCLE / N_PROVIDERS),
            downtime=DOWNTIME,
            period=CYCLE,
            until=horizon,
        )
    return churn, cycles


def pace(net, dt):
    """Let *dt* pass WITHOUT draining the churn schedule: a bare
    ``net.run()`` would fast-forward through every future kill."""
    net.run(until=net.now + dt)


def drive(consumer, handle, net, invoke):
    """N paced calls; returns (availability, latencies, errors)."""
    ok, times, errors = 0, [], 0
    for i in range(N_CALLS):
        start = net.now
        try:
            result = invoke(f"m{i}")
            assert result == f"m{i}"
            ok += 1
            times.append(net.now - start)
        except Exception:  # noqa: BLE001 - unavailability is the metric
            errors += 1
        pace(net, REQUEST_GAP)
    return ok / N_CALLS, times, errors


def measure_availability(mode):
    net, providers, consumer, handle, _ = build_replicated_world(EchoService)
    horizon = N_CALLS * (REQUEST_GAP + 4 * ATTEMPT_TIMEOUT)
    churn, cycles = schedule_churn(net, providers, horizon)

    if mode == "failover":
        executor = attach_failover(consumer)
        invoke = lambda msg: executor.invoke(  # noqa: E731
            handle, "echo", {"message": msg}, timeout=ATTEMPT_TIMEOUT
        )
    else:
        executor = None
        invoke = lambda msg: consumer.invoke(  # noqa: E731
            handle, "echo", {"message": msg}, timeout=ATTEMPT_TIMEOUT
        )

    availability, times, errors = drive(consumer, handle, net, invoke)
    return {
        "availability": availability,
        "p50_ms": float(np.percentile(times, 50)) * 1000 if times else None,
        "p99_ms": float(np.percentile(times, 99)) * 1000 if times else None,
        "failed_calls": errors,
        "failovers": executor.failovers if executor else 0,
        "churn_cycles": cycles,
    }


def measure_at_most_once():
    """Churn + failover against stateful counters: every provider must
    execute each MessageID at most once, so per provider the execution
    count equals the unique-request count exactly."""
    net, providers, consumer, handle, services = build_replicated_world(
        CounterService
    )
    horizon = N_CALLS * (REQUEST_GAP + 4 * ATTEMPT_TIMEOUT)
    schedule_churn(net, providers, horizon)
    executor = attach_failover(consumer)

    ok = 0
    for _ in range(N_CALLS):
        try:
            executor.invoke(handle, "increment", {"by": 1}, timeout=ATTEMPT_TIMEOUT)
            ok += 1
        except Exception:  # noqa: BLE001
            pass
        pace(net, REQUEST_GAP)

    per_provider = []
    duplicate_executions = 0
    for provider, service in zip(providers, services):
        deployed = provider.server.container.require("Echo")
        per_provider.append({
            "node": provider.node.id,
            "executions": service.value,
            "unique_requests": deployed.requests_processed,
            "duplicates_suppressed": deployed.duplicates_suppressed,
        })
        duplicate_executions += service.value - deployed.requests_processed
    return {
        "calls": N_CALLS,
        "answered": ok,
        "failovers": executor.failovers,
        "duplicate_executions": duplicate_executions,
        "per_provider": per_provider,
    }


# ----------------------------------------------------------------------
def run_e9_experiment():
    results = {"availability": {}, "at_most_once": {}}

    rows = []
    for mode in ("baseline", "failover"):
        metrics = measure_availability(mode)
        results["availability"][mode] = metrics
        rows.append([
            mode,
            f"{metrics['availability'] * 100:.1f}%",
            fmt_ms(metrics["p50_ms"] / 1000) if metrics["p50_ms"] else "-",
            fmt_ms(metrics["p99_ms"] / 1000) if metrics["p99_ms"] else "-",
            metrics["failed_calls"],
            metrics["failovers"],
        ])
    print_table(
        f"E9a  availability under provider churn ({N_CALLS} calls, "
        f"{N_PROVIDERS} providers cycling {DOWNTIME:g}s/{CYCLE:g}s down)",
        ["client", "availability", "p50", "p99", "failed", "failovers"],
        rows,
        note="the baseline client is pinned to the deterministically-first "
        "endpoint; failover re-ranks by health and hops EPRs mid-call",
    )

    amo = measure_at_most_once()
    results["at_most_once"] = amo
    print_table(
        "E9b  at-most-once across failovers (stateful counters)",
        ["calls", "answered", "failovers", "duplicate executions"],
        [[amo["calls"], amo["answered"], amo["failovers"],
          amo["duplicate_executions"]]],
        note="per provider, executions == unique MessageIDs processed: "
        "failover reuses the original MessageID so dedup replays instead "
        "of re-running",
    )

    emit_json("BENCH_E9.json", results)
    return results


# ----------------------------------------------------------------------
# assertions (run under pytest; the CI smoke uses E9_SMOKE=1)
# ----------------------------------------------------------------------
def test_e9_failover_beats_baseline_availability():
    baseline = measure_availability("baseline")
    failover = measure_availability("failover")
    assert failover["availability"] >= 0.99
    assert baseline["availability"] < failover["availability"] - 0.05
    assert failover["failovers"] > 0


def test_e9_no_duplicate_executions_across_failovers():
    amo = measure_at_most_once()
    assert amo["answered"] > 0
    assert amo["duplicate_executions"] == 0
    for row in amo["per_provider"]:
        assert row["executions"] == row["unique_requests"]


if __name__ == "__main__":
    run_e9_experiment()
