"""E7 — WS-ReliableMessaging-lite on an unreliable substrate.

The paper's event model assumes networks where "components ... are
notified when and if responses are returned" (§III).  E7 measures what
the reliability layer buys under frame loss, for both bindings:

1. request/response invokes at drop rates {0, 5, 20, 50}% — delivery
   rate and p50/p99 completion time for three client profiles:
   *naive* (one attempt), *retry* (8 attempts, exponential backoff,
   same MessageID), *assured* (retry + circuit breaker; for one-way
   sends also explicit acks);
2. one-way P2PS notifications — bare fire-and-forget vs the ack +
   retransmit handshake, measured by what the provider actually
   executed;
3. duplicate suppression — a stateful counter under retransmission
   must execute once per unique request;
4. load shedding — total frames thrown at a *dead* provider with and
   without the breaker.

Results land in BENCH_E7.json for machine consumption.
"""

from _workloads import (
    advance,
    build_p2ps_world,
    build_standard_world,
    emit_json,
    fmt_ms,
    print_table,
)

import numpy as np

from repro.core.events import RecordingListener
from repro.reliability import (
    BreakerConfig,
    ReliabilityPolicy,
    RetryPolicy,
)
from repro.simnet import DropInjector

DROP_RATES = [0.0, 0.05, 0.2, 0.5]
N_REQUESTS = 100
N_ONEWAY = 100
REQUEST_GAP = 0.05  # virtual pacing between client calls
ATTEMPT_TIMEOUT = 0.5


class CountingService:
    """Non-idempotent stateful workload for the dedup experiment."""

    def __init__(self):
        self.executions = 0

    def bump(self) -> int:
        self.executions += 1
        return self.executions


def client_policy(profile: str, seed: int = 0):
    """The three client profiles compared throughout E7."""
    if profile == "naive":
        return ReliabilityPolicy.naive()
    retry = RetryPolicy(
        max_attempts=8, base_delay=0.05, multiplier=2.0, max_delay=0.5,
        jitter=0.1, seed=seed,
    )
    if profile == "retry":
        return ReliabilityPolicy(retry=retry)
    # assured: retry + ack (one-way flows) + a breaker tuned to shed
    # dead peers (near-total loss) without tripping on lossy links
    return ReliabilityPolicy(
        retry=retry,
        ack=True,
        breaker=BreakerConfig(
            window=16, failure_threshold=0.9, min_calls=8, open_timeout=1.0
        ),
    )


# ----------------------------------------------------------------------
# 1. request/response delivery + completion time
# ----------------------------------------------------------------------
def measure_invokes(binding: str, profile: str, drop: float, seed: int = 0):
    """One fresh world per configuration; returns the metrics dict."""
    if binding == "standard":
        world = build_standard_world(n_providers=1, n_consumers=1)
    else:
        world = build_p2ps_world(n_providers=1, n_consumers=1)
    net, consumer = world.net, world.consumers[0]
    handle = consumer.locate_one("Echo0", timeout=5.0)  # before the loss starts
    listener = RecordingListener()
    consumer.add_listener(listener)
    if drop > 0:
        DropInjector(net, p=drop, seed=seed)
    policy = client_policy(profile, seed=seed)
    delivered, times = 0, []
    for i in range(N_REQUESTS):
        start = net.now
        try:
            result = consumer.invoke(
                handle, "echo", {"message": f"m{i}"},
                timeout=ATTEMPT_TIMEOUT, policy=policy,
            )
            assert result == f"m{i}"
            delivered += 1
            times.append(net.now - start)
        except Exception:  # noqa: BLE001 - loss is the point
            pass
        advance(net, REQUEST_GAP)
    return {
        "delivery": delivered / N_REQUESTS,
        "p50_ms": float(np.percentile(times, 50)) * 1000 if times else None,
        "p99_ms": float(np.percentile(times, 99)) * 1000 if times else None,
        "retransmits": len(listener.of_kind("retransmit")),
    }


# ----------------------------------------------------------------------
# 2. one-way notifications over pipes (ack vs fire-and-forget)
# ----------------------------------------------------------------------
def measure_oneway(profile: str, drop: float, seed: int = 0):
    """Delivery measured at the *provider*: executions of the target op."""
    world = build_p2ps_world(n_providers=1, n_consumers=1)
    net, provider, consumer = world.net, world.providers[0], world.consumers[0]
    service = CountingService()
    deployed = provider.deploy(service, name="Counting")
    provider.publish("Counting")
    net.run()
    handle = consumer.locate_one("Counting", timeout=5.0)
    if drop > 0:
        DropInjector(net, p=drop, seed=seed)
    policy = None if profile == "naive" else ReliabilityPolicy(
        retry=RetryPolicy(
            max_attempts=8, base_delay=0.05, multiplier=2.0, max_delay=0.5,
            jitter=0.1, seed=seed,
        ),
        ack=True,
    )
    statuses = []
    for _ in range(N_ONEWAY):
        if profile == "naive":
            consumer.invoke_oneway(handle, "bump")
        else:
            statuses.append(
                consumer.invoke_oneway(handle, "bump", policy=policy, timeout=0.3)
            )
        advance(net, REQUEST_GAP)
    net.run()
    acked = sum(1 for s in statuses if s is not None and s.acked)
    return {
        "executed": service.executions / N_ONEWAY,
        "acked": (acked / len(statuses)) if statuses else None,
        "duplicates_suppressed": deployed.duplicates_suppressed,
    }


# ----------------------------------------------------------------------
# 3. duplicate suppression under retransmission
# ----------------------------------------------------------------------
def measure_dedup(drop: float = 0.2, seed: int = 4, n: int = 40):
    world = build_p2ps_world(n_providers=1, n_consumers=1)
    net, provider, consumer = world.net, world.providers[0], world.consumers[0]
    service = CountingService()
    deployed = provider.deploy(service, name="Counting")
    provider.publish("Counting")
    net.run()
    handle = consumer.locate_one("Counting", timeout=5.0)
    listener = RecordingListener()
    consumer.add_listener(listener)
    DropInjector(net, p=drop, seed=seed)
    policy = client_policy("retry", seed=seed)
    for _ in range(n):
        try:
            consumer.invoke(handle, "bump", timeout=ATTEMPT_TIMEOUT, policy=policy)
        except Exception:  # noqa: BLE001
            pass
        advance(net, REQUEST_GAP)
    return {
        "requests": n,
        "unique_requests_processed": deployed.requests_processed,
        "executions": service.executions,
        "retransmits": len(listener.of_kind("retransmit")),
        "duplicates_suppressed": deployed.duplicates_suppressed,
    }


# ----------------------------------------------------------------------
# 4. load shedding at a dead peer
# ----------------------------------------------------------------------
def measure_shedding(profile: str, n_calls: int = 25, binding: str = "p2ps"):
    """Total frames a client throws at a dead provider over *n_calls*."""
    world = build_p2ps_world(n_providers=1, n_consumers=1, trace=True)
    net, provider, consumer = world.net, world.providers[0], world.consumers[0]
    handle = consumer.locate_one("Echo0", timeout=5.0)
    provider.node.go_down()
    net.trace.clear()
    policy = client_policy(profile)
    shed = 0
    for _ in range(n_calls):
        try:
            consumer.invoke(
                handle, "echo", {"message": "x"},
                timeout=ATTEMPT_TIMEOUT, policy=policy,
            )
        except Exception as exc:  # noqa: BLE001
            from repro.reliability import CircuitOpenError

            if isinstance(exc, CircuitOpenError):
                shed += 1
        advance(net, REQUEST_GAP)
    frames = sum(
        1 for r in net.trace.of_kind("sent") if r.detail.get("src") == consumer.node.id
    )
    return {"frames_sent": frames, "calls_shed": shed}


# ----------------------------------------------------------------------
def run_e7_experiment():
    results = {"request_response": {}, "oneway": {}, "dedup": {}, "shedding": {}}

    rows = []
    for binding in ("standard", "p2ps"):
        results["request_response"][binding] = {}
        for profile in ("naive", "retry", "assured"):
            per_drop = {}
            for k, drop in enumerate(DROP_RATES):
                metrics = measure_invokes(binding, profile, drop, seed=17 + k)
                per_drop[str(drop)] = metrics
                rows.append([
                    binding, profile, f"{drop * 100:.0f}%",
                    f"{metrics['delivery'] * 100:.0f}%",
                    fmt_ms(metrics["p50_ms"] / 1000) if metrics["p50_ms"] else "-",
                    fmt_ms(metrics["p99_ms"] / 1000) if metrics["p99_ms"] else "-",
                    metrics["retransmits"],
                ])
            results["request_response"][binding][profile] = per_drop
    print_table(
        "E7a  request/response delivery under frame loss "
        f"({N_REQUESTS} invokes per cell)",
        ["binding", "client", "drop", "delivery", "p50", "p99", "retransmits"],
        rows,
        note="retry/assured reuse the MessageID across attempts, so provider "
        "dedup keeps the stateful path safe",
    )

    rows = []
    for profile in ("naive", "assured"):
        per_drop = {}
        for k, drop in enumerate(DROP_RATES):
            metrics = measure_oneway(profile, drop, seed=31 + k)
            per_drop[str(drop)] = metrics
            rows.append([
                profile, f"{drop * 100:.0f}%",
                f"{metrics['executed'] * 100:.0f}%",
                "-" if metrics["acked"] is None else f"{metrics['acked'] * 100:.0f}%",
                metrics["duplicates_suppressed"],
            ])
        results["oneway"][profile] = per_drop
    print_table(
        f"E7b  one-way pipe notifications ({N_ONEWAY} sends per cell)",
        ["client", "drop", "executed", "acked", "dups suppressed"],
        rows,
        note="bare one-ways silently lose frames; AckRequested + retransmit "
        "recovers them, and duplicates are re-acked without re-execution",
    )

    dedup = measure_dedup()
    results["dedup"] = dedup
    print_table(
        "E7c  at-most-once execution under retransmission (20% drop)",
        ["requests", "unique processed", "executions", "retransmits", "dups suppressed"],
        [[dedup["requests"], dedup["unique_requests_processed"],
          dedup["executions"], dedup["retransmits"], dedup["duplicates_suppressed"]]],
        note="executions == unique requests processed: retransmitted "
        "MessageIDs replay the retained response instead of re-running",
    )

    rows = []
    for profile in ("naive", "retry", "assured"):
        metrics = measure_shedding(profile)
        results["shedding"][profile] = metrics
        rows.append([profile, metrics["frames_sent"], metrics["calls_shed"]])
    print_table(
        "E7d  frames thrown at a dead provider (25 calls)",
        ["client", "frames sent", "calls shed fast"],
        rows,
        note="the breaker opens after sustained failure and fails calls "
        "without touching the network until its open-timeout lapses",
    )

    results["config"] = {
        "drop_rates": DROP_RATES,
        "n_requests": N_REQUESTS,
        "n_oneway": N_ONEWAY,
        "attempt_timeout_s": ATTEMPT_TIMEOUT,
        "request_gap_s": REQUEST_GAP,
    }
    emit_json("BENCH_E7.json", results)
    return results


# ----------------------------------------------------------------------
# assertions (ride along under pytest benchmarks/)
# ----------------------------------------------------------------------
def test_e7_assured_beats_naive_at_twenty_percent_drop():
    for binding in ("standard", "p2ps"):
        assured = measure_invokes(binding, "assured", 0.2, seed=19)
        naive = measure_invokes(binding, "naive", 0.2, seed=19)
        assert assured["delivery"] >= 0.99, binding
        assert naive["delivery"] < 0.99, binding


def test_e7_acked_oneway_recovers_lost_notifications():
    assured = measure_oneway("assured", 0.2, seed=33)
    naive = measure_oneway("naive", 0.2, seed=33)
    assert assured["executed"] >= 0.99
    assert naive["executed"] < 0.95


def test_e7_dedup_keeps_executions_at_unique_requests():
    dedup = measure_dedup()
    assert dedup["retransmits"] > 0
    assert dedup["executions"] == dedup["unique_requests_processed"]
    assert dedup["duplicates_suppressed"] > 0


def test_e7_breaker_sheds_load_from_dead_peer():
    retry = measure_shedding("retry")
    assured = measure_shedding("assured")
    assert assured["frames_sent"] < retry["frames_sent"] / 3
    assert assured["calls_shed"] > 0


def test_bench_e7_invoke_under_loss(benchmark):
    benchmark(lambda: measure_invokes("p2ps", "assured", 0.2, seed=19))


if __name__ == "__main__":
    run_e7_experiment()
