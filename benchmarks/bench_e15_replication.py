"""E15 — replicated stateful services: crash consistency + handoff.

E9 showed *stateless* availability under churn: failover keeps calls
answered and MessageID reuse keeps execution at-most-once.  But a
stateful service that fails over to a fresh replica silently loses the
session — the paper's transient-peer setting makes that the common
case, not a corner.  E15 measures what the replication plane buys:

1. *survival* — paced stateful calls (a whole-object counter and a
   session-partitioned cart) under the E9 churn schedule, replicated
   vs unreplicated.  A *consistency violation* is an answered call
   whose result breaks the session's expected sequence — a lost update
   or a duplicate execution, as the client actually observes it.
2. *crash points* — the simnet fault schedule kills the primary at
   adversarial protocol instants (before the delta ships, mid-ship,
   after ship but before the reply, mid-snapshot-catch-up, and during
   the handoff itself) and asserts zero violations and zero duplicate
   acknowledgements survive each one.
3. *overhead* — happy-path cost of shipping deltas: client latency
   ratio (ships are asynchronous, so this should be ~1.0) plus the
   wire amplification (r extra frames per mutation).

Results land in BENCH_E15.json.  ``E15_SMOKE=1`` shrinks the run.
"""

import os

from _workloads import emit_json, fmt_ms, print_table

import numpy as np

from repro.core import ServiceHandle, WSPeer
from repro.core.binding import StandardBinding
from repro.replication import ReplicationConfig, ReplicationGroup
from repro.simnet import ChurnSchedule, FixedLatency, Network
from repro.supervision.failover import attach_failover
from repro.uddi import UddiRegistryNode
from repro.simnet.wiretap import payload_text

SMOKE = bool(os.environ.get("E15_SMOKE"))
N_PROVIDERS = 3
N_CALLS = 30 if SMOKE else 200
REQUEST_GAP = 0.05
ATTEMPT_TIMEOUT = 0.25
DOWNTIME = 1.0
CYCLE = 4.5  # staggered: at most one provider down at a time


class CounterService:
    """Whole-object session state; every execution moves the value."""

    def __init__(self):
        self.value = 0

    def increment(self, by: int) -> int:
        self.value += by
        return self.value


class CartService:
    """Session-partitioned state via the session protocol."""

    def __init__(self):
        self._carts = {}

    def get_session_state(self, session):
        return dict(self._carts.get(session, {}))

    def set_session_state(self, session, state):
        self._carts[session] = dict(state)

    def add_item(self, session: str, item: str) -> int:
        cart = self._carts.setdefault(session, {"items": []})
        cart["items"] = list(cart["items"]) + [item]
        return len(cart["items"])


class World:
    """One logical stateful service on N providers."""

    def __init__(self, service_factory, replicated, config=None):
        self.net = Network(latency=FixedLatency(0.002))
        self.registry = UddiRegistryNode(self.net.add_node("registry"))
        self.providers, self.services = [], []
        endpoints, wsdl = [], None
        for i in range(N_PROVIDERS):
            peer = WSPeer(
                self.net.add_node(f"prov{i}"),
                StandardBinding(self.registry.endpoint),
            )
            service = service_factory()
            peer.deploy(service, name="Svc")
            self.providers.append(peer)
            self.services.append(service)
            local = peer.local_handle("Svc")
            wsdl = wsdl or local.wsdl
            endpoints.extend(local.endpoints)
        self.consumer = WSPeer(
            self.net.add_node("cons"), StandardBinding(self.registry.endpoint)
        )
        self.executor = attach_failover(self.consumer)
        self.group = None
        if replicated:
            self.group = ReplicationGroup.establish(
                self.providers[0], "Svc", self.providers[1:], r=N_PROVIDERS - 1,
                config=config,
            )
            self.executor.attach_replication(self.group)
            self.handle = self.group.handle()
        else:
            self.handle = ServiceHandle("Svc", wsdl, endpoints, source="merged")

    def pace(self, dt=REQUEST_GAP):
        """Advance *dt* WITHOUT draining future churn kills."""
        self.net.run(until=self.net.now + dt)

    def invoke(self, operation, args):
        return self.executor.invoke(
            self.handle, operation, args, timeout=ATTEMPT_TIMEOUT
        )


def schedule_churn(world, horizon):
    churn = ChurnSchedule(world.net)
    cycles = 0
    for i, provider in enumerate(world.providers):
        cycles += churn.kill_restart_cycle(
            provider.node.id,
            start=0.5 + i * (CYCLE / N_PROVIDERS),
            downtime=DOWNTIME,
            period=CYCLE,
            until=horizon,
        )
    return cycles


# ----------------------------------------------------------------------
# E15a  survival + consistency under churn
# ----------------------------------------------------------------------
def drive_counter(world, n_calls):
    """Paced increments; an answered call must return exactly one more
    than the last answered value (lost update ⇒ repeat/drop, duplicate
    execution ⇒ skip — both break contiguity)."""
    answered = violations = 0
    expected = 0
    for _ in range(n_calls):
        try:
            value = world.invoke("increment", {"by": 1})
        except Exception:  # noqa: BLE001 - unavailability is the metric
            world.pace()
            continue
        answered += 1
        if value != expected + 1:
            violations += 1
        expected = value  # resync so one break is counted once
        world.pace()
    return answered, violations


def drive_cart(world, n_calls):
    """Paced add_item calls alternating between two sessions."""
    answered = violations = 0
    expected = {"alice": 0, "bob": 0}
    for i in range(n_calls):
        session = "alice" if i % 2 == 0 else "bob"
        try:
            size = world.invoke(
                "add_item", {"session": session, "item": f"i{i}"}
            )
        except Exception:  # noqa: BLE001
            world.pace()
            continue
        answered += 1
        if size != expected[session] + 1:
            violations += 1
        expected[session] = size
        world.pace()
    return answered, violations


def measure_survival(workload, replicated):
    factory, driver = {
        "counter": (CounterService, drive_counter),
        "cart": (CartService, drive_cart),
    }[workload]
    world = World(factory, replicated=replicated)
    horizon = N_CALLS * (REQUEST_GAP + 4 * ATTEMPT_TIMEOUT)
    cycles = schedule_churn(world, horizon)
    answered, violations = driver(world, N_CALLS)
    out = {
        "calls": N_CALLS,
        "answered": answered,
        "survival": answered / N_CALLS,
        "consistency_violations": violations,
        "failovers": world.executor.failovers,
        "handoffs": world.executor.handoffs,
        "churn_cycles": cycles,
    }
    if world.group is not None:
        world.pace(3.0)  # let anti-entropy settle before judging
        out["divergences"] = world.group.divergences()
        out["converged_live"] = world.group.converged()
    return out


# ----------------------------------------------------------------------
# E15b  adversarial crash points
# ----------------------------------------------------------------------
def _arm(world, harness, point):
    """Install the crash for *point*, to fire on the next mutation."""
    primary = world.providers[0]
    svc = lambda e: e.detail.get("service") == "Svc"  # noqa: E731
    if point == "before_ship":
        # kill at the request-received instant: the write completes but
        # is never shipped nor acknowledged (an orphan)
        harness.kill_on_event(
            primary, "request-received", primary.node.id, match=svc
        )
    elif point == "during_ship":
        # one replica's delta is lost in flight, then the primary dies:
        # the under-shipped replica must not serve the session
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
        # deltas out, reply lost, primary dead: the handoff target must
        # answer the retransmission from its dedup window, not re-run
        harness.drop_replies_from(primary.node.id, count=1)
        harness.kill_on_event(
            primary, "response-sent", primary.node.id, defer=True, match=svc
        )
    elif point == "during_handoff":
        # after_ship, plus the first handoff target dies mid-redirect:
        # the call has to survive a second hop
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


class CounterDrive:
    """A resumable paced counter drive: tracks the last answered value
    so crash scenarios can interleave kills between call batches."""

    def __init__(self, world):
        self.world = world
        self.answered = 0
        self.violations = 0
        self.expected = 0
        self.calls = 0

    def run(self, n_calls):
        for _ in range(n_calls):
            self.calls += 1
            try:
                value = self.world.invoke("increment", {"by": 1})
            except Exception:  # noqa: BLE001
                self.world.pace()
                continue
            self.answered += 1
            if value != self.expected + 1:
                self.violations += 1
            self.expected = value  # resync so one break counts once
            self.world.pace()
        return self


def measure_crash_point(point):
    if point == "mid_snapshot":
        return measure_mid_snapshot_crash()
    world = World(CounterService, replicated=True)
    harness = ChurnSchedule(world.net)
    drive = CounterDrive(world).run(2)  # warm-up
    _arm(world, harness, point)
    drive.run(6)
    world.pace(3.0)  # anti-entropy repair window
    return {
        "answered": drive.answered,
        "calls": drive.calls,
        "consistency_violations": drive.violations,
        "kills": harness.describe(),
        "handoffs": world.executor.handoffs,
        "divergences": world.group.divergences(),
        "converged_live": world.group.converged(),
    }


def measure_mid_snapshot_crash():
    """A replica returns from a long outage (its gap is past the
    compaction floor, so catch-up needs a snapshot) and the primary
    dies the moment it comes back: the snapshot must come from the
    surviving member, and calls must keep flowing meanwhile."""
    config = ReplicationConfig(compact_after=2)
    world = World(CounterService, replicated=True, config=config)
    harness = ChurnSchedule(world.net)
    lagging = world.providers[2]

    drive = CounterDrive(world).run(1)
    harness.kill(lagging.node.id)
    drive.run(5)  # history compacts past the floor while it is down
    harness.restart(lagging.node.id, world.net.now + 0.1)
    # the primary dies just as the lagging member restarts, mid-resync
    harness.kill_on_event(
        world.providers[0], "request-received",
        world.providers[0].node.id,
        match=lambda e: e.detail.get("service") == "Svc",
    )
    drive.run(4)
    world.pace(3.0)
    member = world.group.members[2]
    return {
        "answered": drive.answered,
        "calls": drive.calls,
        "consistency_violations": drive.violations,
        "kills": harness.describe(),
        "handoffs": world.executor.handoffs,
        "divergences": world.group.divergences(),
        "converged_live": world.group.converged(),
        "snapshots_installed": member.store.snapshots_installed,
    }


CRASH_POINTS = [
    "before_ship",
    "during_ship",
    "after_ship",
    "mid_snapshot",
    "during_handoff",
]


# ----------------------------------------------------------------------
# E15c  happy-path overhead
# ----------------------------------------------------------------------
def measure_overhead():
    n = 20 if SMOKE else 100
    out = {}
    for mode in ("unreplicated", "replicated"):
        world = World(CounterService, replicated=(mode == "replicated"))
        times = []
        for _ in range(n):
            start = world.net.now
            world.invoke("increment", {"by": 1})
            times.append(world.net.now - start)
            world.pace()
        out[mode] = {
            "p50_ms": float(np.percentile(times, 50)) * 1000,
            "mean_ms": float(np.mean(times)) * 1000,
        }
        if world.group is not None:
            out[mode]["ships_sent"] = world.group.ships_sent
            out[mode]["ships_per_mutation"] = world.group.ships_sent / n
    base = out["unreplicated"]["mean_ms"]
    rep = out["replicated"]["mean_ms"]
    out["overhead_pct"] = (rep - base) / base * 100 if base else 0.0
    return out


# ----------------------------------------------------------------------
def run_e15_experiment():
    results = {"survival": {}, "crash_points": {}, "overhead": {}}

    rows = []
    for workload in ("counter", "cart"):
        results["survival"][workload] = {}
        for mode, replicated in (("unreplicated", False), ("replicated", True)):
            metrics = measure_survival(workload, replicated)
            results["survival"][workload][mode] = metrics
            rows.append([
                workload,
                mode,
                f"{metrics['survival'] * 100:.1f}%",
                metrics["consistency_violations"],
                metrics["failovers"],
                metrics.get("handoffs", 0),
            ])
    print_table(
        f"E15a  stateful survival under churn ({N_CALLS} calls, "
        f"{N_PROVIDERS} providers cycling {DOWNTIME:g}s/{CYCLE:g}s down)",
        ["workload", "mode", "survival", "violations", "failovers",
         "handoffs"],
        rows,
        note="a violation is an answered call whose result breaks the "
        "session's sequence: without replication every failover silently "
        "resets the session",
    )

    rows = []
    for point in CRASH_POINTS:
        metrics = measure_crash_point(point)
        results["crash_points"][point] = metrics
        rows.append([
            point,
            f"{metrics['answered']}/{metrics['calls']}",
            metrics["consistency_violations"],
            metrics["divergences"],
            "yes" if metrics["converged_live"] else "NO",
        ])
    print_table(
        "E15b  adversarial primary kills (crash harness)",
        ["crash point", "answered", "violations", "divergences",
         "converged"],
        rows,
        note="the harness kills the primary at event-defined protocol "
        "instants; shipped dedup state makes handoff replay, never re-run",
    )

    overhead = measure_overhead()
    results["overhead"] = overhead
    print_table(
        "E15c  happy-path replication overhead",
        ["mode", "p50", "mean", "ships/mutation"],
        [
            [
                mode,
                fmt_ms(overhead[mode]["p50_ms"] / 1000),
                fmt_ms(overhead[mode]["mean_ms"] / 1000),
                overhead[mode].get("ships_per_mutation", "-"),
            ]
            for mode in ("unreplicated", "replicated")
        ],
        note=f"client-visible overhead {overhead['overhead_pct']:+.1f}% — "
        "delta ships are asynchronous, so the cost is wire amplification "
        "(r extra frames per mutation), not latency",
    )

    emit_json("BENCH_E15.json", results)
    return results


# ----------------------------------------------------------------------
# assertions (run under pytest; the CI smoke uses E15_SMOKE=1)
# ----------------------------------------------------------------------
def test_e15_replication_survives_churn_consistently():
    replicated = measure_survival("counter", replicated=True)
    unreplicated = measure_survival("counter", replicated=False)
    assert replicated["survival"] >= 0.99
    assert replicated["consistency_violations"] == 0
    assert replicated["divergences"] == 0
    assert replicated["converged_live"]
    # the contrast: an unreplicated stateful service loses its session
    # on every failover
    assert unreplicated["consistency_violations"] > 0


def test_e15_cart_sessions_survive_churn():
    metrics = measure_survival("cart", replicated=True)
    assert metrics["survival"] >= 0.99
    assert metrics["consistency_violations"] == 0
    assert metrics["converged_live"]


def test_e15_crash_points_lose_nothing_acknowledged():
    for point in CRASH_POINTS:
        metrics = measure_crash_point(point)
        assert metrics["consistency_violations"] == 0, point
        assert metrics["divergences"] == 0, point
        assert metrics["converged_live"], point
        assert metrics["answered"] >= metrics["calls"] - 1, point


def test_e15_happy_path_overhead_negligible():
    overhead = measure_overhead()
    assert overhead["overhead_pct"] <= 10.0
    assert overhead["replicated"]["ships_per_mutation"] == N_PROVIDERS - 1


if __name__ == "__main__":
    run_e15_experiment()
