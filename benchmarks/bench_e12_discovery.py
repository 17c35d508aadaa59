"""E12 — the distributed discovery plane vs the single registry.

Two experiments, both closed-loop and in virtual time:

1. *lookup throughput at scale* — SERVICES deployed services (10k full
   run) with a hot subset looked up by concurrent consumers.  Baseline:
   the classic single ``UddiRegistryNode`` driven by a stock UDDI v2
   inquiry chain (3 registry round-trips + WSDL GET per lookup, all
   landing on one serial server).  Plane: 4 shards x R2 with rendezvous
   caching — misses cost R shard queries, hits cost zero frames.
   Acceptance: plane throughput >= 3x baseline.
2. *staleness under churn* — providers re-publish on a period (bumping
   the freshness counter, gossiping the new revision) while the E9
   churn schedule kills registry shards and browns out a provider.
   Every lookup completing after an announcement's valid_time + one
   gossip round must observe a revision at least that fresh.
   Acceptance: zero staleness violations; the plane stays available
   through single-shard outages.

Results land in BENCH_E12.json.  ``E12_SMOKE=1`` shrinks the run for CI.
"""

import os

from _workloads import emit_json, fmt_ms, print_table

from repro.core import WSPeer
from repro.core.binding import StandardBinding
from repro.discovery import DiscoveryPlane
from repro.simnet import FixedLatency, Network
from repro.simnet.churn import ChurnSchedule
from repro.transport.http import HttpRequest
from repro.transport.uri import Uri

SMOKE = bool(os.environ.get("E12_SMOKE"))
SERVICES = 400 if SMOKE else 10_000
HOT = 16
N_PROVIDERS = 4
N_CONSUMERS = 4 if SMOKE else 8
LOOKUPS_PER_CONSUMER = 30 if SMOKE else 40
SHARDS = 4
REPLICATION = 2
REGISTRY_SERVICE_TIME = 0.002  # each registry is a serial 2ms queue
HOP_LATENCY = 0.002

# staleness experiment
STALE_RUNTIME = 45.0 if SMOKE else 90.0
REPUBLISH_EVERY = 5.0
VALID_TIME = 8.0
LEASE_TTL = 20.0
CHURN_TIMEOUT = 2.0  # short client timeout so dead shards cost 2s, not 30s
# a publish may stall CHURN_TIMEOUT failing over from a dead primary, and
# a lookup may hold its merged answer CHURN_TIMEOUT waiting on a dead
# replica; both delays plus a gossip round pad the promised bound
PUBLISH_SETTLE = 2 * CHURN_TIMEOUT + 1.0
LOOKUP_EVERY = 0.5


class Echo:
    def echo(self, message: str) -> str:
        return message


def hot_names():
    return [f"HotSvc{i:02d}" for i in range(HOT)]


def cold_seed(plane, n):
    """Bulk-register *n* cold services (never looked up, pure scale)."""
    for i in range(n):
        name = f"ColdSvc{i:05d}"
        plane.seed_service(
            name,
            f"http://coldhost:80/services/{name}",
            wsdl_url=f"http://coldhost:80/services/{name}.wsdl",
        )


def deploy_hot_providers(net, plane_or_uri, use_plane):
    """N provider peers, each hosting an equal slice of the hot set."""
    providers = []
    for p in range(N_PROVIDERS):
        if use_plane:
            peer = WSPeer(
                net.add_node(f"prov{p}"),
                StandardBinding(plane_or_uri.registry_uris["registry-0"]),
            )
            plane_or_uri.attach(peer)
        else:
            peer = WSPeer(net.add_node(f"prov{p}"), StandardBinding(plane_or_uri))
        for name in hot_names()[p::N_PROVIDERS]:
            peer.deploy(Echo(), name=name)
            peer.publish(name)
        providers.append(peer)
    net.run()
    return providers


# ----------------------------------------------------------------------
# E12a — closed-loop lookup throughput at scale
# ----------------------------------------------------------------------
def classic_lookup(uddi, name, done):
    """A stock UDDI v2 inquiry: find_service -> get_serviceDetail ->
    get_tModelDetail -> WSDL GET, one round trip each."""
    def on_services(services, error):
        if error is not None or not services:
            return done(0, error)
        uddi.call_async(
            "get_service_detail", on_detail, service_key=services[0]["serviceKey"]
        )

    def on_detail(detail, error):
        if error is not None:
            return done(0, error)
        keys = [k for b in detail["bindingTemplates"] for k in b["tModelKeys"]]
        uddi.call_async("get_tmodel_detail", on_tmodel, tmodel_key=keys[0])

    def on_tmodel(tmodel, error):
        if error is not None:
            return done(0, error)
        uri = Uri.parse(tmodel["overviewURL"])
        uddi.http.request_async(
            uri.host, uri.port or 80, HttpRequest("GET", "/" + uri.path),
            lambda response, error: done(int(error is None and response.ok), error),
        )

    uddi.call_async("find_service", on_services, name_pattern=name, category_bag=[])


def measure_baseline_throughput():
    """One registry node driven by the pre-E12 path: the classic UDDI v2
    inquiry chain, which the registry still serves."""
    net = Network(latency=FixedLatency(HOP_LATENCY))
    single = DiscoveryPlane(
        net, shards=1, replication=1, registry_service_time=REGISTRY_SERVICE_TIME
    )
    registry_uri = single.registry_uris["registry-0"]
    cold_seed(single, SERVICES - HOT)
    deploy_hot_providers(net, registry_uri, use_plane=False)

    consumers = [
        WSPeer(net.add_node(f"cons{i}"), StandardBinding(registry_uri))
        for i in range(N_CONSUMERS)
    ]
    lookups = [
        lambda name, done, uddi=peer.client.locator.uddi: classic_lookup(uddi, name, done)
        for peer in consumers
    ]
    return _drive_closed_loop(
        net, lookups, registry_frames=lambda: net.stats.get("registry-0")
    )


def measure_plane_throughput():
    net = Network(latency=FixedLatency(HOP_LATENCY))
    plane = DiscoveryPlane(
        net,
        shards=SHARDS,
        replication=REPLICATION,
        registry_service_time=REGISTRY_SERVICE_TIME,
        cache_lifetime=60.0,
        advert_valid_time=60.0,
    )
    cold_seed(plane, SERVICES - HOT)
    deploy_hot_providers(net, plane, use_plane=True)

    clients = [
        plane.client_for(net.add_node(f"cons{i}")) for i in range(N_CONSUMERS)
    ]
    metrics = _drive_closed_loop(
        net,
        [
            lambda name, done, client=client: client.resolve_async(
                name, lambda items, error: done(len(items), error)
            )
            for client in clients
        ],
        registry_frames=lambda: sum(
            net.stats.get(sid) for sid in plane.shard_ids
        ),
    )
    metrics["cache_hits"] = sum(c.cache.hits for c in clients)
    metrics["cache_misses"] = sum(c.cache.misses for c in clients)
    return metrics


def _drive_closed_loop(net, lookup_fns, registry_frames):
    """Each consumer performs LOOKUPS_PER_CONSUMER sequential lookups
    round-robining the hot set; makespan is the last completion."""
    names = hot_names()
    t_start = net.now
    state = {"completed": 0, "errors": 0, "empty": 0, "t_last": t_start}
    total = len(lookup_fns) * LOOKUPS_PER_CONSUMER

    def drive(ci, remaining):
        name = names[(ci * 7 + remaining) % len(names)]

        def done(found, error):
            state["completed"] += 1
            state["t_last"] = net.now
            if error is not None:
                state["errors"] += 1
            elif found == 0:
                state["empty"] += 1
            if remaining > 1:
                drive(ci, remaining - 1)

        lookup_fns[ci](name, done)

    for ci in range(len(lookup_fns)):
        drive(ci, LOOKUPS_PER_CONSUMER)
    net.run()

    assert state["completed"] == total
    assert state["errors"] == 0 and state["empty"] == 0
    makespan = state["t_last"] - t_start
    return {
        "services_registered": SERVICES,
        "consumers": len(lookup_fns),
        "lookups": total,
        "makespan_s": makespan,
        "throughput_lps": total / makespan,
        "registry_frames": registry_frames(),
    }


# ----------------------------------------------------------------------
# E12b — bounded staleness under the E9 churn schedule
# ----------------------------------------------------------------------
def measure_staleness_under_churn():
    net = Network(latency=FixedLatency(HOP_LATENCY))
    plane = DiscoveryPlane(
        net,
        shards=SHARDS,
        replication=REPLICATION,
        registry_service_time=REGISTRY_SERVICE_TIME,
        cache_lifetime=VALID_TIME,
        advert_valid_time=VALID_TIME,
        client_timeout=CHURN_TIMEOUT,
    )
    providers = deploy_hot_providers(net, plane, use_plane=True)

    # announcement log: name -> [(announce_time, revision)]
    announced = {name: [] for name in hot_names()}
    for prov in providers:
        for name in prov.deployed_services:
            # initial publication already happened through the facade;
            # seed the log from the registry's current revision
            records = prov.discovery.lookup_records(name)
            announced[name].append(
                (net.now, max(int(r["revision"]) for r in records))
            )

    def republish(prov, name):
        if net.kernel.now >= STALE_RUNTIME:
            return
        endpoint = prov.local_handle(name).endpoints[0].address
        try:
            record = prov.discovery.publish(
                "WSPeer", name, endpoint,
                wsdl_url=endpoint + ".wsdl", ttl=LEASE_TTL,
            )
            announced[name].append((net.kernel.now, int(record["revision"])))
        except Exception:
            pass  # provider or replicas momentarily unreachable
        net.kernel.schedule(REPUBLISH_EVERY, republish, prov, name)

    for pi, prov in enumerate(providers):
        for ni, name in enumerate(prov.deployed_services):
            net.kernel.schedule(
                0.3 + 0.1 * pi + 0.05 * ni, republish, prov, name
            )

    # E9 churn: each shard suffers a (non-overlapping) outage, repeated;
    # one provider node gets a brownout in the middle of the run.
    churn = ChurnSchedule(net, seed=7)
    for i, shard_id in enumerate(plane.shard_ids):
        churn.kill_restart_cycle(
            shard_id,
            start=8.0 + 7.0 * i,
            downtime=4.0,
            period=7.0 * SHARDS,
            until=STALE_RUNTIME - 5.0,
        )
    churn.brownout(
        "prov0",
        at=STALE_RUNTIME / 3,
        until=STALE_RUNTIME / 3 + 6.0,
        service_time=0.01,
    )

    # consumers: continuous async lookups over the hot set
    clients = [
        plane.client_for(net.add_node(f"cons{i}")) for i in range(N_CONSUMERS)
    ]
    observations = []  # (t_complete, name, max_revision_seen)
    state = {"lookups": 0, "errors": 0}

    def lookup(ci, tick):
        if net.kernel.now >= STALE_RUNTIME:
            return
        name = hot_names()[(ci + tick) % HOT]

        def done(items, error):
            state["lookups"] += 1
            if error is not None or not items:
                state["errors"] += 1
            else:
                observations.append(
                    (net.kernel.now, name, max(i.revision for i in items))
                )
            net.kernel.schedule(LOOKUP_EVERY, lookup, ci, tick + 1)

        clients[ci].resolve_async(name, done)

    for ci in range(N_CONSUMERS):
        net.kernel.schedule(0.5 + 0.05 * ci, lookup, ci, 0)

    net.run(until=STALE_RUNTIME + 10.0)

    # the bound: a lookup completing after announce_time + valid_time +
    # the publish/lookup settle margin must reflect at least that
    # announcement (gossip refreshes caches much faster; valid_time is
    # the backstop when an epidemic round misses a consumer)
    bound = VALID_TIME + PUBLISH_SETTLE
    violations = 0
    worst_lag = 0.0
    for t, name, seen in observations:
        due = [rev for (at, rev) in announced[name] if at + bound <= t]
        expected = max(due, default=0)
        if seen < expected:
            violations += 1
            lag_candidates = [
                t - at for (at, rev) in announced[name]
                if rev > seen and at + bound <= t
            ]
            worst_lag = max([worst_lag] + lag_candidates)

    shard_downtime = sum(
        1 for r in churn.log if r.kind == "kill"
    )
    return {
        "runtime_s": STALE_RUNTIME,
        "republish_every_s": REPUBLISH_EVERY,
        "valid_time_s": VALID_TIME,
        "staleness_bound_s": bound,
        "lookups": state["lookups"],
        "lookup_errors": state["errors"],
        "observations": len(observations),
        "republishes": sum(len(v) for v in announced.values()),
        "shard_outages": shard_downtime,
        "staleness_violations": violations,
        "worst_staleness_lag_s": worst_lag,
        "availability": (
            (state["lookups"] - state["errors"]) / state["lookups"]
            if state["lookups"] else 0.0
        ),
    }


# ----------------------------------------------------------------------
def run_e12_experiment():
    results = {}

    baseline = measure_baseline_throughput()
    plane = measure_plane_throughput()
    speedup = plane["throughput_lps"] / baseline["throughput_lps"]
    results["throughput"] = {
        "baseline_single_registry": baseline,
        "sharded_cached_plane": plane,
        "speedup": speedup,
    }
    print_table(
        f"E12a lookup throughput at {SERVICES} services "
        f"({N_CONSUMERS} consumers x {LOOKUPS_PER_CONSUMER} lookups)",
        ["mode", "makespan", "throughput", "registry frames", "cache hits"],
        [
            [
                "single registry",
                fmt_ms(baseline["makespan_s"]),
                f"{baseline['throughput_lps']:.0f}/s",
                baseline["registry_frames"],
                "-",
            ],
            [
                f"{SHARDS} shards xR{REPLICATION} + cache",
                fmt_ms(plane["makespan_s"]),
                f"{plane['throughput_lps']:.0f}/s",
                plane["registry_frames"],
                plane["cache_hits"],
            ],
            ["speedup", "", f"{speedup:.1f}x", "", ""],
        ],
        note="baseline pays 3 registry round-trips + WSDL GET per lookup "
        "on one serial server; plane misses cost R shard queries, hits "
        "cost zero frames",
    )

    stale = measure_staleness_under_churn()
    results["staleness"] = stale
    print_table(
        f"E12b staleness under churn ({STALE_RUNTIME:g}s, "
        f"{stale['shard_outages']} shard outages)",
        ["lookups", "errors", "republishes", "violations", "availability"],
        [[
            stale["lookups"],
            stale["lookup_errors"],
            stale["republishes"],
            stale["staleness_violations"],
            f"{stale['availability'] * 100:.1f}%",
        ]],
        note=f"bound: every lookup completing {stale['staleness_bound_s']:g}s "
        "after an announcement reflects at least its freshness counter",
    )

    emit_json("BENCH_E12.json", results)
    return results


# ----------------------------------------------------------------------
# assertions (run under pytest; the CI smoke uses E12_SMOKE=1)
# ----------------------------------------------------------------------
def test_e12_sharded_cached_beats_single_registry_3x():
    baseline = measure_baseline_throughput()
    plane = measure_plane_throughput()
    assert plane["throughput_lps"] >= 3.0 * baseline["throughput_lps"]
    assert plane["cache_hits"] > 0


def test_e12_staleness_bounded_under_churn():
    stale = measure_staleness_under_churn()
    assert stale["shard_outages"] > 0, "churn must actually fire"
    assert stale["staleness_violations"] == 0
    assert stale["availability"] > 0.9


if __name__ == "__main__":
    run_e12_experiment()
