"""AB3 — ablation: advert cache lifetime vs staleness under churn.

Advert caches make P2PS discovery cheap and resilient (E1/E2), but an
entry outliving its publisher points consumers at a dead peer.  The
ablation: a provider publishes, then dies; sweep the cache lifetime and
measure whether discovery still returns the dead service (staleness)
against how long a *living* service stays discoverable without
republish.
"""

from _workloads import discovered, print_table

from repro.p2ps import AdvertQuery, Peer, PeerGroup
from repro.simnet import FixedLatency, Network


def staleness_probe(lifetime: float, probe_delay: float) -> tuple[bool, bool]:
    """(dead service still returned, live service still returned) when
    probed *probe_delay* seconds after publication."""
    net = Network(latency=FixedLatency(0.002))
    group = PeerGroup("g")
    live = Peer(net.add_node("live"), name="live", cache_lifetime=lifetime)
    dead = Peer(net.add_node("dead"), name="dead", cache_lifetime=lifetime)
    observer = Peer(net.add_node("obs"), name="obs", cache_lifetime=lifetime)
    for peer in (live, dead, observer):
        peer.join(group)
    live.create_input_pipe("invoke", "LiveSvc")
    live.publish_service("LiveSvc", ["invoke"])
    dead.create_input_pipe("invoke", "DeadSvc")
    dead.publish_service("DeadSvc", ["invoke"])
    net.run()
    dead.node.go_down()

    net.kernel.schedule(probe_delay, lambda: None)
    net.run()

    dead_found = discovered(observer.discover(AdvertQuery("service", "DeadSvc")), timeout=1.0)
    live_found = discovered(observer.discover(AdvertQuery("service", "LiveSvc")), timeout=1.0)
    return dead_found, live_found


def run_ab3_experiment():
    rows = []
    for lifetime in (5.0, 60.0, 600.0):
        for probe_delay in (2.0, 30.0, 120.0):
            dead_found, live_found = staleness_probe(lifetime, probe_delay)
            rows.append(
                [
                    f"{lifetime:.0f}s",
                    f"{probe_delay:.0f}s",
                    "STALE" if dead_found else "purged",
                    "cached" if live_found else "expired",
                ]
            )
    print_table(
        "AB3  advert cache lifetime: staleness vs retention",
        ["cache lifetime", "probe after", "dead service", "live service"],
        rows,
        note="short lifetimes purge dead peers' adverts quickly but also "
        "expire live ones (forcing republish); long lifetimes serve stale "
        "adverts — the classic soft-state trade-off the cache embodies",
    )
    return rows


def test_ab3_short_lifetime_purges_dead_adverts():
    dead_found, _ = staleness_probe(lifetime=5.0, probe_delay=30.0)
    assert not dead_found


def test_ab3_long_lifetime_serves_stale_adverts():
    dead_found, _ = staleness_probe(lifetime=600.0, probe_delay=30.0)
    assert dead_found  # the trade-off's other edge


def test_ab3_short_lifetime_also_expires_live_entries():
    # soft state all the way down: even the live provider's own cache
    # expires its advert, so without republishing the service vanishes
    _, live_found = staleness_probe(lifetime=5.0, probe_delay=30.0)
    assert not live_found


def test_ab3_republish_restores_discovery():
    net = Network(latency=FixedLatency(0.002))
    group = PeerGroup("g")
    live = Peer(net.add_node("live"), name="live", cache_lifetime=5.0)
    observer = Peer(net.add_node("obs"), name="obs", cache_lifetime=5.0)
    live.join(group)
    observer.join(group)
    live.create_input_pipe("invoke", "LiveSvc")
    advert = live.publish_service("LiveSvc", ["invoke"])
    net.run()
    net.kernel.schedule(30.0, lambda: None)
    net.run()
    assert not discovered(observer.discover(AdvertQuery("service", "LiveSvc")), timeout=1.0)
    live.publish(advert)  # periodic republish, the soft-state remedy
    net.run()
    assert discovered(observer.discover(AdvertQuery("service", "LiveSvc")), timeout=1.0)


def test_ab3_fresh_probe_sees_everything():
    dead_found, live_found = staleness_probe(lifetime=600.0, probe_delay=2.0)
    assert dead_found and live_found


def test_bench_staleness_probe(benchmark):
    benchmark(lambda: staleness_probe(60.0, 10.0))


if __name__ == "__main__":
    run_ab3_experiment()
