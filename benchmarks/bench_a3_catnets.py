"""A3 — §V: the Catnets market scenario.

"...exploring how economy driven services interact in a decentralised
topology."  Experiment: run the P2PS service market at several sizes
and report allocation and price statistics.  Expected catallactic
shape: demand pressure spreads load across providers (imbalance stays
near 1) and prices converge (small spread) — all with no central
broker node anywhere in the topology.
"""

from _workloads import print_table

from lab.catnets import ConsumerAgent, ProviderAgent, run_market_rounds
from repro.p2ps import PeerGroup
from repro.simnet import FixedLatency, Network

SIZES = [(2, 2), (3, 4), (5, 6)]
ROUNDS = 10


def build_market(n_providers: int, n_consumers: int, seed_spread: bool = True):
    net = Network(latency=FixedLatency(0.003))
    group = PeerGroup("market")
    providers = [
        ProviderAgent(
            net, group, f"P{i}",
            base_price=5.0 + (3.0 * i if seed_spread else 0.0),
        )
        for i in range(n_providers)
    ]
    net.run()
    consumers = [ConsumerAgent(net, group, f"C{i}") for i in range(n_consumers)]
    return net, providers, consumers


def run_a3_experiment(sizes=SIZES):
    rows = []
    stats_list = []
    for n_providers, n_consumers in sizes:
        net, providers, consumers = build_market(n_providers, n_consumers)
        stats = run_market_rounds(providers, consumers, rounds=ROUNDS)
        stats_list.append(stats)
        rows.append(
            [
                f"{n_providers}x{n_consumers}",
                stats.purchases,
                f"{stats.total_spend:.0f}",
                f"{stats.load_imbalance:.2f}",
                f"{stats.price_spread:.2f}",
            ]
        )
    print_table(
        f"A3  Catnets market, {ROUNDS} rounds (providers x consumers)",
        ["market size", "purchases", "spend", "load imbalance", "price spread"],
        rows,
        note="shape: imbalance stays near 1 (load spreads) and final asks "
        "converge despite a 3x initial price spread; no broker node exists",
    )
    return stats_list


def test_a3_market_clears_every_round():
    stats_list = run_a3_experiment([(3, 4)])
    assert stats_list[0].purchases == 4 * ROUNDS


def test_a3_load_spreads():
    stats_list = run_a3_experiment([(3, 4)])
    stats = stats_list[0]
    busy = [p for p, jobs in stats.jobs_per_provider.items() if jobs > 0]
    assert len(busy) == 3  # everyone got work despite unequal start prices
    assert stats.load_imbalance < 2.0


def test_a3_prices_converge():
    net, providers, consumers = build_market(3, 4, seed_spread=True)
    initial = [p.service.price for p in providers]
    initial_spread = (max(initial) - min(initial)) / (sum(initial) / len(initial))
    stats = run_market_rounds(providers, consumers, rounds=12)
    assert stats.price_spread < initial_spread


def test_a3_no_central_node():
    net, providers, consumers = build_market(3, 2)
    run_market_rounds(providers, consumers, rounds=3)
    # traffic is spread: the busiest node carries well under half of it
    assert net.stats.max() < 0.5 * net.stats.total()


def test_bench_market_round(benchmark):
    net, providers, consumers = build_market(3, 3)

    benchmark(lambda: run_market_rounds(providers, consumers, rounds=1))


if __name__ == "__main__":
    run_a3_experiment()
