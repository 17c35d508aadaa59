"""Catnets: economy-driven services in a decentralised topology (§V).

Provider peers sell compute through P2PS-hosted services; consumer
peers discover them with attribute queries, collect quotes and buy from
the cheapest.  Prices respond to demand, so load spreads across the
market — no central broker anywhere.

Run:  python examples/catnets_market.py
"""

from lab.catnets import ConsumerAgent, ProviderAgent, run_market_rounds
from repro.p2ps import PeerGroup
from repro.simnet import FixedLatency, Network


def main() -> None:
    net = Network(latency=FixedLatency(0.003))
    group = PeerGroup("catnets-market")

    providers = [
        ProviderAgent(net, group, "alpha", base_price=12.0),
        ProviderAgent(net, group, "beta", base_price=6.0),
        ProviderAgent(net, group, "gamma", base_price=9.0),
    ]
    net.run()  # adverts settle
    consumers = [ConsumerAgent(net, group, f"buyer{i}") for i in range(4)]

    print("initial asks:", {p.name: p.service.price for p in providers})
    stats = run_market_rounds(providers, consumers, rounds=12)

    print(f"\nafter {stats.rounds} rounds, {stats.purchases} purchases, "
          f"total spend {stats.total_spend:.1f}")
    print("jobs per provider:", stats.jobs_per_provider)
    print("final asks:      ", {k: round(v, 2) for k, v in stats.final_prices.items()})
    print(f"load imbalance (max/mean): {stats.load_imbalance:.2f}  "
          f"(1.0 = perfectly even)")
    print(f"price spread: {stats.price_spread:.2f}")
    print("\nthe cheap provider attracted demand, its price rose, and the "
          "market\nredistributed load — catallactic behaviour with no broker.")


if __name__ == "__main__":
    main()
