"""E2 — §II/§VI claim: P2P systems are robust to node failure; a
central registry is a single point of failure.

"[P2P systems] have developed sophisticated mechanisms for dealing with
discovery and the unreliability of nodes.  This has lead to the
development of networks that are scalable and robust in the face of
node failure."

Experiment: publish services, then kill nodes, then measure discovery
success from the surviving consumers.

- standard binding: kill the registry node → discovery success collapses
  to 0% even though every provider is still alive;
- P2PS binding: kill a random fraction f of peers → queries for services
  of *surviving* providers keep succeeding (cached adverts are spread
  over the group), degrading only gradually.
"""

from _workloads import EchoService, build_p2ps_world, build_standard_world, print_table

from repro.core import DiscoveryError
from repro.simnet import ChurnSchedule

FRACTIONS = [0.0, 0.25, 0.5]
N_PEERS = 12


def standard_success_after_registry_death() -> tuple[float, float]:
    """(success before, success after) killing the registry."""
    world = build_standard_world(n_providers=4, n_consumers=1)
    consumer = world.consumers[0]
    before = 0
    for i in range(4):
        try:
            consumer.locate_one(f"Echo{i}", timeout=2.0)
            before += 1
        except DiscoveryError:
            pass
    world.registry.node.go_down()
    after = 0
    for i in range(4):
        try:
            consumer.locate_one(f"Echo{i}", timeout=2.0)
            after += 1
        except DiscoveryError:
            pass
    return before / 4, after / 4


def p2ps_success_under_churn(fraction: float, seed: int = 11) -> float:
    """Discovery success rate for surviving providers' services after
    downing *fraction* of the provider peers."""
    world = build_p2ps_world(n_providers=N_PEERS, n_consumers=1)
    consumer = world.consumers[0]
    churn = ChurnSchedule(world.net, seed=seed)
    provider_nodes = [p.node.id for p in world.providers]
    killed = set(churn.fail_fraction(provider_nodes, fraction, at=world.net.now))
    world.net.run()

    survivors = [
        (i, p) for i, p in enumerate(world.providers) if p.node.id not in killed
    ]
    if not survivors:
        return 0.0
    successes = 0
    for i, provider in survivors:
        try:
            handle = consumer.locate_one(f"Echo{i}", timeout=2.0)
            # end-to-end: the service must actually be invocable
            consumer.invoke(handle, "echo", message="alive?", timeout=2.0)
            successes += 1
        except Exception:  # noqa: BLE001 - anything counts as failure here
            pass
    return successes / len(survivors)


def run_e2_experiment():
    before, after = standard_success_after_registry_death()
    rows = [
        ["standard", "registry dies", f"{before * 100:.0f}%", f"{after * 100:.0f}%"],
    ]
    for fraction in FRACTIONS:
        success = p2ps_success_under_churn(fraction)
        rows.append(
            ["p2ps", f"{fraction * 100:.0f}% of peers die",
             "100%", f"{success * 100:.0f}%"]
        )
    print_table(
        "E2  discovery success under failure (surviving services only)",
        ["binding", "failure", "success before", "success after"],
        rows,
        note="shape: one registry death zeroes standard discovery although "
        "all providers still run; P2PS keeps finding surviving providers",
    )
    return before, after, rows


def test_e2_registry_is_single_point_of_failure():
    before, after = standard_success_after_registry_death()
    assert before == 1.0
    assert after == 0.0


def test_e2_p2ps_survives_churn():
    assert p2ps_success_under_churn(0.0) == 1.0
    assert p2ps_success_under_churn(0.25) == 1.0
    assert p2ps_success_under_churn(0.5) >= 0.9


def test_e2_dead_providers_not_invocable_but_do_not_poison():
    # adverts of dead peers may linger in caches; invoking them fails,
    # but surviving services stay reachable
    world = build_p2ps_world(n_providers=3, n_consumers=1)
    consumer = world.consumers[0]
    world.providers[0].node.go_down()
    handle = consumer.locate_one("Echo1", timeout=2.0)
    assert consumer.invoke(handle, "echo", message="x", timeout=2.0) == "x"


def test_bench_p2ps_churn_scenario(benchmark):
    benchmark(lambda: p2ps_success_under_churn(0.25))


if __name__ == "__main__":
    run_e2_experiment()
