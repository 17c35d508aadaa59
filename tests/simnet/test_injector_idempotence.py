"""Injector teardown must be idempotent (E15 satellite).

Crash schedules routinely heal a partition or detach a drop injector
from more than one place (a timed schedule plus a cleanup pass); a
second call must be a harmless no-op, not a ValueError out of the hook
list, and must never remove another injector's hook.
"""

from repro.simnet import (
    ChurnSchedule,
    DropInjector,
    FixedLatency,
    Network,
    PartitionInjector,
)


def build(n=4):
    net = Network(latency=FixedLatency(0.001))
    nodes = [net.add_node(f"n{i}") for i in range(n)]
    for node in nodes:
        node.open_port("in", lambda f: None)
    return net, nodes


class TestDropInjectorDetach:
    def test_double_detach_is_noop(self):
        net, nodes = build()
        inj = DropInjector(net, p=1.0, seed=1)
        inj.detach()
        inj.detach()  # must not raise
        assert not inj.attached
        nodes[0].send("n1", "in", "x")
        net.run()
        assert net.stats.get("n1") == 1

    def test_detach_leaves_other_hooks_attached(self):
        net, nodes = build()
        first = DropInjector(net, p=0.0, seed=1)
        second = DropInjector(net, p=1.0, seed=1)
        first.detach()
        first.detach()
        nodes[0].send("n1", "in", "x")
        net.run()
        assert second.dropped == 1
        assert net.stats.get("n1") == 0

    def test_dropped_counter_frozen_after_detach(self):
        net, nodes = build()
        inj = DropInjector(net, p=1.0, seed=1)
        nodes[0].send("n1", "in", "x")
        net.run()
        assert inj.dropped == 1
        inj.detach()
        inj.detach()
        nodes[0].send("n1", "in", "x")
        net.run()
        assert inj.dropped == 1
        assert net.stats.get("n1") == 1


class TestPartitionHeal:
    def test_double_heal_is_noop(self):
        net, nodes = build()
        part = PartitionInjector(net, [["n0"], ["n1"]])
        part.detach()
        part.detach()  # must not raise
        assert not part.attached
        nodes[0].send("n1", "in", "x")
        net.run()
        assert net.stats.get("n1") == 1

    def test_heal_does_not_disturb_sibling_partition(self):
        net, nodes = build()
        healed = PartitionInjector(net, [["n0"], ["n1"]])
        standing = PartitionInjector(net, [["n0"], ["n2"]])
        healed.detach()
        healed.detach()
        nodes[0].send("n1", "in", "x")  # released by the heal
        nodes[0].send("n2", "in", "x")  # still blocked
        net.run()
        assert net.stats.get("n1") == 1
        assert net.stats.get("n2") == 0
        assert standing.blocked == 1

    def test_blocked_counter_frozen_after_heal(self):
        net, nodes = build()
        part = PartitionInjector(net, [["n0"], ["n1"]])
        nodes[0].send("n1", "in", "x")
        net.run()
        assert part.blocked == 1
        part.detach()
        nodes[0].send("n1", "in", "x")
        net.run()
        assert part.blocked == 1


class TestChurnDeterminism:
    def test_same_seed_same_call_sequence_same_victims(self):
        """fail_fraction's documented contract: seed + candidate order +
        call sequence fully determine the victim sets."""
        runs = []
        for _ in range(2):
            net, _ = build(n=8)
            churn = ChurnSchedule(net, seed=11)
            pool = [f"n{i}" for i in range(8)]
            first = churn.fail_fraction(pool, 0.25, at=1.0)
            second = churn.fail_fraction(pool, 0.5, at=2.0)
            runs.append((first, second))
        assert runs[0] == runs[1]
        assert len(runs[0][0]) == 2 and len(runs[0][1]) == 4

    def test_different_seed_differs(self):
        picks = []
        for seed in (1, 2):
            net, _ = build(n=8)
            churn = ChurnSchedule(net, seed=seed)
            picks.append(
                churn.fail_fraction([f"n{i}" for i in range(8)], 0.5, at=1.0)
            )
        assert picks[0] != picks[1]
