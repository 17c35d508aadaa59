"""Tests for fault injection and latency models."""

import pytest

from repro.simnet import (
    ChurnSchedule,
    DropInjector,
    FixedLatency,
    Network,
    PartitionInjector,
    SeededLatency,
    TraceLog,
    UniformLatency,
)


def build(n=4):
    net = Network(latency=FixedLatency(0.001), trace=TraceLog(enabled=True))
    nodes = [net.add_node(f"n{i}") for i in range(n)]
    for node in nodes:
        node.open_port("in", lambda f: None)
    return net, nodes


class TestDropInjector:
    def test_p_zero_drops_nothing(self):
        net, nodes = build()
        DropInjector(net, p=0.0, seed=1)
        for _ in range(50):
            nodes[0].send("n1", "in", "x")
        net.run()
        assert net.stats.get("n1") == 50

    def test_p_one_drops_everything(self):
        net, nodes = build()
        inj = DropInjector(net, p=1.0, seed=1)
        for _ in range(50):
            nodes[0].send("n1", "in", "x")
        net.run()
        assert net.stats.get("n1") == 0
        assert inj.dropped == 50

    def test_fractional_drop_rate(self):
        net, nodes = build()
        inj = DropInjector(net, p=0.3, seed=42)
        for _ in range(1000):
            nodes[0].send("n1", "in", "x")
        net.run()
        assert 200 < inj.dropped < 400

    def test_scoped_to_nodes(self):
        net, nodes = build()
        DropInjector(net, p=1.0, seed=1, only_nodes=["n2"])
        nodes[0].send("n1", "in", "x")
        nodes[0].send("n2", "in", "x")
        net.run()
        assert net.stats.get("n1") == 1
        assert net.stats.get("n2") == 0

    def test_detach(self):
        net, nodes = build()
        inj = DropInjector(net, p=1.0, seed=1)
        inj.detach()
        nodes[0].send("n1", "in", "x")
        net.run()
        assert net.stats.get("n1") == 1

    def test_invalid_probability(self):
        net, _ = build()
        with pytest.raises(ValueError):
            DropInjector(net, p=1.5)


class TestPartitionInjector:
    def test_cross_partition_blocked(self):
        net, nodes = build()
        part = PartitionInjector(net, [["n0", "n1"], ["n2", "n3"]])
        nodes[0].send("n1", "in", "x")  # same side
        nodes[0].send("n2", "in", "x")  # crosses
        net.run()
        assert net.stats.get("n1") == 1
        assert net.stats.get("n2") == 0
        assert part.blocked == 1

    def test_heal_restores_connectivity(self):
        net, nodes = build()
        part = PartitionInjector(net, [["n0"], ["n1"]])
        part.detach()
        nodes[0].send("n1", "in", "x")
        net.run()
        assert net.stats.get("n1") == 1

    def test_unlisted_nodes_unaffected(self):
        net, nodes = build()
        PartitionInjector(net, [["n0"], ["n1"]])
        nodes[3].send("n2", "in", "x")
        net.run()
        assert net.stats.get("n2") == 1


class TestChurnInjector:
    """The scheduled kill / restart / fail_fraction path of ChurnSchedule."""

    def test_fail_at_time(self):
        net, nodes = build()
        churn = ChurnSchedule(net)
        churn.kill("n1", at=1.0)
        net.run(until=2.0)
        assert not nodes[1].up

    def test_recover(self):
        net, nodes = build()
        churn = ChurnSchedule(net)
        churn.kill("n1", at=1.0)
        churn.restart("n1", at=2.0)
        net.run(until=3.0)
        assert nodes[1].up

    def test_fail_fraction_counts(self):
        net, _ = build(n=10)
        churn = ChurnSchedule(net, seed=7)
        chosen = churn.fail_fraction([f"n{i}" for i in range(10)], 0.5, at=1.0)
        assert len(chosen) == 5
        net.run(until=2.0)
        downs = [n for n in net.node_ids if not net.get_node(n).up]
        assert sorted(downs) == sorted(chosen)

    def test_fail_fraction_zero(self):
        net, _ = build()
        churn = ChurnSchedule(net)
        assert churn.fail_fraction(["n0"], 0.0, at=1.0) == []

    def test_fail_fraction_deterministic_per_seed(self):
        picks = []
        for _ in range(2):
            net, _ = build(n=10)
            churn = ChurnSchedule(net, seed=3)
            picks.append(churn.fail_fraction([f"n{i}" for i in range(10)], 0.3, at=1.0))
        assert picks[0] == picks[1]


class TestLatencyModels:
    def test_fixed(self):
        m = FixedLatency(0.5, per_byte=0.1)
        assert m.sample("a", "b", 10) == pytest.approx(1.5)

    def test_fixed_validation(self):
        with pytest.raises(ValueError):
            FixedLatency(-1)

    def test_uniform_within_bounds(self):
        m = UniformLatency(0.001, 0.002, seed=5)
        for _ in range(100):
            s = m.sample("a", "b", 1)
            assert 0.001 <= s <= 0.002

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformLatency(2, 1)

    def test_seeded_positive_and_deterministic(self):
        a = [SeededLatency(seed=9).sample("a", "b", 100) for _ in range(1)]
        b = [SeededLatency(seed=9).sample("a", "b", 100) for _ in range(1)]
        assert a == b
        assert a[0] > 0

    def test_seeded_median_validation(self):
        with pytest.raises(ValueError):
            SeededLatency(median=0)

    def test_loopback_is_tiny(self):
        assert FixedLatency(1.0).loopback() < 1e-3
