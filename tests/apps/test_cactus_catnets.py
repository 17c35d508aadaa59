"""Tests for the Cactus streaming scenario and the Catnets market."""

import numpy as np
import pytest

from lab.cactus import CactusSimulation, run_cactus_scenario
from lab.catnets import ConsumerAgent, ProviderAgent, run_market_rounds
from repro.core import WSPeer
from repro.core.binding import StandardBinding
from repro.p2ps import PeerGroup
from repro.simnet import FixedLatency, Network
from repro.uddi import UddiRegistryNode


class TestCactusSimulation:
    def test_cfl_validation(self):
        with pytest.raises(ValueError):
            CactusSimulation(courant=1.5)
        with pytest.raises(ValueError):
            CactusSimulation(grid_points=4)

    def test_step_advances(self):
        sim = CactusSimulation(grid_points=64)
        sim.step()
        assert sim.timestep == 1

    def test_boundaries_fixed(self):
        sim = CactusSimulation(grid_points=64)
        for _ in range(20):
            sim.step()
        assert sim.u[0] == 0.0 and sim.u[-1] == 0.0

    def test_energy_approximately_conserved(self):
        sim = CactusSimulation(grid_points=256, courant=0.5)
        initial = None
        for step in range(200):
            sim.step()
            if step == 0:
                initial = sim.energy()
        assert initial is not None
        drift = abs(sim.energy() - initial) / initial
        assert drift < 0.05

    def test_pulse_propagates(self):
        sim = CactusSimulation(grid_points=128, pulse_center=0.5)
        peak_before = int(np.argmax(sim.u))
        for _ in range(30):
            sim.step()
        # the single pulse splits into two travelling pulses
        field = np.abs(sim.u)
        peaks = np.where(field > 0.4 * field.max())[0]
        assert peaks.min() < peak_before < peaks.max()

    def test_snapshot_shape(self):
        sim = CactusSimulation()
        sim.step()
        snap = sim.snapshot(sample_points=8)
        assert snap["timestep"] == 1
        assert len(snap["samples"]) == 8
        assert snap["max"] >= 0
        assert "energy" in snap

    def test_solution_stays_bounded(self):
        sim = CactusSimulation(grid_points=128, courant=0.9)
        for _ in range(500):
            sim.step()
        assert np.abs(sim.u).max() < 2.0  # stable scheme


class TestCactusScenario:
    @pytest.fixture
    def world(self):
        net = Network(latency=FixedLatency(0.002))
        registry = UddiRegistryNode(net.add_node("registry"))
        consumer = WSPeer(net.add_node("triana"), StandardBinding(registry.endpoint))
        resource = WSPeer(net.add_node("hpc"), StandardBinding(registry.endpoint))
        return net, consumer, resource

    def test_all_snapshots_arrive(self, world):
        net, consumer, resource = world
        result, collector = run_cactus_scenario(consumer, resource, timesteps=20)
        assert result.received == 20
        assert collector.count == 20

    def test_snapshots_arrive_in_order_and_real_time(self, world):
        net, consumer, resource = world
        result, collector = run_cactus_scenario(consumer, resource, timesteps=10)
        steps = [s["timestep"] for s in collector.snapshots]
        assert steps == sorted(steps)
        # arrival times strictly increase: streaming, not batch delivery
        arrivals = result.arrival_times
        assert all(a < b for a, b in zip(arrivals, arrivals[1:]))

    def test_runtime_deployment(self, world):
        # the receiving service does not exist until the scenario runs
        net, consumer, resource = world
        assert consumer.deployed_services == []
        run_cactus_scenario(consumer, resource, timesteps=3)
        assert "CactusMonitor" in consumer.deployed_services

    def test_energy_drift_reported(self, world):
        net, consumer, resource = world
        result, _ = run_cactus_scenario(
            consumer, resource, timesteps=20, grid_points=256
        )
        assert result.energy_drift < 0.1

    def test_steps_per_snapshot(self, world):
        net, consumer, resource = world
        result, collector = run_cactus_scenario(
            consumer, resource, timesteps=5, steps_per_snapshot=4
        )
        assert collector.snapshots[-1]["timestep"] == 20


class TestCatnetsMarket:
    def market(self, n_providers=3, n_consumers=2, seed_prices=None):
        net = Network(latency=FixedLatency(0.002))
        group = PeerGroup("market")
        providers = [
            ProviderAgent(
                net, group, f"P{i}",
                base_price=(seed_prices[i] if seed_prices else 10.0),
            )
            for i in range(n_providers)
        ]
        net.run()  # let adverts settle
        consumers = [ConsumerAgent(net, group, f"C{i}") for i in range(n_consumers)]
        return net, providers, consumers

    def test_consumers_buy_every_round(self):
        net, providers, consumers = self.market()
        stats = run_market_rounds(providers, consumers, rounds=5)
        assert stats.purchases == 10  # 2 consumers x 5 rounds
        assert stats.total_spend > 0

    def test_cheapest_provider_wins_first(self):
        net, providers, consumers = self.market(seed_prices=[10.0, 2.0, 10.0])
        consumers[0].buy()
        assert providers[1].service.jobs_done == 1

    def test_price_pressure_spreads_load(self):
        # the economic feedback: the cheap provider's price rises with demand
        # so load spreads over providers rather than starving all but one
        net, providers, consumers = self.market(n_providers=3, n_consumers=3)
        stats = run_market_rounds(providers, consumers, rounds=8)
        busy = [p for p, jobs in stats.jobs_per_provider.items() if jobs > 0]
        assert len(busy) >= 2  # not a monopoly
        assert stats.load_imbalance < 2.5

    def test_prices_adjust(self):
        net, providers, consumers = self.market()
        before = [p.service.price for p in providers]
        run_market_rounds(providers, consumers, rounds=6)
        after = [p.service.price for p in providers]
        assert before != after

    def test_provider_failure_tolerated(self):
        net, providers, consumers = self.market(n_providers=3, n_consumers=1)
        providers[0].wspeer.node.go_down()
        stats = run_market_rounds(providers, consumers, rounds=3)
        assert stats.purchases == 3  # market continues without the dead peer
        assert stats.jobs_per_provider["P0"] == 0
