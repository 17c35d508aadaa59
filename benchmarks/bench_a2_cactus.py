"""A2 — §V: the SC2004 Cactus scenario.

"Cactus generated output files ... passed back to Triana via the WSPeer
generated Web service in real-time as the simulation iterated through
its time steps."  Experiment: stream a wave-equation run through a
runtime-deployed service for several problem sizes; verify every
snapshot arrives, in order, at a steady real-time cadence, and that the
numerics behave (bounded energy drift).
"""

from _workloads import fmt_ms, print_table

import numpy as np

from lab.cactus import run_cactus_scenario
from repro.core import WSPeer
from repro.core.binding import StandardBinding
from repro.simnet import FixedLatency, Network
from repro.uddi import UddiRegistryNode

GRIDS = [64, 128, 256]
TIMESTEPS = 30


def build_world():
    net = Network(latency=FixedLatency(0.005))
    registry = UddiRegistryNode(net.add_node("registry"))
    triana = WSPeer(net.add_node("triana"), StandardBinding(registry.endpoint))
    hpc = WSPeer(net.add_node("hpc"), StandardBinding(registry.endpoint))
    return net, triana, hpc


def run_a2_experiment(grids=GRIDS):
    rows = []
    outcomes = []
    for grid in grids:
        net, triana, hpc = build_world()
        result, collector = run_cactus_scenario(
            triana, hpc, timesteps=TIMESTEPS, grid_points=grid,
            service_name=f"Monitor{grid}",
        )
        gaps = np.diff(result.arrival_times)
        rows.append(
            [
                grid,
                f"{result.received}/{TIMESTEPS}",
                fmt_ms(float(gaps.mean())) if gaps.size else "-",
                f"{result.energy_drift * 100:.2f}%",
                fmt_ms(result.arrival_times[-1]),
            ]
        )
        outcomes.append((result, collector))
    print_table(
        "A2  Cactus streaming: runtime-deployed service receives every timestep",
        ["grid points", "snapshots received", "mean cadence",
         "energy drift", "run (virtual)"],
        rows,
        note="cadence equals one invocation RTT: each snapshot streams as "
        "produced, not batched at the end",
    )
    return outcomes


def test_a2_every_snapshot_arrives_in_order():
    outcomes = run_a2_experiment([128])
    result, collector = outcomes[0]
    assert result.received == TIMESTEPS
    steps = [s["timestep"] for s in collector.snapshots]
    assert steps == sorted(steps)


def test_a2_streaming_not_batched():
    outcomes = run_a2_experiment([64])
    result, _ = outcomes[0]
    gaps = np.diff(result.arrival_times)
    # steady cadence: every consecutive gap is a full round trip
    assert gaps.min() > 0.009
    assert gaps.max() < 0.02


def test_a2_numerics_stable_across_grids():
    for result, _ in run_a2_experiment([64, 256]):
        assert result.energy_drift < 0.1


def test_bench_cactus_run(benchmark):
    def run():
        net, triana, hpc = build_world()
        return run_cactus_scenario(triana, hpc, timesteps=10, grid_points=64)

    benchmark(run)


if __name__ == "__main__":
    run_a2_experiment()
