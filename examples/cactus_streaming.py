"""The SC2004 demo: stream PDE simulation output through a service
deployed at runtime.

"A Triana unit ... used WSPeer to launch a Web service, having first
launched a Cactus simulation on a distributed resource ... output files
... were passed back to Triana via the WSPeer generated Web service in
real-time as the simulation iterated through its time steps." (§V)

Run:  python examples/cactus_streaming.py
"""

from lab.cactus import run_cactus_scenario
from repro.core import WSPeer
from repro.core.binding import StandardBinding
from repro.simnet import Network, SeededLatency
from repro.uddi import UddiRegistryNode


def sparkline(samples: list, width: int = 48) -> str:
    """Render one snapshot as a terminal sparkline (the JPEG analogue)."""
    blocks = " .:-=+*#%@"
    lo, hi = min(samples), max(samples)
    span = (hi - lo) or 1.0
    idx = [int((v - lo) / span * (len(blocks) - 1)) for v in samples]
    return "".join(blocks[i] for i in idx)


def main() -> None:
    net = Network(latency=SeededLatency(median=0.015, seed=7))
    registry = UddiRegistryNode(net.add_node("registry"))

    triana = WSPeer(net.add_node("triana"), StandardBinding(registry.endpoint))
    hpc = WSPeer(net.add_node("hpc-resource"), StandardBinding(registry.endpoint))

    print("before the run, the Triana node hosts nothing:",
          triana.deployed_services)
    result, collector = run_cactus_scenario(
        triana, hpc, timesteps=24, steps_per_snapshot=6, grid_points=192
    )
    print("after: dynamically deployed services:", triana.deployed_services)

    print(f"\nstreamed {result.received} snapshots "
          f"({result.timesteps} PDE timesteps) in real (virtual) time")
    print(f"energy drift over the run: {result.energy_drift * 100:.2f}%\n")

    for snap, arrived in zip(collector.snapshots, result.arrival_times):
        print(f"  t={arrived * 1000:7.1f}ms  step {snap['timestep']:3d}  "
              f"|{sparkline(snap['samples'])}|  max={snap['max']:.3f}")


if __name__ == "__main__":
    main()
