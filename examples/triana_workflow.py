"""Triana-style workflow: discover services, wire a DAG, choreograph.

The paper's §V scenario: discovered Web services "appear as standard
tools within a Triana toolbox.  Users can drag these icons onto a
scratchpad and wire them together to create Web service workflows."

Run:  python examples/triana_workflow.py
"""

from lab.workflow import Toolbox, Workflow, WorkflowEngine
from repro.core import WSPeer
from repro.core.binding import StandardBinding
from repro.simnet import FixedLatency, Network
from repro.uddi import UddiRegistryNode


class SignalService:
    def generate(self, length: int, period: int) -> list:
        """A square-ish wave as a list of floats."""
        return [1.0 if (i // period) % 2 == 0 else -1.0 for i in range(length)]

    def smooth(self, signal: list, window: int) -> list:
        out = []
        for i in range(len(signal)):
            lo = max(0, i - window)
            chunk = signal[lo : i + 1]
            out.append(sum(chunk) / len(chunk))
        return out


class StatsService:
    def mean(self, values: list) -> float:
        return sum(values) / len(values)

    def peak(self, values: list) -> float:
        return max(abs(v) for v in values)


class ReportService:
    def format(self, mean: float, peak: float) -> str:
        return f"signal report: mean={mean:+.3f} peak={peak:.3f}"


def main() -> None:
    net = Network(latency=FixedLatency(0.004))
    registry = UddiRegistryNode(net.add_node("registry"))

    # three independent providers, as in a real service network
    for node_name, service, name in [
        ("dsp-host", SignalService(), "Signal"),
        ("stats-host", StatsService(), "Stats"),
        ("report-host", ReportService(), "Report"),
    ]:
        peer = WSPeer(net.add_node(node_name), StandardBinding(registry.endpoint))
        peer.deploy(service, name=name)
        peer.publish(name)

    # the Triana node: discover everything into the toolbox
    triana = WSPeer(net.add_node("triana"), StandardBinding(registry.endpoint))
    toolbox = Toolbox(triana)
    toolbox.discover("%")
    print("toolbox:", ", ".join(toolbox.tool_names))

    # wire the scratchpad: generate -> smooth -> (mean | peak) -> format
    wf = Workflow("signal-analysis")
    wf.add_task("gen", toolbox.tool("Signal.generate"),
                constants={"length": 64, "period": 8})
    wf.add_task("smooth", toolbox.tool("Signal.smooth"),
                constants={"window": 4}, wires={"signal": "gen"})
    wf.add_task("mean", toolbox.tool("Stats.mean"), wires={"values": "smooth"})
    wf.add_task("peak", toolbox.tool("Stats.peak"), wires={"values": "smooth"})
    wf.add_task("report", toolbox.tool("Report.format"),
                wires={"mean": "mean", "peak": "peak"})

    waves = wf.waves()
    print("\nexecution plan:")
    for i, wave in enumerate(waves):
        print(f"  wave {i}: {', '.join(t.task_id for t in wave)}")

    start = net.now
    results = WorkflowEngine(triana).run(wf)
    print(f"\n{results['report']}")
    print(f"choreographed {wf.task_count} remote invocations "
          f"in {(net.now - start) * 1000:.1f}ms virtual time "
          f"(mean and peak ran in parallel)")


if __name__ == "__main__":
    main()
