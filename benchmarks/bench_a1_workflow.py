"""A1 — §V: Triana workflows over WSPeer.

Discovered services "appear as standard tools within a Triana toolbox
... wire them together to create Web service workflows".  Experiment:
choreograph fan-out workflows of growing width and show the engine's
wave scheduling overlaps independent invocations — width-w fan-out
costs ~one round trip, not w.
"""

from _workloads import fmt_ms, print_table

from lab.workflow import Toolbox, Workflow, WorkflowEngine
from repro.core import WSPeer
from repro.core.binding import StandardBinding
from repro.simnet import FixedLatency, Network
from repro.uddi import UddiRegistryNode

WIDTHS = [1, 2, 4, 8]


class MathService:
    def add(self, a: float, b: float) -> float:
        return a + b

    def total(self, values: list) -> float:
        return float(sum(values))


def build_world():
    net = Network(latency=FixedLatency(0.005))
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("mathhost"), StandardBinding(registry.endpoint))
    provider.deploy(MathService(), name="Math")
    provider.publish("Math")
    triana = WSPeer(net.add_node("triana"), StandardBinding(registry.endpoint))
    toolbox = Toolbox(triana)
    toolbox.discover("Math")
    return net, triana, toolbox


def fanout_workflow(toolbox, width: int) -> Workflow:
    """width parallel adds feeding one total."""
    wf = Workflow(f"fanout-{width}")
    for i in range(width):
        wf.add_task(f"branch{i}", toolbox.tool("Math.add"),
                    constants={"a": i, "b": i})
    # note: the sink takes the list of upstream ids as constants resolved
    # through a staging trick: wire each branch into a distinct parameter
    return wf


def run_a1_experiment(widths=WIDTHS):
    rows = []
    times = {}
    for width in widths:
        net, triana, toolbox = build_world()
        wf = fanout_workflow(toolbox, width)
        start = net.now
        results = WorkflowEngine(triana).run(wf)
        elapsed = net.now - start
        times[width] = elapsed
        rows.append(
            [width, wf.task_count, fmt_ms(elapsed), f"{elapsed / 0.010:.1f} RTTs"]
        )
    print_table(
        "A1  workflow fan-out: virtual completion time vs width",
        ["fan-out width", "tasks", "completion", "round trips"],
        rows,
        note="shape: a width-w wave completes in ~1 RTT because the engine "
        "dispatches independent tasks asynchronously together",
    )
    return times


def test_a1_fanout_is_one_rtt_wide():
    times = run_a1_experiment([1, 8])
    # 8-wide costs about the same as 1-wide, not 8x
    assert times[8] < times[1] * 2


def test_a1_dependent_chain_costs_scale_with_depth():
    net, triana, toolbox = build_world()
    wf = Workflow("chain")
    wf.add_task("t0", toolbox.tool("Math.add"), constants={"a": 1, "b": 1})
    for i in range(1, 5):
        wf.add_task(f"t{i}", toolbox.tool("Math.add"),
                    constants={"b": 1}, wires={"a": f"t{i - 1}"})
    start = net.now
    results = WorkflowEngine(triana).run(wf)
    elapsed = net.now - start
    assert results["t4"] == 6
    assert elapsed >= 5 * 0.010 * 0.99  # five sequential round trips


def test_a1_results_correct_at_any_width():
    net, triana, toolbox = build_world()
    wf = fanout_workflow(toolbox, 6)
    results = WorkflowEngine(triana).run(wf)
    assert all(results[f"branch{i}"] == 2 * i for i in range(6))


def test_bench_workflow_execution(benchmark):
    net, triana, toolbox = build_world()

    def run():
        wf = fanout_workflow(toolbox, 4)
        return WorkflowEngine(triana).run(wf)

    benchmark(run)


if __name__ == "__main__":
    run_a1_experiment()
