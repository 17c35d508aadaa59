"""Tests for the Triana-analogue workflow engine."""

import pytest

from lab.workflow import Tool, Toolbox, Workflow, WorkflowEngine, WorkflowError
from repro.core import WSPeer
from repro.core.binding import StandardBinding
from repro.simnet import FixedLatency, Network
from repro.uddi import UddiRegistryNode


class MathService:
    def add(self, a: float, b: float) -> float:
        return a + b

    def multiply(self, a: float, b: float) -> float:
        return a * b

    def negate(self, a: float) -> float:
        return -a


class TextService:
    def join(self, parts: list) -> str:
        return "-".join(str(p) for p in parts)


@pytest.fixture
def world():
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    triana = WSPeer(net.add_node("triana"), StandardBinding(registry.endpoint))
    provider.deploy(MathService(), name="Math")
    provider.deploy(TextService(), name="Text")
    provider.publish("Math")
    provider.publish("Text")
    return net, provider, triana


class TestToolbox:
    def test_discover_registers_all_operations(self, world):
        _, _, triana = world
        toolbox = Toolbox(triana)
        tools = toolbox.discover("Math")
        assert sorted(t.name for t in tools) == [
            "Math.add", "Math.multiply", "Math.negate",
        ]

    def test_tool_lookup(self, world):
        _, _, triana = world
        toolbox = Toolbox(triana)
        toolbox.discover("Math")
        assert toolbox.tool("Math.add").operation == "add"

    def test_missing_tool(self, world):
        _, _, triana = world
        with pytest.raises(WorkflowError):
            Toolbox(triana).tool("Nope.op")

    def test_wildcard_discover_multiple_services(self, world):
        _, _, triana = world
        toolbox = Toolbox(triana)
        toolbox.discover("%")
        assert "Math.add" in toolbox.tool_names
        assert "Text.join" in toolbox.tool_names

    def test_add_local(self, world):
        _, provider, _ = world
        toolbox = Toolbox(provider)
        tools = toolbox.add_local("Math")
        assert len(tools) == 3


class TestWorkflowGraph:
    def make_tool(self, name="t"):
        # graph-structure tests need no live service
        from repro.core.handle import ServiceHandle
        from repro.wsdl.model import WsdlDefinition

        return Tool(name, ServiceHandle("S", WsdlDefinition("S", "urn:s")), "op")

    def test_duplicate_task_rejected(self):
        wf = Workflow()
        wf.add_task("a", self.make_tool())
        with pytest.raises(WorkflowError):
            wf.add_task("a", self.make_tool())

    def test_wire_to_unknown_task_rejected(self):
        wf = Workflow()
        with pytest.raises(WorkflowError):
            wf.add_task("b", self.make_tool(), wires={"x": "missing"})

    def test_waves_respect_dependencies(self):
        wf = Workflow()
        wf.add_task("a", self.make_tool())
        wf.add_task("b", self.make_tool())
        wf.add_task("c", self.make_tool(), wires={"x": "a", "y": "b"})
        waves = wf.waves()
        assert sorted(t.task_id for t in waves[0]) == ["a", "b"]
        assert [t.task_id for t in waves[1]] == ["c"]


class TestExecution:
    def test_linear_pipeline(self, world):
        net, _, triana = world
        toolbox = Toolbox(triana)
        toolbox.discover("Math")
        wf = Workflow("pipeline")
        wf.add_task("sum", toolbox.tool("Math.add"), constants={"a": 2, "b": 3})
        wf.add_task(
            "scaled", toolbox.tool("Math.multiply"),
            constants={"b": 10.0}, wires={"a": "sum"},
        )
        results = WorkflowEngine(triana).run(wf)
        assert results["sum"] == 5
        assert results["scaled"] == 50

    def test_diamond_dag(self, world):
        net, _, triana = world
        toolbox = Toolbox(triana)
        toolbox.discover("Math")
        wf = Workflow("diamond")
        wf.add_task("src", toolbox.tool("Math.add"), constants={"a": 1, "b": 1})
        wf.add_task("left", toolbox.tool("Math.multiply"),
                    constants={"b": 3.0}, wires={"a": "src"})
        wf.add_task("right", toolbox.tool("Math.negate"), wires={"a": "src"})
        wf.add_task("sink", toolbox.tool("Math.add"),
                    wires={"a": "left", "b": "right"})
        results = WorkflowEngine(triana).run(wf)
        assert results["sink"] == 6 - 2

    def test_parallel_wave_overlaps_in_time(self, world):
        # two independent tasks run in the same wave; total virtual time
        # is one round trip, not two
        net, _, triana = world
        toolbox = Toolbox(triana)
        toolbox.discover("Math")
        wf = Workflow()
        wf.add_task("p1", toolbox.tool("Math.add"), constants={"a": 1, "b": 1})
        wf.add_task("p2", toolbox.tool("Math.add"), constants={"a": 2, "b": 2})
        start = net.now
        WorkflowEngine(triana).run(wf)
        elapsed = net.now - start
        assert elapsed < 0.009  # ~2 hops, not ~4

    def test_cross_service_workflow(self, world):
        net, _, triana = world
        toolbox = Toolbox(triana)
        toolbox.discover("%")
        wf = Workflow()
        wf.add_task("n1", toolbox.tool("Math.add"), constants={"a": 1, "b": 2})
        wf.add_task("n2", toolbox.tool("Math.add"), constants={"a": 3, "b": 4})
        # feed numeric results into the text service
        wf.add_task("label", toolbox.tool("Text.join"),
                    constants={"parts": ["x"]})
        results = WorkflowEngine(triana).run(wf)
        assert results["label"] == "x"
        assert results["n1"] == 3 and results["n2"] == 7

    def test_failing_task_surfaces(self, world):
        net, provider, triana = world

        class Bad:
            def fail(self) -> str:
                raise RuntimeError("task exploded")

        provider.deploy(Bad(), name="Bad")
        provider.publish("Bad")
        toolbox = Toolbox(triana)
        toolbox.discover("Bad")
        wf = Workflow()
        wf.add_task("boom", toolbox.tool("Bad.fail"))
        with pytest.raises(WorkflowError, match="task exploded"):
            WorkflowEngine(triana).run(wf)
