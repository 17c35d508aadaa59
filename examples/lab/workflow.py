"""The Triana analogue: discover → toolbox → wire → choreograph.

"Users discover and search for Web services by quizzing repositories
(e.g., UDDI) or searching through P2P networks for WSDL files.  When
the matching Web services are located, they appear as standard tools
within a Triana toolbox.  Users can drag these icons onto a scratchpad
and wire them together to create Web service workflows." (§V)

Here the scratchpad is a :class:`Workflow` DAG; each task binds a
:class:`Tool` (service handle + operation) and maps its parameters to
constants or upstream task outputs.  The :class:`WorkflowEngine`
topologically orders the graph and invokes each task through WSPeer —
independent tasks are dispatched asynchronously in the same wave, so
parallel branches overlap on the (virtual) wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.handle import ServiceHandle
from repro.core.query import ServiceQuery
from repro.core.wspeer import WSPeer


class WorkflowError(Exception):
    """Workflow construction or execution failure."""


@dataclass(frozen=True)
class Tool:
    """One operation of one discovered service — a toolbox icon."""

    name: str
    handle: ServiceHandle
    operation: str


class Toolbox:
    """Discovered services presented as invocable tools."""

    def __init__(self, wspeer: WSPeer):
        self.wspeer = wspeer
        self._tools: dict[str, Tool] = {}

    def discover(self, query: ServiceQuery | str, timeout: float = 10.0) -> list[Tool]:
        """Locate services and register every operation as a tool."""
        new_tools = []
        for handle in self.wspeer.locate(query, timeout=timeout, expect=1):
            for op_name in handle.operation_names():
                tool = Tool(f"{handle.name}.{op_name}", handle, op_name)
                self._tools[tool.name] = tool
                new_tools.append(tool)
        return new_tools

    def add_local(self, service_name: str) -> list[Tool]:
        """Register this peer's own deployed service as tools."""
        handle = self.wspeer.local_handle(service_name)
        tools = []
        for op_name in handle.operation_names():
            tool = Tool(f"{handle.name}.{op_name}", handle, op_name)
            self._tools[tool.name] = tool
            tools.append(tool)
        return tools

    def tool(self, name: str) -> Tool:
        tool = self._tools.get(name)
        if tool is None:
            raise WorkflowError(f"no tool named {name!r} in the toolbox")
        return tool

    @property
    def tool_names(self) -> list[str]:
        return sorted(self._tools)


@dataclass
class TaskSpec:
    """One node on the scratchpad."""

    task_id: str
    tool: Tool
    # parameter name -> constant value
    constants: dict[str, Any] = field(default_factory=dict)
    # parameter name -> upstream task id (wired connection)
    wires: dict[str, str] = field(default_factory=dict)


class Workflow:
    """A DAG of service invocations."""

    def __init__(self, name: str = "workflow"):
        self.name = name
        self.tasks: dict[str, TaskSpec] = {}

    def add_task(
        self,
        task_id: str,
        tool: Tool,
        constants: Optional[dict[str, Any]] = None,
        wires: Optional[dict[str, str]] = None,
    ) -> TaskSpec:
        """Add a task; *wires* maps parameters to upstream task ids."""
        if task_id in self.tasks:
            raise WorkflowError(f"duplicate task id {task_id!r}")
        spec = TaskSpec(task_id, tool, dict(constants or {}), dict(wires or {}))
        for upstream in spec.wires.values():
            if upstream not in self.tasks:
                raise WorkflowError(
                    f"task {task_id!r} wires to unknown task {upstream!r} "
                    "(add upstream tasks first)"
                )
        self.tasks[task_id] = spec
        return spec

    def waves(self) -> list[list[TaskSpec]]:
        """Topological order, grouped into parallel waves."""
        remaining = dict(self.tasks)
        done: set[str] = set()
        waves: list[list[TaskSpec]] = []
        while remaining:
            wave = [
                spec
                for spec in remaining.values()
                if all(up in done for up in spec.wires.values())
            ]
            if not wave:
                raise WorkflowError("workflow contains a dependency cycle")
            for spec in wave:
                del remaining[spec.task_id]
                done.add(spec.task_id)
            waves.append(wave)
        return waves

    @property
    def task_count(self) -> int:
        return len(self.tasks)


class WorkflowEngine:
    """Choreographs a workflow through one WSPeer client."""

    def __init__(self, wspeer: WSPeer, timeout: float = 30.0):
        self.wspeer = wspeer
        self.timeout = timeout

    def run(self, workflow: Workflow) -> dict[str, Any]:
        """Execute; returns task id → result.

        Tasks inside a wave are dispatched asynchronously together and
        awaited as a group, so parallel branches overlap in time.
        """
        results: dict[str, Any] = {}
        kernel = self.wspeer.node.network.kernel
        for wave in workflow.waves():
            pending: dict[str, dict[str, Any]] = {}
            for spec in wave:
                args = dict(spec.constants)
                for param, upstream in spec.wires.items():
                    args[param] = results[upstream]
                box: dict[str, Any] = {}
                pending[spec.task_id] = box

                def callback(result: Any, error: Optional[Exception], box=box) -> None:
                    box["result"] = result
                    box["error"] = error

                self.wspeer.invoke_async(
                    spec.tool.handle, spec.tool.operation, args, callback,
                    timeout=self.timeout,
                )
            kernel.pump_until(
                lambda: all("result" in box or "error" in box for box in pending.values()),
                timeout=self.timeout * max(1, len(wave)),
            )
            for task_id, box in pending.items():
                if box.get("error") is not None:
                    raise WorkflowError(
                        f"task {task_id!r} failed: {box['error']}"
                    ) from box["error"]
                results[task_id] = box.get("result")
        return results
