"""Property-based tests: workflow wave scheduling on random DAGs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from lab.workflow import Tool, Workflow
from repro.core.handle import ServiceHandle
from repro.wsdl.model import WsdlDefinition


def dummy_tool() -> Tool:
    return Tool("t", ServiceHandle("S", WsdlDefinition("S", "urn:s")), "op")


@st.composite
def random_dags(draw):
    """A random DAG as (task count, edges i->j with i < j)."""
    n = draw(st.integers(min_value=1, max_value=12))
    edges = []
    for j in range(1, n):
        parents = draw(
            st.lists(st.integers(0, j - 1), unique=True, max_size=min(3, j))
        )
        edges.extend((i, j) for i in parents)
    return n, edges


def build_workflow(n, edges):
    wf = Workflow()
    wires_by_task: dict[int, dict[str, str]] = {j: {} for j in range(n)}
    for i, j in edges:
        wires_by_task[j][f"in{i}"] = f"t{i}"
    for j in range(n):
        wf.add_task(f"t{j}", dummy_tool(), wires=wires_by_task[j])
    return wf


@settings(max_examples=150, deadline=None)
@given(random_dags())
def test_waves_respect_all_dependencies(dag):
    n, edges = dag
    wf = build_workflow(n, edges)
    waves = wf.waves()
    position = {}
    for wave_index, wave in enumerate(waves):
        for spec in wave:
            position[spec.task_id] = wave_index
    for i, j in edges:
        assert position[f"t{i}"] < position[f"t{j}"]


@settings(max_examples=100, deadline=None)
@given(random_dags())
def test_waves_cover_every_task_exactly_once(dag):
    n, edges = dag
    wf = build_workflow(n, edges)
    scheduled = [spec.task_id for wave in wf.waves() for spec in wave]
    assert sorted(scheduled) == sorted(f"t{j}" for j in range(n))


@settings(max_examples=100, deadline=None)
@given(random_dags())
def test_wave_count_equals_longest_path(dag):
    n, edges = dag
    wf = build_workflow(n, edges)
    depth = {}
    for j in range(n):
        parents = [i for i, k in edges if k == j]
        depth[j] = 1 + max((depth[i] for i in parents), default=-1)
    assert len(wf.waves()) == max(depth.values()) + 1
