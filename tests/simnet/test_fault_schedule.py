"""One fault schedule: every kill, restart and record goes one way.

The seeded draws and the ``describe()`` lines are pinned to the values
the three earlier kill paths (a fail-fraction injector, the churn
schedule, the crash harness) produced, so scenarios written against any
of them replay unchanged on :class:`ChurnSchedule`.
"""

import ast
from pathlib import Path

from repro.core.events import EventSource, PeerEvent
from repro.observability.flight import FlightRecorder
from repro.observability.metrics import MetricsRegistry
from repro.simnet import ChurnSchedule, FixedLatency, Network

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _network(n):
    net = Network(latency=FixedLatency(0.001))
    for i in range(n):
        net.add_node(f"n{i}").open_port("in", lambda frame: None)
    return net


POOL = [f"n{i}" for i in range(10)]


def test_fail_fraction_victims_are_pinned():
    victims = {}
    for seed in (0, 7, 11):
        schedule = ChurnSchedule(_network(10), seed=seed)
        victims[seed] = (
            schedule.fail_fraction(POOL, 0.3, at=1.0),
            schedule.fail_fraction(POOL, 0.5, at=2.0),
        )
    assert victims == {
        0: (["n5", "n9", "n6"], ["n0", "n7", "n6", "n8", "n1"]),
        7: (["n7", "n5", "n6"], ["n3", "n4", "n1", "n0", "n5"]),
        11: (["n1", "n7", "n8"], ["n1", "n3", "n4", "n8", "n0"]),
    }


def test_random_kills_plan_is_pinned():
    plans = {
        seed: ChurnSchedule(_network(6), seed=seed).random_kills(
            POOL[:6], n_kills=4, start=1.0, until=5.0, downtime=0.5
        )
        for seed in (0, 7, 11)
    }
    assert plans == {
        0: [("n3", 1.1638940957447788), ("n5", 2.0791468550554812),
            ("n0", 4.25308095680109), ("n0", 4.651022309110887)],
        7: [("n5", 2.2006651396449017), ("n3", 4.1027427609807745),
            ("n1", 4.494213781585048), ("n5", 4.5888552038783015)],
        11: [("n4", 1.5917043383098237), ("n0", 2.99711144976046),
             ("n0", 3.40599343049343), ("n0", 4.712844091841478)],
    }


def _fire_at(net, source, at, kind):
    net.kernel.schedule_at(
        at, lambda: source.fire(PeerEvent(kind=kind, time=net.now, source="svc", detail={}))
    )


def test_describe_lines_of_a_triggered_and_a_deferred_kill_are_pinned():
    net = _network(3)
    schedule = ChurnSchedule(net)
    source = EventSource("svc")
    schedule.kill_on_event(source, "request-received", "n1")
    schedule.kill_on_event(
        source, "response-sent", "n2", defer=True, restart_after=0.25, label="after the reply"
    )
    _fire_at(net, source, 0.5, "request-received")
    _fire_at(net, source, 0.75, "response-sent")
    net.run()
    assert schedule.describe() == [
        "t=0.500 trigger n1 on request-received",
        "t=0.500 kill n1",
        "t=0.750 kill n2 after the reply (deferred)",
        "t=1.000 restart n2",
    ]


def test_a_change_that_changes_nothing_records_nothing():
    net = _network(2)
    schedule = ChurnSchedule(net)
    schedule.restart("n0")  # already up
    schedule.kill("n0", at=1.0, restart_at=3.0)
    schedule.kill("n0", at=2.0)  # already down
    net.run()
    assert schedule.describe() == ["t=1.000 kill n0", "t=3.000 restart n0"]


def test_a_scheduled_kill_freezes_a_flight_dump():
    net = _network(2)
    schedule = ChurnSchedule(net)
    recorder = FlightRecorder(metrics=MetricsRegistry())
    recorder.attach(schedule)
    schedule.kill("n1", at=1.0, restart_at=2.0)
    schedule.brownout("n0", at=0.5, until=1.5, service_time=0.1)
    net.run()
    assert [dump["reason"] for dump in recorder.dumps] == ["node-killed"]
    dump = recorder.latest_dump()
    assert dump["time"] == 1.0
    assert [(e["kind"], e["node"]) for e in dump["events"]] == [
        ("brownout-started", "n0"), ("node-killed", "n1"),
    ]
    kinds = [record["kind"] for record in recorder.snapshot()["events"]]
    assert kinds == ["brownout-started", "node-killed", "brownout-ended", "node-restarted"]


def _go_calls(tree):
    """(outermost ``Class.method``, method) of each ``.go_down`` /
    ``.go_up`` in *tree*, called or handed on as a callback."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + [child.name]
            elif isinstance(child, ast.Attribute) and child.attr in ("go_down", "go_up"):
                found.append((".".join(scope[:2]), child.attr))
            walk(child, inner)

    walk(tree, [])
    return found


def test_only_the_schedule_takes_nodes_down_and_up():
    """Every ``go_down()`` / ``go_up()`` in the package is in
    ``ChurnSchedule.kill`` / ``restart``: there is one kill path."""
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        for where, method in _go_calls(ast.parse(path.read_text(encoding="utf-8"))):
            calls.append((path.relative_to(SRC).as_posix(), where, method))
    assert calls == [
        ("simnet/churn.py", "ChurnSchedule.kill", "go_down"),
        ("simnet/churn.py", "ChurnSchedule.restart", "go_up"),
    ]
