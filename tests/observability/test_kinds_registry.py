"""Every event kind the tree fires must be documented in the registry.

A subsystem inventing an undocumented ``kind`` string is a silent hole
in every trace; these tests replay representative scenarios through a
recording listener and fail on the first unregistered kind — the CI
tripwire :mod:`repro.observability.kinds` promises.
"""

import pytest

from repro.core.events import (
    ClientMessageEvent,
    DeploymentMessageEvent,
    DiscoveryMessageEvent,
    PublishMessageEvent,
    RecordingListener,
    ServerMessageEvent,
)
from repro.observability.kinds import (
    FAMILIES,
    KIND_REGISTRY,
    KNOWN_KINDS,
    family_of,
    is_known,
)
from repro.reliability import ReliabilityPolicy, RetryPolicy
from repro.supervision.failover import attach_failover

#: event dataclass -> registry family name
FAMILY_OF_EVENT = {
    ClientMessageEvent: "client",
    ServerMessageEvent: "server",
    DiscoveryMessageEvent: "discovery",
    PublishMessageEvent: "publish",
    DeploymentMessageEvent: "deployment",
}


def assert_all_documented(listener):
    undocumented = sorted(
        {e.kind for e in listener.events}
        - KNOWN_KINDS
        - {e.kind for e in listener.events if e.kind.startswith("circuit-")}
    )
    assert not undocumented, (
        f"event kinds fired but missing from KIND_REGISTRY: {undocumented}"
    )
    for event in listener.events:
        if event.kind.startswith("circuit-"):
            continue
        expected = FAMILY_OF_EVENT[type(event)]
        assert family_of(event.kind) == expected, (
            f"{event.kind!r} registered under {family_of(event.kind)!r} "
            f"but fired as a {expected} event"
        )


class TestRegistryShape:
    def test_families_are_closed_set(self):
        assert set(family for family, _ in KIND_REGISTRY.values()) <= set(FAMILIES)

    def test_every_entry_has_a_meaning(self):
        for kind, (family, meaning) in KIND_REGISTRY.items():
            assert meaning.strip(), f"{kind} has no documented meaning"

    def test_helpers(self):
        assert is_known("request-sent")
        assert not is_known("made-up")
        assert family_of("request-sent") == "client"
        assert family_of("made-up") == "unknown"


class TestLiveScenarios:
    def test_http_lifecycle_fires_only_documented_kinds(
        self, net, registry_node
    ):
        from repro.core import WSPeer
        from repro.core.binding import StandardBinding
        from tests.observability.conftest import Echo

        recorder = RecordingListener()
        provider = WSPeer(
            net.add_node("prov"), StandardBinding(registry_node.endpoint),
            listener=recorder,
        )
        provider.deploy(Echo(), name="Echo")
        provider.publish("Echo")
        net.run()
        consumer = WSPeer(
            net.add_node("cons"), StandardBinding(registry_node.endpoint),
            listener=recorder,
        )
        handle = consumer.locate_one("Echo")
        consumer.invoke(handle, "echo", {"message": "hi"})
        # a failing call (dead provider) exercises the error kinds
        provider.node.go_down()
        from repro.transport import TransportTimeoutError

        with pytest.raises(TransportTimeoutError):
            consumer.invoke(
                handle, "echo", {"message": "x"}, timeout=0.2,
                policy=ReliabilityPolicy(
                    retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
                ),
            )
        provider.node.go_up()
        provider.undeploy("Echo")
        assert recorder.of_kind("request-sent")
        assert recorder.of_kind("retransmit")
        assert recorder.of_kind("invoke-failed")
        assert recorder.of_kind("undeployed")
        assert_all_documented(recorder)

    def test_p2ps_lifecycle_fires_only_documented_kinds(self, net):
        from repro.core import WSPeer
        from repro.core.binding import P2psBinding
        from repro.p2ps import PeerGroup
        from tests.observability.conftest import Echo

        recorder = RecordingListener()
        group = PeerGroup("g")
        provider = WSPeer(
            net.add_node("prov"), P2psBinding(group), name="prov",
            listener=recorder,
        )
        provider.deploy(Echo(), name="Echo")
        provider.publish("Echo")
        net.run()
        consumer = WSPeer(
            net.add_node("cons"), P2psBinding(group), name="cons",
            listener=recorder,
        )
        handle = consumer.locate_one("Echo")
        consumer.invoke(handle, "echo", {"message": "hi"})
        consumer.invoke_oneway(handle, "echo", {"message": "bare"})
        status = consumer.invoke_oneway(
            handle, "echo", {"message": "sure"},
            policy=ReliabilityPolicy.assured(),
        )
        net.run()
        assert status.acked
        assert recorder.of_kind("pipes-opened")
        assert recorder.of_kind("oneway-sent")
        assert recorder.of_kind("oneway-acked")
        assert recorder.of_kind("ack-sent")
        assert_all_documented(recorder)

    def test_supervision_scenario_fires_only_documented_kinds(
        self, net, registry_node
    ):
        from tests.supervision.conftest import build_replicated_world

        providers, consumer, handle, _ = build_replicated_world(net, registry_node)
        recorder = RecordingListener()
        consumer.add_listener(recorder)
        for p in providers:
            p.add_listener(recorder)
        ex = attach_failover(consumer)
        ex.invoke(handle, "echo", {"message": "warm"}, timeout=1.0)
        providers[0].node.go_down()
        ex.invoke(handle, "echo", {"message": "hop"}, timeout=1.0)
        assert recorder.of_kind("failover")
        assert_all_documented(recorder)


class TestStaticSweep:
    """AST scan: every kind fired anywhere under src/ is registered.

    The live scenarios above only cover paths they exercise; this sweep
    reads every ``fire_*(...)`` call's literal first argument (and the
    crash harness's action->kind map) so a new emission site cannot
    slip an undocumented kind past CI.  Dynamic kinds are allowed only
    for the breaker's ``circuit-{state}`` family, whose concrete forms
    are registered individually.
    """

    def _fired_kinds(self):
        import ast
        import pathlib

        import repro

        src = pathlib.Path(repro.__file__).parent
        literal, dynamic = set(), []
        fire_names = {
            "fire_client", "fire_server", "fire_discovery",
            "fire_publish", "fire_deployment",
        }
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                func = node.func
                name = getattr(func, "attr", None) or getattr(func, "id", None)
                if name not in fire_names:
                    continue
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    literal.add(first.value)
                else:
                    dynamic.append((str(path), ast.unparse(first)))
        return literal, dynamic

    def test_every_statically_fired_kind_is_registered(self):
        literal, _ = self._fired_kinds()
        assert literal, "the sweep found no fire_* call sites at all"
        undocumented = sorted(literal - KNOWN_KINDS)
        assert not undocumented, (
            f"kinds fired in src/ but missing from KIND_REGISTRY: {undocumented}"
        )

    def test_dynamic_kinds_are_only_the_breaker_family(self):
        _, dynamic = self._fired_kinds()
        for path, expr in dynamic:
            assert "circuit-" in expr, (
                f"{path} fires a dynamic kind {expr!r}; register its "
                f"concrete forms or make it a literal"
            )

    def test_harness_kind_map_is_registered(self):
        from repro.simnet.churn import KIND_BY_ACTION

        for action, kind in KIND_BY_ACTION.items():
            assert kind in KNOWN_KINDS, f"{action} -> {kind} unregistered"
            assert family_of(kind) == "harness"
