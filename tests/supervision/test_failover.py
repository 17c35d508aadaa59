"""FailoverExecutor: health-ranked invocation across endpoints/bindings."""

import pytest

from repro.core import ServiceHandle, WSPeer
from repro.core.binding import P2psBinding, StandardBinding
from repro.core.errors import InvocationError
from repro.core.events import RecordingListener
from repro.core.invocation import HttpInvocation
from repro.p2ps import PeerGroup
from repro.soap.faults import ServerBusyFault, SoapFault
from repro.reliability import DeadlineExceededError
from repro.simnet import DropInjector
from repro.supervision import classify_error, FINAL, BUSY, FAILOVER
from repro.supervision.failover import DEADLINE, ROUNDS, attach_failover
from repro.transport.base import TransportError
from tests.supervision.conftest import Counter, build_replicated_world


class TestClassification:
    def test_busy_fault_is_busy(self):
        assert classify_error(ServerBusyFault(retry_after=1.0)) == BUSY

    def test_application_fault_is_final(self):
        from repro.soap.faults import FaultCode

        assert classify_error(SoapFault(FaultCode.SERVER, "boom")) == FINAL

    def test_transport_errors_fail_over(self):
        assert classify_error(TransportError("conn refused")) == FAILOVER
        assert classify_error(InvocationError("no response")) == FAILOVER


class TestHttpFailover:
    def test_invokes_through_healthiest_endpoint(self, replicated_world):
        providers, consumer, handle, _ = replicated_world
        ex = attach_failover(consumer)
        assert ex.invoke(handle, "echo", {"message": "hi"}, timeout=1.0) == "hi"
        assert ex.failovers == 0

    def test_fails_over_when_first_endpoint_dies(self, replicated_world):
        providers, consumer, handle, _ = replicated_world
        ex = attach_failover(consumer)
        ex.invoke(handle, "echo", {"message": "warm"}, timeout=1.0)
        providers[0].node.go_down()
        assert (
            ex.invoke(handle, "echo", {"message": "rerouted"}, timeout=1.0)
            == "rerouted"
        )
        assert ex.failovers >= 1

    def test_failover_event_fires_on_tree(self, replicated_world):
        providers, consumer, handle, _ = replicated_world
        listener = RecordingListener()
        consumer.add_listener(listener)
        ex = attach_failover(consumer)
        providers[0].node.go_down()
        ex.invoke(handle, "echo", {"message": "x"}, timeout=1.0)
        events = listener.of_kind("failover")
        assert events
        detail = events[0].detail
        assert detail["from_endpoint"] != detail["to_endpoint"]
        assert detail["message_id"]

    def test_learned_health_skips_dead_endpoint_next_call(self, replicated_world):
        providers, consumer, handle, _ = replicated_world
        ex = attach_failover(consumer)
        providers[0].node.go_down()
        ex.invoke(handle, "echo", {"message": "learn"}, timeout=1.0)
        switches_before = ex.failovers
        ex.invoke(handle, "echo", {"message": "skip"}, timeout=1.0)
        # second call starts at a live endpoint: no new switch needed
        assert ex.failovers == switches_before

    def test_all_endpoints_down_raises_after_rounds(self, replicated_world):
        providers, consumer, handle, _ = replicated_world
        ex = attach_failover(consumer)
        for p in providers:
            p.node.go_down()
        with pytest.raises(Exception):
            ex.invoke(handle, "echo", {"message": "void"}, timeout=0.5)

    def test_exhaustion_reports_the_rounds_walked(self, replicated_world):
        providers, consumer, handle, _ = replicated_world
        listener = RecordingListener()
        consumer.add_listener(listener)
        ex = attach_failover(consumer)
        for p in providers:
            p.node.go_down()
        with pytest.raises(Exception):
            ex.invoke(handle, "echo", {"message": "void"}, timeout=0.5)
        (event,) = listener.of_kind("failover-exhausted")
        assert event.detail["rounds"] == ROUNDS == 2
        assert event.detail["attempts"] == ROUNDS * len(handle.endpoints)

    def test_lapsed_deadline_raises_deadline_exceeded(self, net, replicated_world):
        providers, consumer, handle, _ = replicated_world
        ex = attach_failover(consumer)
        ex.invoke(handle, "echo", {"message": "warm"}, timeout=1.0)
        started = net.kernel.now
        # from now on every frame is lost: the first attempt waits out
        # its whole timeout and the last is trimmed to what is left of
        # the deadline, which lapses with attempts still unspent
        DropInjector(net, p=1.0, seed=0)
        with pytest.raises(DeadlineExceededError):
            ex.invoke(handle, "echo", {"message": "lost"}, timeout=DEADLINE * 0.75)
        assert net.kernel.now - started == pytest.approx(DEADLINE)

    def test_application_fault_does_not_fail_over(self, net, registry_node):
        class Flaky:
            def echo(self, message: str) -> str:
                raise RuntimeError("application exploded")

        providers, consumer, handle, _ = build_replicated_world(
            net, registry_node, n_providers=2, service=Flaky
        )
        ex = attach_failover(consumer)
        with pytest.raises(SoapFault):
            ex.invoke(handle, "echo", {"message": "x"}, timeout=1.0)
        # the fault came from execution, not unreachability: no switch
        assert ex.failovers == 0

    def test_busy_endpoint_fails_over_and_cools_down(self, replicated_world):
        providers, consumer, handle, _ = replicated_world
        # saturate the deterministically-first provider
        providers[0].server.container.set_admission_control(capacity=1.0, drain_rate=0.001)
        ex = attach_failover(consumer)
        results = [
            ex.invoke(handle, "echo", {"message": f"m{i}"}, timeout=1.0)
            for i in range(5)
        ]
        assert results == [f"m{i}" for i in range(5)]
        busy_address = providers[0].local_handle("Echo").endpoints[0].address
        assert ex.health.in_busy_cooldown(busy_address)

    def test_restarted_endpoint_recovers_traffic(self, replicated_world):
        providers, consumer, handle, _ = replicated_world
        ex = attach_failover(consumer)
        providers[0].node.go_down()
        ex.invoke(handle, "echo", {"message": "a"}, timeout=1.0)
        providers[0].node.go_up()
        # health decays/probes aside, a direct success revives the EPR
        addr = providers[0].local_handle("Echo").endpoints[0].address
        ex.health.record_success(addr, latency=0.01)
        assert not ex.health.is_dead(addr)
        assert ex.invoke(handle, "echo", {"message": "b"}, timeout=1.0) == "b"


class TestAtMostOnce:
    def test_failover_does_not_duplicate_execution(self, net, registry_node):
        """The crash-mid-request case: the client times out against a
        slow provider that DID execute, fails over, and the second
        provider executes too — but each *individual* provider executes
        the shared MessageID at most once, and retransmissions to
        either replay instead of re-running."""
        providers, consumer, handle, counters = build_replicated_world(
            net, registry_node, n_providers=2, service=Counter
        )
        ex = attach_failover(consumer)
        value = ex.invoke(handle, "increment", {"by": 1}, timeout=1.0)
        assert value == 1
        assert sum(c.value for c in counters) == 1

    def test_same_provider_retry_after_failover_replays(self, net, registry_node):
        """After a cross-endpoint failover, re-sending the original
        MessageID to a provider that already executed must replay the
        retained response, not increment again."""
        providers, consumer, handle, counters = build_replicated_world(
            net, registry_node, n_providers=1, service=Counter
        )
        container = providers[0].server.container

        from repro.soap.rpc import build_rpc_request
        from repro.wsa.headers import MessageAddressingProperties

        endpoint = handle.endpoints[0]
        maps = MessageAddressingProperties.for_request(endpoint, "increment")
        envelope = build_rpc_request(
            handle.namespace, "increment", {"by": 1},
            container.require("Echo").registry,
        )
        maps.apply_to(envelope, target=endpoint)
        first = container.process_request("Echo", envelope)
        replay = container.process_request("Echo", envelope)
        assert counters[0].value == 1

        from repro.soap.rpc import extract_rpc_result

        registry = container.require("Echo").registry
        assert extract_rpc_result(first, registry) == 1
        assert extract_rpc_result(replay, registry) == 1
        assert container.require("Echo").duplicates_suppressed == 1


class TestCrossBinding:
    @pytest.fixture
    def cross_world(self, net, registry_node):
        class Echo:
            def echo(self, message: str) -> str:
                return message

        group = PeerGroup("g")
        http_prov = WSPeer(
            net.add_node("hprov"), StandardBinding(registry_node.endpoint)
        )
        http_prov.deploy(Echo(), name="Echo")
        p2ps_prov = WSPeer(net.add_node("pprov"), P2psBinding(group), name="pprov")
        p2ps_prov.deploy(Echo(), name="Echo")
        p2ps_prov.publish("Echo")
        consumer = WSPeer(net.add_node("cons"), P2psBinding(group), name="cons")
        net.run()
        located = consumer.locate_one("Echo", timeout=5.0)
        hh = http_prov.local_handle("Echo")
        handle = ServiceHandle(
            "Echo", hh.wsdl, list(hh.endpoints) + list(located.endpoints)
        )
        ex = attach_failover(
            consumer,
            extra_invokers={
                "http": HttpInvocation(consumer.node, parent=consumer.client)
            },
        )
        return net, http_prov, p2ps_prov, consumer, handle, ex

    def test_candidates_span_bindings(self, cross_world):
        net, http_prov, p2ps_prov, consumer, handle, ex = cross_world
        schemes = {
            e.address.split("://")[0] for e in ex.candidate_endpoints(handle, "echo")
        }
        assert schemes == {"http", "p2ps"}

    def test_http_to_p2ps_failover(self, cross_world):
        net, http_prov, p2ps_prov, consumer, handle, ex = cross_world
        net.get_node("hprov").go_down()
        assert ex.invoke(handle, "echo", {"message": "hop"}, timeout=1.0) == "hop"
        assert ex.failovers >= 1

    def test_p2ps_to_http_failover(self, cross_world):
        net, http_prov, p2ps_prov, consumer, handle, ex = cross_world
        # drive traffic to the pipe first so it is the preferred EPR
        net.get_node("hprov").go_down()
        ex.invoke(handle, "echo", {"message": "warm"}, timeout=1.0)
        net.get_node("hprov").go_up()
        net.get_node("pprov").go_down()
        assert ex.invoke(handle, "echo", {"message": "back"}, timeout=2.0) == "back"


class TestNoCandidates:
    def test_unreachable_scheme_reports_clearly(self, replicated_world):
        providers, consumer, handle, _ = replicated_world
        from repro.simnet import Kernel
        from repro.supervision import FailoverExecutor

        ex = FailoverExecutor(consumer.node.network.kernel)  # nothing registered
        with pytest.raises(InvocationError, match="no endpoint"):
            ex.invoke(handle, "echo", {"message": "x"}, timeout=0.5)
