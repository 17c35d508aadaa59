"""AdmissionController and container-level load shedding."""

import pytest

from repro.core.events import RecordingListener
from repro.simnet import Kernel
from repro.soap.envelope import SoapEnvelope
from repro.soap.faults import ServerBusyFault
from repro.supervision import AdmissionController


def controller(kernel=None, **kwargs):
    kernel = kernel or Kernel()
    kwargs.setdefault("capacity", 2.0)
    kwargs.setdefault("drain_rate", 1.0)
    return kernel, AdmissionController(clock=lambda: kernel.now, **kwargs)


class TestLeakyBucket:
    def test_admits_until_capacity(self):
        _, a = controller(capacity=2.0)
        assert a.try_admit() == (True, 0.0)
        assert a.try_admit() == (True, 0.0)
        ok, retry_after = a.try_admit()
        assert not ok and retry_after > 0
        assert a.admitted == 2 and a.shed == 1

    def test_drains_over_virtual_time(self):
        kernel, a = controller(capacity=1.0, drain_rate=2.0)
        assert a.try_admit()[0]
        assert not a.try_admit()[0]
        kernel.schedule(1.0, lambda: None)
        kernel.run()
        assert a.try_admit()[0]  # 2 units drained in 1s

    def test_retry_after_sized_to_drain(self):
        _, a = controller(capacity=1.0, drain_rate=4.0)
        a.try_admit()
        _, retry_after = a.try_admit()
        # level 1, capacity 1: one unit of room needs 1/4 s
        assert retry_after == pytest.approx(0.25)

    def test_unbounded_controller_never_sheds(self):
        _, a = controller(capacity=None)
        for _ in range(100):
            assert a.try_admit()[0]
        assert a.shed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(capacity=0.5)
        with pytest.raises(ValueError):
            AdmissionController(drain_rate=0.0)

    def test_saturation_reflects_level(self):
        _, a = controller(capacity=4.0)
        a.try_admit()
        a.try_admit()
        assert a.saturation == pytest.approx(0.5)


class TestContainerShedding:
    @pytest.fixture
    def world(self, net, registry_node):
        from tests.supervision.conftest import build_replicated_world

        providers, consumer, handle, _ = build_replicated_world(
            net, registry_node, n_providers=1
        )
        return net, providers[0], consumer, handle

    def test_overloaded_container_answers_busy(self, world):
        net, provider, consumer, handle = world
        provider.server.container.set_admission_control(capacity=1.0, drain_rate=0.01)
        assert consumer.invoke(handle, "echo", {"message": "a"}, timeout=1.0) == "a"
        assert consumer.invoke(handle, "echo", {"message": "b"}, timeout=1.0) == "b"
        with pytest.raises(ServerBusyFault) as excinfo:
            consumer.invoke(handle, "echo", {"message": "c"}, timeout=1.0)
        assert excinfo.value.retry_after > 0
        # the per-endpoint retry policy may retry the busy answer a few
        # times before surfacing it; every attempt is a shed
        assert provider.server.container.requests_shed >= 1

    def test_shed_fires_server_event(self, world):
        net, provider, consumer, handle = world
        listener = RecordingListener()
        provider.add_listener(listener)
        provider.server.container.set_admission_control(capacity=1.0, drain_rate=0.01)
        consumer.invoke(handle, "echo", {"message": "a"}, timeout=1.0)
        consumer.invoke(handle, "echo", {"message": "b"}, timeout=1.0)
        with pytest.raises(ServerBusyFault):
            consumer.invoke(handle, "echo", {"message": "c"}, timeout=1.0)
        assert listener.of_kind("request-shed")

    def test_shed_request_is_not_remembered_for_dedup(self, world):
        """A retransmitted MessageID whose first attempt was shed must
        execute once capacity frees — not replay 'busy' forever."""
        net, provider, consumer, handle = world
        container = provider.server.container
        admission = provider.server.container.set_admission_control(capacity=1.0, drain_rate=1.0)

        from repro.soap.rpc import build_rpc_request
        from repro.wsa.headers import MessageAddressingProperties

        endpoint = handle.endpoints[0]
        maps = MessageAddressingProperties.for_request(endpoint, "echo")
        envelope = build_rpc_request(handle.namespace, "echo", {"message": "x"},
                                     container.require("Echo").registry)
        maps.apply_to(envelope, target=endpoint)

        admission.level = admission.capacity  # saturated right now
        first = container.process_request("Echo", envelope)
        assert first.is_fault

        net.kernel.schedule(2.0, lambda: None)
        net.run()  # bucket drains
        second = container.process_request("Echo", envelope)  # same MessageID
        assert not second.is_fault

    def test_dedup_replay_bypasses_admission(self, world):
        """A duplicate of an already-executed request replays the
        retained response even when the provider is saturated — replay
        is cheap and must not burn admission budget."""
        net, provider, consumer, handle = world
        container = provider.server.container

        from repro.soap.rpc import build_rpc_request
        from repro.wsa.headers import MessageAddressingProperties

        endpoint = handle.endpoints[0]
        maps = MessageAddressingProperties.for_request(endpoint, "echo")
        envelope = build_rpc_request(handle.namespace, "echo", {"message": "x"},
                                     container.require("Echo").registry)
        maps.apply_to(envelope, target=endpoint)

        first = container.process_request("Echo", envelope)
        assert not first.is_fault
        admission = provider.server.container.set_admission_control(capacity=1.0, drain_rate=0.01)
        admission.level = admission.capacity
        replay = container.process_request("Echo", envelope)
        assert not replay.is_fault
        assert container.requests_shed == 0


class TestBusyOverPipes:
    """Admission answers Busy on either binding.  On a reply pipe it is
    retried after the policy's backoff, like HTTP's 503 — it must not end
    the call on the first answer."""

    def test_busy_on_reply_pipe_is_retried_after_backoff(self, net):
        from repro.core import WSPeer
        from repro.core.binding import P2psBinding
        from repro.p2ps import PeerGroup
        from repro.reliability import ReliabilityPolicy, RetryPolicy
        from tests.supervision.conftest import Echo

        group = PeerGroup("g")
        provider = WSPeer(net.add_node("prov"), P2psBinding(group), name="prov")
        provider.deploy(Echo(), name="Echo")
        provider.publish("Echo")
        net.run()
        listener = RecordingListener()
        consumer = WSPeer(
            net.add_node("cons"), P2psBinding(group), name="cons", listener=listener
        )
        handle = consumer.locate_one("Echo")
        admission = provider.server.container.set_admission_control(capacity=1.0, drain_rate=1.0)
        admission.level = admission.capacity + 1.0  # still full on arrival

        # the backoff outlasts the drain, so the second attempt is admitted
        policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=2.0, jitter=0.0)
        )
        started = net.now
        assert consumer.invoke(
            handle, "echo", {"message": "c"}, timeout=1.0, policy=policy
        ) == "c"
        assert provider.server.container.requests_shed == 1
        (retransmit,) = listener.of_kind("retransmit")
        assert "at capacity" in retransmit.detail["reason"]
        assert net.now - started >= 2.0


class TestBusyFaultShape:
    def test_busy_fault_carries_hint_through_wire(self):
        fault = ServerBusyFault("at capacity", retry_after=0.75)
        wire = SoapEnvelope.for_fault(fault).to_wire()
        parsed = SoapEnvelope.from_wire(wire).fault()
        assert isinstance(parsed, ServerBusyFault)
        assert parsed.retry_after == pytest.approx(0.75)
