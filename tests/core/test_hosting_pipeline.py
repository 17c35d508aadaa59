"""One hosting pipeline: the same request scenarios over every binding
produce the same server events, counters and execution counts.

Each scenario posts raw request wires at the service's endpoint through
the binding's own transport — HTTP, authenticated HTTPG, or a P2PS pipe
with a ReplyTo — and reads the raw answer back, so the assertions hold
for what leaves the provider, not for what a client stub makes of it.
"""

import pytest

from repro.core import WSPeer
from repro.core.binding import P2psBinding, StandardBinding
from repro.core.deployer import HttpServiceDeployer
from repro.core.events import RecordingListener
from repro.core.p2psmap import action_for_pipe, epr_from_pipe, pipe_from_epr
from repro.observability import default_registry
from repro.p2ps import PeerGroup
from repro.simnet import FixedLatency, Network
from repro.soap import SoapEnvelope
from repro.soap.faults import FaultCode, ServerBusyFault, SoapFault
from repro.soap.rpc import build_rpc_request, extract_rpc_result
from repro.transport import CertificateAuthority, HttpgTransport, HttpTransport, Uri
from repro.uddi import UddiRegistryNode
from repro.wsa.headers import MessageAddressingProperties

BINDINGS = ["http", "httpg", "p2ps"]
NAMESPACE = "urn:wspeer:Tally"

#: the server-side story of one request; anything else a binding fires
#: (deployment events, client events) is not part of the comparison
STORY = {
    "request-received", "duplicate-suppressed", "request-intercepted",
    "request-shed", "malformed-request", "response-sent",
    "reply-undeliverable", "ack-sent",
}
COUNTERS = [
    "server.requests", "server.dispatched", "server.faults",
    "server.duplicates_suppressed", "server.requests_shed",
    "server.intercepted", "server.malformed_requests",
]


class Tally:
    def __init__(self):
        self.executions = 0

    def bump(self) -> int:
        self.executions += 1
        return self.executions

    def boom(self) -> int:
        self.executions += 1
        raise RuntimeError("deliberate failure")


class World:
    """A provider hosting ``Tally`` over *scheme*, and a raw wire client."""

    def __init__(self, scheme: str):
        self.net = Network(latency=FixedLatency(0.002))
        self.service = Tally()
        self._ids = 0
        if scheme == "p2ps":
            group = PeerGroup("g")
            self.provider = WSPeer(self.net.add_node("prov"), P2psBinding(group), name="prov")
            self.client = WSPeer(self.net.add_node("cons"), P2psBinding(group), name="cons").peer
        else:
            registry = UddiRegistryNode(self.net.add_node("registry"))
            self.provider = WSPeer(
                self.net.add_node("prov"), StandardBinding(registry.endpoint)
            )
            node = self.net.add_node("cons")
            if scheme == "httpg":
                ca = CertificateAuthority()
                self.provider.server.register_deployer(HttpServiceDeployer(
                    self.provider.node, self.provider.server.container,
                    transport=HttpgTransport(self.provider.node, ca, ca.issue("host")),
                ))
                self.client = HttpgTransport(node, ca, ca.issue("user"))
            else:
                self.client = HttpTransport(node)
        self.scheme = scheme
        self.deployed = self.provider.deploy(self.service, name="Tally", namespace=NAMESPACE)
        self.container = self.provider.server.container
        if scheme == "p2ps":
            self.provider.publish("Tally")
            self.net.run()
            # the reply pipe every request of this world names as ReplyTo
            self.answers: list = []
            pipe, advert = self.client.create_input_pipe("answers")
            pipe.add_listener(lambda payload, meta: self.answers.append(payload))
            self.reply_to = epr_from_pipe(advert)
        self.listener = RecordingListener()
        self.provider.add_listener(self.listener)
        self._counted = self._counters()

    @staticmethod
    def _counters() -> dict:
        return {name: default_registry().get(name) for name in COUNTERS}

    def request(self, operation: str = "bump") -> str:
        """An addressed request wire with a fresh MessageID."""
        self._ids += 1
        message_id = f"urn:test:{self.scheme}:{self._ids}"
        envelope = build_rpc_request(NAMESPACE, operation, {})
        if self.scheme == "p2ps":
            target = self._pipe_endpoint(operation)
            maps = MessageAddressingProperties(
                to=target.address, action=action_for_pipe(pipe_from_epr(target)),
                reply_to=self.reply_to, message_id=message_id,
            )
        else:
            target = self.deployed.endpoints[0]
            maps = MessageAddressingProperties(
                to=target.address, action=f"{target.address}#{operation}",
                message_id=message_id,
            )
        maps.apply_to(envelope, target=target)
        return envelope.to_wire()

    def _pipe_endpoint(self, operation: str):
        return next(
            e for e in self.deployed.endpoints if e.property_text("PipeName") == operation
        )

    def post(self, wire: str, operation: str = "bump"):
        """Deliver *wire* to the endpoint; the raw answer, or None."""
        if self.scheme == "p2ps":
            before = len(self.answers)
            out = self.client.open_output_pipe(pipe_from_epr(self._pipe_endpoint(operation)))
            self.client.send_down_pipe(out, wire)
            self.net.run()
            assert len(self.answers) - before <= 1
            return self.answers[-1] if len(self.answers) > before else None
        got = []
        self.client.send(
            Uri.parse(self.deployed.endpoints[0].address), wire,
            on_response=lambda body, error: got.append((body, error)),
        )
        self.net.run()
        ((body, error),) = got
        assert error is None
        return body

    def story(self) -> list[str]:
        """Server events since the last call."""
        kinds = [k for k in self.listener.kinds() if k in STORY]
        self.listener.events.clear()
        return kinds

    def counted(self) -> dict:
        """Non-zero server counter movements since the last call."""
        now = self._counters()
        moved = {
            name.removeprefix("server."): now[name] - self._counted[name]
            for name in COUNTERS if now[name] != self._counted[name]
        }
        self._counted = now
        return moved


@pytest.fixture(params=BINDINGS)
def world(request):
    return World(request.param)


def result_of(wire) -> int:
    return extract_rpc_result(SoapEnvelope.from_wire_message(wire))


def fault_of(wire) -> SoapFault:
    fault = SoapEnvelope.from_wire_message(wire).fault()
    assert fault is not None
    return fault


class TestSameStoryOnEveryBinding:
    def test_ok(self, world):
        assert result_of(world.post(world.request())) == 1
        assert world.story() == ["request-received", "response-sent"]
        assert world.counted() == {"requests": 1, "dispatched": 1}
        assert world.service.executions == 1

    def test_application_fault(self, world):
        fault = fault_of(world.post(world.request("boom"), "boom"))
        assert "deliberate failure" in fault.message
        assert world.story() == ["request-received", "response-sent"]
        assert world.counted() == {"requests": 1, "dispatched": 1, "faults": 1}
        assert world.service.executions == 1

    def test_duplicate_replays_the_first_answer_byte_for_byte(self, world):
        wire = world.request()
        first = world.post(wire)
        world.story(), world.counted()
        replay = world.post(wire)
        assert replay == first
        assert world.story() == [
            "request-received", "duplicate-suppressed", "response-sent",
        ]
        assert world.counted() == {"requests": 1, "duplicates_suppressed": 1}
        assert world.service.executions == 1
        assert world.deployed.duplicates_suppressed == 1

    def test_duplicate_of_a_fault_replays_the_fault(self, world):
        wire = world.request("boom")
        first = world.post(wire, "boom")
        world.story(), world.counted()
        assert world.post(wire, "boom") == first
        assert world.counted() == {
            "requests": 1, "duplicates_suppressed": 1, "faults": 1,
        }
        assert world.service.executions == 1

    def test_shed_is_answered_busy_and_never_retained(self, world):
        admission = world.provider.server.container.set_admission_control(capacity=1.0, drain_rate=0.001)
        admission.level = admission.capacity + 1.0  # stays saturated in flight
        wire = world.request()
        busy = SoapEnvelope.from_wire_message(world.post(wire))
        assert isinstance(busy.fault(), ServerBusyFault)
        assert world.story() == ["request-received", "request-shed", "response-sent"]
        assert world.counted() == {"requests": 1, "requests_shed": 1, "faults": 1}
        assert world.service.executions == 0
        # the same MessageID gets a fresh admission decision, not a replay
        admission.level = 0.0
        assert result_of(world.post(wire)) == 1
        assert world.story() == ["request-received", "response-sent"]

    def test_intercepted_answer_is_never_retained(self, world):
        canned = build_rpc_request(NAMESPACE, "bumpResponse", {"return": 99})
        world.container.interceptor = lambda service, request: canned
        wire = world.request()
        assert result_of(world.post(wire)) == 99
        assert world.story() == [
            "request-received", "request-intercepted", "response-sent",
        ]
        assert world.counted() == {"requests": 1, "intercepted": 1}
        assert world.service.executions == 0
        world.container.interceptor = None
        assert result_of(world.post(wire)) == 1  # executed, not replayed
        assert world.story() == ["request-received", "response-sent"]

    def test_lagging_replica_answer_is_never_retained(self, world):
        class Lagging:
            """Stands in for a ReplicationMember that is behind."""

            behind = True

            def guard_request(self, request, operation):
                if self.behind:
                    return SoapEnvelope.for_fault(SoapFault(FaultCode.SERVER, "behind"))
                return None

            def after_execute(self, request, response_wire, message_id, operation):
                pass

        member = world.deployed.replication = Lagging()
        wire = world.request()
        assert fault_of(world.post(wire)).message == "behind"
        assert world.story() == ["request-received", "response-sent"]
        assert world.service.executions == 0
        member.behind = False
        assert result_of(world.post(wire)) == 1
        assert world.counted() == {"requests": 2, "dispatched": 1, "faults": 1}

    def test_malformed(self, world):
        answer = world.post("<unclosed")
        if world.scheme == "p2ps":
            assert answer is None  # no ReplyTo could be read: pipes drop
        else:
            assert fault_of(answer).code is FaultCode.CLIENT
        assert world.story() == ["malformed-request"]
        assert world.counted() == {"malformed_requests": 1}
        assert world.service.executions == 0

    def test_unknown_service(self, world):
        # the endpoint still routes but the container no longer knows it
        world.container.undeploy("Tally")
        fault = fault_of(world.post(world.request()))
        assert fault.code is FaultCode.CLIENT
        assert "no deployed service" in fault.message
        assert world.story() == ["request-received", "response-sent"]
        assert world.counted() == {"requests": 1, "faults": 1}
        assert world.service.executions == 0


class TestReplyMaps:
    """What differs between bindings, and only this: the addressing
    properties the answer carries."""

    def test_answer_addressing(self, world):
        wire = world.request()
        answer = SoapEnvelope.from_wire_message(world.post(wire))
        if world.scheme == "p2ps":
            maps = MessageAddressingProperties.extract_from(answer)
            assert maps.to == world.reply_to.address
            assert maps.action.endswith("Response")
            assert maps.relates_to == f"urn:test:p2ps:{world._ids}"
        else:
            assert answer.headers == []
