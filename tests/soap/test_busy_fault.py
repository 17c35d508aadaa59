"""Server.Busy round trip: wire bytes → typed fault on both bindings.

The admission controller answers overload with a well-formed SOAP
fault (``Server.Busy``) carrying a retry-after hint.  That answer has
to survive the full path the real stack uses — HTTP status carrying
the fault body, the p2ps pipe reply, and the E8 envelope-template fast
path — and still parse back into a :class:`ServerBusyFault` whose
``retry_after`` is intact.
"""

import pytest

from repro.caching import clear_all_caches
from repro.core import WSPeer
from repro.core.binding import P2psBinding, StandardBinding
from repro.p2ps import PeerGroup
from repro.simnet import FixedLatency, Network
from repro.soap.envelope import SoapEnvelope
from repro.soap.faults import FaultCode, ServerBusyFault, SoapFault
from repro.uddi import UddiRegistryNode
from repro.xmlkit import serialize
from tests._oracle.reference_codec import parse_reference, serialize_reference


@pytest.fixture(autouse=True)
def _clean_caches():
    clear_all_caches()
    yield
    clear_all_caches()


class EchoService:
    def echo(self, message: str) -> str:
        return message


def saturate(provider):
    """Admission control saturated deep enough that the in-flight
    latency's drain cannot free a slot before the request lands."""
    admission = provider.server.container.set_admission_control(capacity=1.0, drain_rate=0.01)
    admission.level = admission.capacity + 5.0
    return admission


class TestHttpBinding:
    def test_busy_rides_http_to_typed_fault(self):
        net = Network(latency=FixedLatency(0.002))
        registry = UddiRegistryNode(net.add_node("registry"))
        provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
        provider.deploy(EchoService(), name="Echo")
        consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
        handle = provider.local_handle("Echo")
        saturate(provider)

        with pytest.raises(ServerBusyFault) as excinfo:
            consumer.invoke(handle, "echo", {"message": "x"}, timeout=1.0)
        fault = excinfo.value
        assert fault.retry_after > 0
        assert fault.subcode == ServerBusyFault.SUBCODE
        assert fault.code == FaultCode.SERVER


class TestP2psBinding:
    def test_busy_rides_pipe_to_typed_fault(self):
        net = Network(latency=FixedLatency(0.002))
        group = PeerGroup("g")
        provider = WSPeer(net.add_node("prov"), P2psBinding(group), name="prov")
        provider.deploy(EchoService(), name="Echo")
        provider.publish("Echo")
        consumer = WSPeer(net.add_node("cons"), P2psBinding(group), name="cons")
        net.run()
        handle = consumer.locate_one("Echo", timeout=5.0)
        saturate(provider)

        with pytest.raises(ServerBusyFault) as excinfo:
            consumer.invoke(handle, "echo", {"message": "x"}, timeout=1.0)
        assert excinfo.value.retry_after > 0


class TestWireShape:
    def wire(self, retry_after=1.5):
        fault = ServerBusyFault("service 'Echo' is at capacity", retry_after=retry_after)
        return SoapEnvelope.for_fault(fault).to_wire()

    def test_round_trip_preserves_retry_after(self):
        parsed = SoapEnvelope.from_wire(self.wire(retry_after=1.5)).fault()
        assert isinstance(parsed, ServerBusyFault)
        assert parsed.retry_after == pytest.approx(1.5)
        assert parsed.message == "service 'Echo' is at capacity"

    def test_body_content_is_recognisably_busy(self):
        envelope = SoapEnvelope.from_wire(self.wire())
        assert envelope.is_fault
        assert isinstance(SoapFault.from_element(envelope.body_content), ServerBusyFault)

    def test_plain_server_fault_is_not_busy(self):
        fault = SoapFault(FaultCode.SERVER, "boom")
        envelope = SoapEnvelope.from_wire(SoapEnvelope.for_fault(fault).to_wire())
        assert not isinstance(SoapFault.from_element(envelope.body_content), ServerBusyFault)
        assert not isinstance(envelope.fault(), ServerBusyFault)

    def test_zero_hint_clamps_negative(self):
        parsed = SoapEnvelope.from_wire(self.wire(retry_after=-3.0)).fault()
        assert parsed.retry_after == 0.0


class TestTemplateFastPathParity:
    """The shed answer is built per-request on the provider's hot path,
    so it goes through the E8 wire-template cache.  The template render
    must be byte-identical to the slow serializer — and both must match
    the frozen reference codec."""

    def envelope(self, retry_after):
        fault = ServerBusyFault("service 'Echo' is at capacity", retry_after=retry_after)
        return SoapEnvelope.for_fault(fault)

    def test_fast_and_slow_paths_emit_identical_bytes(self):
        for retry_after in (0.0, 0.25, 7.5):
            envelope = self.envelope(retry_after)
            fast = envelope.to_wire()
            fast_again = envelope.to_wire()  # rendered from the cached template
            slow = serialize(envelope.to_element(), xml_declaration=True)
            assert fast == slow == fast_again

    def test_fast_path_matches_reference_serializer(self):
        envelope = self.envelope(0.75)
        reference = serialize_reference(
            envelope.to_element(), xml_declaration=True
        )
        assert envelope.to_wire() == reference

    def test_reference_parser_reads_fast_path_bytes(self):
        wire = self.envelope(2.5).to_wire()
        root = parse_reference(wire)
        parsed = SoapEnvelope.from_element(root).fault()
        assert isinstance(parsed, ServerBusyFault)
        assert parsed.retry_after == pytest.approx(2.5)
