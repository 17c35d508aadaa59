"""Robustness under hostile/garbage input: servers must never crash."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WSPeer
from repro.core.binding import P2psBinding, StandardBinding
from repro.core.deployer import DEFINITION_PIPE_NAME, HttpServiceDeployer
from repro.core.events import RecordingListener
from repro.observability import default_registry
from repro.p2ps import PeerGroup
from repro.simnet import FixedLatency, Network
from repro.soap import SoapEnvelope
from repro.soap.rpc import build_rpc_request, extract_rpc_result
from repro.transport import CertificateAuthority, HttpgTransport, HttpTransport, Uri
from repro.transport.http import HttpClient, HttpRequest
from repro.uddi import UddiRegistryNode


class Echo:
    def echo(self, message: str) -> str:
        return message


GARBAGE = [
    "",
    "not xml at all",
    "<unclosed",
    "<?xml version='1.0'?><wrong-root/>",
    "<soapenv:Envelope xmlns:soapenv='http://schemas.xmlsoap.org/soap/envelope/'>"
    "</soapenv:Envelope>",  # no Body
    "\x00\x01\x02 binary-ish",
    "<a>" * 50,  # deeply unclosed
    "<!DOCTYPE html><a/>",
]


@pytest.fixture
def http_world():
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    provider.deploy(Echo(), name="Echo")
    client_node = net.add_node("attacker")
    return net, provider, HttpClient(client_node, default_timeout=2.0)


class TestHttpGarbage:
    def test_garbage_bodies_get_error_responses(self, http_world):
        net, provider, client = http_world
        for garbage in GARBAGE:
            response = client.request(
                "prov", 80, HttpRequest("POST", "/services/Echo", garbage)
            )
            assert response.status in (400, 500), garbage
        # the server is still alive and serving
        ok = client.request(
            "prov", 80,
            HttpRequest("GET", "/services/Echo.wsdl"),
        )
        assert ok.status == 200

    @pytest.mark.parametrize(
        "reference",
        [
            "&#xD800;", "&#99999999999999999999;",
            # NUL, and what int() would take but a reference may not be
            "&#0;", "&#1_0;", "&#+65;", "&# 65;", "&#x 41;", "&#x0_041;", "&#X41;",
        ],
    )
    def test_reference_to_no_character_is_a_client_fault(self, http_world, reference):
        """A surrogate used to decode, be echoed, and blow up the reply's
        UTF-8 encode straight out of ``Kernel.step``."""
        net, provider, client = http_world
        wire = build_rpc_request("urn:wspeer:Echo", "echo", {"message": "x-y"}).to_wire()
        for _ in range(3):  # parsed twice, then met by the warm decode skeleton
            ok = client.request("prov", 80, HttpRequest("POST", "/services/Echo", wire))
            assert ok.status == 200
        listener = RecordingListener()
        provider.add_listener(listener)
        response = client.request(
            "prov", 80,
            HttpRequest("POST", "/services/Echo", wire.replace("x-y", f"x{reference}y")),
        )
        assert response.status == 500
        assert SoapEnvelope.from_wire(response.body).fault().code.value == "Client"
        assert listener.kinds() == ["malformed-request"]
        # the provider keeps serving
        ok = client.request("prov", 80, HttpRequest("POST", "/services/Echo", wire))
        assert extract_rpc_result(SoapEnvelope.from_wire(ok.body)) == "x-y"

    def test_unknown_paths_still_404(self, http_world):
        net, provider, client = http_world
        response = client.request("prov", 80, HttpRequest("POST", "/evil", "x"))
        assert response.status == 404

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet=string.printable, max_size=200))
    def test_fuzzed_bodies_never_crash_the_server(self, body):
        net = Network(latency=FixedLatency(0.001))
        registry = UddiRegistryNode(net.add_node("registry"))
        provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
        provider.deploy(Echo(), name="Echo")
        client = HttpClient(net.add_node("fuzzer"), default_timeout=2.0)
        response = client.request(
            "prov", 80, HttpRequest("POST", "/services/Echo", body)
        )
        assert response.status in (200, 400, 500)


class TestGarbageIsReportedOnEveryBinding:
    """One rule: a body that is not a SOAP envelope fires
    ``malformed-request`` and bumps ``server.malformed_requests``;
    HTTP(G) answer a ``soapenv:Client`` fault, pipes drop."""

    @pytest.mark.parametrize("scheme", ["http", "httpg"])
    def test_http_bindings_answer_a_client_fault(self, scheme):
        net = Network(latency=FixedLatency(0.002))
        registry = UddiRegistryNode(net.add_node("registry"))
        provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
        attacker = net.add_node("attacker")
        if scheme == "httpg":
            ca = CertificateAuthority()
            provider.server.register_deployer(HttpServiceDeployer(
                provider.node, provider.server.container,
                transport=HttpgTransport(provider.node, ca, ca.issue("host")),
            ))
            client = HttpgTransport(attacker, ca, ca.issue("attacker"))
        else:
            client = HttpTransport(attacker)
        endpoint = provider.deploy(Echo(), name="Echo").endpoints[0].address
        assert endpoint.startswith(scheme + "://")
        listener = RecordingListener()
        provider.add_listener(listener)
        counted = default_registry().get("server.malformed_requests")
        answers = []
        for garbage in GARBAGE:
            client.send(
                Uri.parse(endpoint), garbage,
                on_response=lambda body, error: answers.append((body, error)),
            )
            net.run()
        assert len(answers) == len(GARBAGE)
        for body, error in answers:
            assert error is None  # a 500 carrying a fault, not a transport error
            fault = SoapEnvelope.from_wire(body).fault()
            assert fault.code.value == "Client"
        assert len(listener.of_kind("malformed-request")) == len(GARBAGE)
        assert (
            default_registry().get("server.malformed_requests")
            == counted + len(GARBAGE)
        )
        # nothing reached the engine
        assert listener.of_kind("request-received") == []


class TestP2psGarbage:
    @pytest.fixture
    def pipe_world(self):
        net = Network(latency=FixedLatency(0.002))
        group = PeerGroup("g")
        provider = WSPeer(net.add_node("prov"), P2psBinding(group), name="prov")
        provider.deploy(Echo(), name="Echo")
        provider.publish("Echo")
        net.run()
        consumer = WSPeer(net.add_node("cons"), P2psBinding(group), name="cons")
        handle = consumer.locate_one("Echo")
        return net, provider, consumer, handle

    def test_garbage_down_invoke_pipe_does_not_crash_provider(self, pipe_world):
        net, provider, consumer, handle = pipe_world
        from repro.core.events import RecordingListener
        from repro.core.p2psmap import pipe_from_epr

        listener = RecordingListener()
        provider.add_listener(listener)
        target = pipe_from_epr(handle.endpoints[0])
        out = consumer.peer.open_output_pipe(target)
        for garbage in GARBAGE:
            consumer.peer.send_down_pipe(out, garbage)
        net.run()  # must not raise
        assert len(listener.of_kind("malformed-request")) == len(GARBAGE)
        assert listener.of_kind("request-received") == []
        # the provider still answers real requests afterwards
        assert consumer.invoke(handle, "echo", message="alive") == "alive"

    def test_garbage_down_definition_pipe_is_reported(self, pipe_world):
        # regression: the definition pipe used to swallow garbage with a
        # bare ``except: return`` — no event, no counter
        net, provider, consumer, handle = pipe_world
        listener = RecordingListener()
        provider.add_listener(listener)
        counted = default_registry().get("server.malformed_requests")
        advert = provider.server.deployer.advert_for("Echo")
        out = consumer.peer.open_output_pipe(advert.pipe_named(DEFINITION_PIPE_NAME))
        for garbage in GARBAGE:
            consumer.peer.send_down_pipe(out, garbage)
        net.run()
        assert len(listener.of_kind("malformed-request")) == len(GARBAGE)
        assert (
            default_registry().get("server.malformed_requests")
            == counted + len(GARBAGE)
        )
        assert consumer.invoke(handle, "echo", message="alive") == "alive"

    def test_garbage_p2ps_protocol_messages_ignored(self, pipe_world):
        net, provider, consumer, handle = pipe_world
        # raw junk on the p2ps protocol port — a peer that crashed here
        # would take discovery down with it
        attacker = net.add_node("attacker")
        for garbage in GARBAGE:
            attacker.send("prov", "p2ps", garbage)
        attacker.send("prov", "p2ps", "<NotAMessage/>")  # well-formed, wrong shape
        net.run()  # must not raise
        assert consumer.invoke(handle, "echo", message="still-up") == "still-up"

    def test_soap_without_wsa_headers_is_processed_oneway(self, pipe_world):
        # a bare SOAP request with no addressing headers: dispatched but
        # no reply can be routed — the provider must not fall over
        net, provider, consumer, handle = pipe_world
        from repro.core.p2psmap import pipe_from_epr
        from repro.soap.rpc import build_rpc_request

        target = pipe_from_epr(handle.endpoints[0])
        out = consumer.peer.open_output_pipe(target)
        naked = build_rpc_request(handle.namespace, "echo", {"message": "x"})
        consumer.peer.send_down_pipe(out, naked.to_wire())
        net.run()
        assert consumer.invoke(handle, "echo", message="fine") == "fine"
