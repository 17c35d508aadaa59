"""Tests for authenticated (HTTPG) hosting and invocation end-to-end."""

import pytest

from repro.core import WSPeer
from repro.core.binding import StandardBinding
from repro.core.deployer import HttpServiceDeployer
from repro.core.invocation import HttpInvocation
from repro.simnet import FixedLatency, Network
from repro.transport import CertificateAuthority, HttpgTransport
from repro.transport.httpg import AuthenticationError
from repro.uddi import UddiRegistryNode
from tests.core.conftest import Echo


@pytest.fixture
def world():
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    ca = CertificateAuthority()
    return net, registry, ca


def make_secure_provider(net, registry, ca):
    provider = WSPeer(net.add_node("secure-prov"), StandardBinding(registry.endpoint))
    server_transport = HttpgTransport(
        provider.node, ca, ca.issue("secure-prov-host")
    )
    deployer = HttpServiceDeployer(
        provider.node, provider.server.container, transport=server_transport
    )
    provider.server.register_deployer(deployer)
    provider.deploy(Echo(), name="SecureEcho")
    return provider


def make_secure_consumer(net, registry, ca, credential=None):
    consumer = WSPeer(net.add_node("secure-cons"), StandardBinding(registry.endpoint))
    transport = HttpgTransport(
        consumer.node, ca, credential or ca.issue("secure-cons-user")
    )
    consumer.client.register_invocation(
        HttpInvocation(consumer.node, extra_transports=[transport])
    )
    return consumer


class TestHttpgHosting:
    def test_authenticated_invoke(self, world):
        net, registry, ca = world
        provider = make_secure_provider(net, registry, ca)
        consumer = make_secure_consumer(net, registry, ca)
        handle = provider.local_handle("SecureEcho")
        assert handle.endpoints[0].address.startswith("httpg://")
        assert consumer.invoke(handle, "echo", message="secret") == "secret"

    def test_unauthenticated_client_refused(self, world):
        net, registry, ca = world
        provider = make_secure_provider(net, registry, ca)
        # a consumer with only plain HTTP cannot speak to an httpg port
        consumer = WSPeer(net.add_node("plain"), StandardBinding(registry.endpoint))
        handle = provider.local_handle("SecureEcho")
        from repro.core import InvocationError

        with pytest.raises(InvocationError):
            consumer.invoke(handle, "echo", {"message": "x"}, timeout=1.0)

    def test_foreign_ca_refused(self, world):
        net, registry, ca = world
        provider = make_secure_provider(net, registry, ca)
        other_ca = CertificateAuthority(secret="other")
        consumer = make_secure_consumer(
            net, registry, ca, credential=other_ca.issue("intruder")
        )
        handle = provider.local_handle("SecureEcho")
        with pytest.raises(AuthenticationError):
            consumer.invoke(handle, "echo", {"message": "x"}, timeout=2.0)

    def test_revoked_credential_refused_mid_session(self, world):
        net, registry, ca = world
        provider = make_secure_provider(net, registry, ca)
        credential = ca.issue("user")
        consumer = make_secure_consumer(net, registry, ca, credential=credential)
        handle = provider.local_handle("SecureEcho")
        assert consumer.invoke(handle, "echo", message="ok") == "ok"
        ca.revoke(credential)
        with pytest.raises(AuthenticationError):
            consumer.invoke(handle, "echo", {"message": "x"}, timeout=2.0)

    def test_wsdl_served_behind_auth(self, world):
        net, registry, ca = world
        provider = make_secure_provider(net, registry, ca)
        consumer_transport = HttpgTransport(
            net.add_node("fetcher"), ca, ca.issue("fetcher-user")
        )
        from repro.transport.uri import Uri

        got = []
        consumer_transport.send(
            Uri.parse("httpg://secure-prov:8443/services/SecureEcho.wsdl"),
            "",
            on_response=lambda body, err: got.append((body, err)),
        )
        net.run()
        body, err = got[0]
        assert err is None
        from repro.wsdl import parse_wsdl

        definition = parse_wsdl(body)
        assert "SecureEcho" in definition.services

    def test_undeploy_closes_httpg_endpoint(self, world):
        net, registry, ca = world
        provider = make_secure_provider(net, registry, ca)
        consumer = make_secure_consumer(net, registry, ca)
        handle = provider.local_handle("SecureEcho")
        provider.undeploy("SecureEcho")
        with pytest.raises(Exception):
            consumer.invoke(handle, "echo", {"message": "x"}, timeout=1.0)

    def test_fault_travels_authenticated(self, world):
        net, registry, ca = world
        provider = WSPeer(net.add_node("secure-prov"), StandardBinding(registry.endpoint))
        transport = HttpgTransport(provider.node, ca, ca.issue("host"))
        deployer = HttpServiceDeployer(
            provider.node, provider.server.container, transport=transport
        )
        provider.server.register_deployer(deployer)

        class Bad:
            def boom(self) -> str:
                raise RuntimeError("secure failure")

        provider.deploy(Bad(), name="Bad")
        consumer = make_secure_consumer(net, registry, ca)
        from repro.soap import SoapFault

        with pytest.raises(SoapFault, match="secure failure"):
            consumer.invoke(provider.local_handle("Bad"), "boom")
