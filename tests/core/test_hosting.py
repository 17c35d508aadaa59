"""Tests for the lightweight container: deploy, stateful objects,
interception, per-operation targets, server events."""

import pytest

from repro.core import DeploymentError, LightweightContainer
from repro.core.events import EventSource, RecordingListener
from repro.soap import ServiceObject, SoapEnvelope
from repro.soap.rpc import build_rpc_request, extract_rpc_result
from tests.core.conftest import Broken, Counter, Echo

NS = "urn:wspeer:test"


@pytest.fixture
def container():
    root = EventSource("peer")
    listener = RecordingListener()
    root.add_listener(listener)
    container = LightweightContainer(parent=root)
    return container, listener


def rpc(container, service, op, **args):
    request = build_rpc_request(f"urn:wspeer:{service}", op, args)
    request = SoapEnvelope.from_wire(request.to_wire())
    response = container.process_request(service, request)
    return extract_rpc_result(SoapEnvelope.from_wire(response.to_wire()))


class TestDeploy:
    def test_deploy_plain_object(self, container):
        c, _ = container
        deployed = c.deploy(Echo())
        assert deployed.name == "Echo"  # defaults to class name
        assert deployed.service.operation_names == ["echo", "shout"]

    def test_deploy_with_name_and_namespace(self, container):
        c, _ = container
        deployed = c.deploy(Echo(), name="MyEcho", namespace="urn:custom")
        assert deployed.name == "MyEcho"
        assert deployed.namespace == "urn:custom"

    def test_deploy_include_filter(self, container):
        c, _ = container
        deployed = c.deploy(Echo(), include=["echo"])
        assert deployed.service.operation_names == ["echo"]

    def test_duplicate_name_rejected(self, container):
        c, _ = container
        c.deploy(Echo())
        with pytest.raises(DeploymentError):
            c.deploy(Echo())

    def test_no_operations_rejected(self, container):
        c, _ = container

        class Empty:
            pass

        with pytest.raises(DeploymentError):
            c.deploy(Empty())

    def test_deploy_fires_event(self, container):
        c, listener = container
        c.deploy(Echo())
        events = listener.of_kind("deployed")
        assert len(events) == 1
        assert events[0].detail["service"] == "Echo"
        assert events[0].detail["operations"] == ["echo", "shout"]

    def test_undeploy(self, container):
        c, listener = container
        c.deploy(Echo())
        c.undeploy("Echo")
        assert c.get("Echo") is None
        assert listener.of_kind("undeployed")

    def test_undeploy_missing(self, container):
        c, _ = container
        with pytest.raises(DeploymentError):
            c.undeploy("Ghost")

    def test_wsdl_reflects_endpoints(self, container):
        c, _ = container
        from repro.wsa import EndpointReference

        deployed = c.deploy(Echo())
        deployed.add_endpoint(EndpointReference("http://n/services/Echo"))
        wsdl = deployed.wsdl()
        assert wsdl.services["Echo"].ports[0].location == "http://n/services/Echo"


class TestStatefulServices:
    def test_state_persists_across_requests(self, container):
        c, _ = container
        c.deploy(Counter())
        assert rpc(c, "Counter", "increment", by=5) == 5
        assert rpc(c, "Counter", "increment", by=3) == 8
        assert rpc(c, "Counter", "read") == 8

    def test_service_is_interface_to_live_object(self, container):
        c, _ = container
        counter = Counter()
        c.deploy(counter)
        rpc(c, "Counter", "increment", by=2)
        assert counter.value == 2  # the app's own object changed
        counter.value = 100  # the app mutates it directly
        assert rpc(c, "Counter", "read") == 100

    def test_operations_map_to_different_objects(self, container):
        # §III: each operation can target a different stateful object
        c, _ = container
        service = ServiceObject("Mixed", NS)
        first, second = Counter(), Counter()
        service.map_operation("bumpA", first, "increment")
        service.map_operation("bumpB", second, "increment")
        c.deploy(service)
        rpc(c, "Mixed", "bumpA", by=10)
        rpc(c, "Mixed", "bumpB", by=1)
        assert first.value == 10
        assert second.value == 1


class TestRequestProcessing:
    def test_fault_on_unknown_service(self, container):
        c, _ = container
        request = build_rpc_request(NS, "x", {})
        response = c.process_request("Ghost", request)
        assert response.is_fault

    def test_service_exception_becomes_fault(self, container):
        c, _ = container
        c.deploy(Broken())
        from repro.soap import SoapFault

        with pytest.raises(SoapFault, match="deliberate failure"):
            rpc(c, "Broken", "boom")

    def test_server_events_fired_either_side(self, container):
        c, listener = container
        c.deploy(Echo())
        rpc(c, "Echo", "echo", message="x")
        kinds = listener.kinds()
        assert "request-received" in kinds
        assert "response-sent" in kinds
        assert kinds.index("request-received") < kinds.index("response-sent")

    def test_request_event_carries_envelope(self, container):
        c, listener = container
        c.deploy(Echo())
        rpc(c, "Echo", "echo", message="x")
        event = listener.of_kind("request-received")[0]
        assert event.detail["operation"] == "echo"
        assert isinstance(event.detail["envelope"], SoapEnvelope)

    def test_requests_processed_counter(self, container):
        c, _ = container
        deployed = c.deploy(Echo())
        rpc(c, "Echo", "echo", message="x")
        rpc(c, "Echo", "shout", message="x")
        assert deployed.requests_processed == 2


class TestInterception:
    def test_interceptor_answers_directly(self, container):
        # "the Server gives the listening application a chance to handle
        #  the request directly"
        c, listener = container
        c.deploy(Echo())
        canned = build_rpc_request(NS, "echoResponse", {"return": "intercepted"})

        def interceptor(service, request):
            return canned

        c.interceptor = interceptor
        deployed = c.get("Echo")
        response = c.process_request("Echo", build_rpc_request(NS, "echo", {"message": "x"}))
        assert response is canned
        assert deployed.requests_processed == 0  # engine bypassed
        assert listener.of_kind("request-intercepted")

    def test_interceptor_can_decline(self, container):
        c, _ = container
        c.deploy(Echo())
        c.interceptor = lambda service, request: None
        result = rpc(c, "Echo", "echo", message="hi")
        assert result == "hi"

    def test_interception_off_dispatches_engine(self, container):
        # "this option can be turned off, in which case the Server
        #  invokes the underlying messaging engine directly"
        c, _ = container
        c.deploy(Echo())
        c.interceptor = None
        assert rpc(c, "Echo", "shout", message="hi") == "HI"

    def test_interceptor_sees_service_name(self, container):
        c, _ = container
        c.deploy(Echo())
        seen = []
        c.interceptor = lambda service, request: seen.append(service) or None
        rpc(c, "Echo", "echo", message="x")
        assert seen == ["Echo"]
