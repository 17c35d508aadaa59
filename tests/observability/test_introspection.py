"""The dogfooded IntrospectionService, invoked over both bindings.

GetMetrics / GetTrace / ListServices must be reachable through the
ordinary deploy → locate → invoke machinery — hosting the tracer's
data over the traced stack is the point.
"""

import json
from types import SimpleNamespace

import pytest

from repro.observability import (
    INTROSPECTION_NS,
    IntrospectionService,
    MetricsRegistry,
    SpanTracer,
)
from repro.observability.introspection import OPERATIONS, host_introspection


class TestDirect:
    """The live object, before any wire involvement."""

    def test_get_metrics_renders_registry(self):
        reg = MetricsRegistry()
        reg.inc("a.b", 3)
        service = IntrospectionService(SimpleNamespace(tracer=SpanTracer(metrics=reg)))
        assert "counter a.b 3" in service.GetMetrics()

    def test_get_trace_without_tracer_reports_error(self):
        service = IntrospectionService()
        payload = json.loads(service.GetTrace("urn:uuid:x"))
        assert payload["error"]["code"] == "no-tracer"
        assert payload["error"]["message"]
        assert payload["message_id"] == "urn:uuid:x"

    def test_get_trace_unknown_mid_reports_error(self):
        tracer = SpanTracer(metrics=MetricsRegistry())
        service = IntrospectionService(SimpleNamespace(tracer=tracer))
        payload = json.loads(service.GetTrace("urn:uuid:gone"))
        assert payload["error"]["code"] == "trace-not-found"
        assert payload["error"]["message"]
        assert payload["message_id"] == "urn:uuid:gone"

    def test_list_services_without_peer_is_empty(self):
        assert json.loads(IntrospectionService().ListServices()) == {"services": []}


class TestOverHttp:
    def test_round_trip_all_operations(self, http_world, tracer):
        consumer, provider, handle = http_world
        consumer.invoke(handle, "echo", {"message": "traced"})
        traced_mid = tracer.message_ids[-1]

        deployed = host_introspection(provider)
        assert deployed.namespace == INTROSPECTION_NS
        provider.publish("Introspection")
        intro = consumer.locate_one("Introspection")

        listing = json.loads(consumer.invoke(intro, "ListServices"))
        assert listing["peer"] == "prov"
        assert "Echo" in listing["services"]
        assert "Introspection" in listing["services"]

        metrics_text = consumer.invoke(intro, "GetMetrics")
        assert metrics_text.startswith("# metrics snapshot")
        assert "counter events.request-sent" in metrics_text

        tree = json.loads(
            consumer.invoke(intro, "GetTrace", {"message_id": traced_mid})
        )
        assert tree["message_id"] == traced_mid
        assert tree["status"] == "ok"
        kinds = {c["kind"] for c in tree["children"]}
        assert kinds == {"attempt", "server"}

    def test_fetching_a_trace_is_itself_traced(self, http_world, tracer):
        """The introspection call travels the instrumented stack, so it
        appears in the very store it queries."""
        consumer, provider, handle = http_world
        consumer.invoke(handle, "echo", {"message": "x"})
        host_introspection(provider)
        provider.publish("Introspection")
        intro = consumer.locate_one("Introspection")
        before = len(tracer)
        consumer.invoke(intro, "GetMetrics")
        assert len(tracer) == before + 1
        root = tracer.trace(tracer.message_ids[-1])
        assert root.name == "Introspection.GetMetrics"
        assert root.status == "ok"


class TestInstallOrder:
    def test_a_tracer_installed_after_hosting_is_served(self, net, registry_node):
        """Hosting first, tracing second: the service reads the peer's
        tracer on each call, as it reads the flight recorder."""
        from repro.core import WSPeer
        from repro.core.binding import StandardBinding
        from repro.observability.flight import FlightRecorder
        from repro.observability.tracecontext import set_propagation

        from .conftest import Echo

        provider = WSPeer(net.add_node("prov"), StandardBinding(registry_node.endpoint))
        provider.deploy(Echo(), name="Echo")
        consumer = WSPeer(net.add_node("cons"), StandardBinding(registry_node.endpoint))
        host_introspection(provider)
        tracer = SpanTracer(metrics=MetricsRegistry()).install(consumer, provider)
        FlightRecorder().install(provider)
        set_propagation(True)
        consumer.invoke(provider.local_handle("Echo"), "echo", {"message": "late"})
        traced_mid, trace_id = tracer.message_ids[-1], tracer.trace_ids()[-1]
        tracer.metrics.inc("late.tracer.marker", 7)

        provider.publish("Introspection")
        intro = consumer.locate_one("Introspection")
        tree = json.loads(consumer.invoke(intro, "GetTrace", {"message_id": traced_mid}))
        assert tree["message_id"] == traced_mid and tree["status"] == "ok"
        stitched = json.loads(consumer.invoke(intro, "GetDistributedTrace", {"trace_id": trace_id}))
        assert "error" not in stitched and stitched["invocations"]
        assert "error" not in json.loads(consumer.invoke(intro, "GetFlightRecord"))
        # the late tracer's private registry, not the process-wide one
        assert "counter late.tracer.marker 7" in consumer.invoke(intro, "GetMetrics")


class TestOverP2ps:
    def test_round_trip_all_operations(self, p2ps_world, tracer, net):
        consumer, provider, handle = p2ps_world
        consumer.invoke(handle, "echo", {"message": "traced"})
        traced_mid = tracer.message_ids[-1]

        host_introspection(provider)
        provider.publish("Introspection")
        net.run()  # let the pipe adverts settle
        intro = consumer.locate_one("Introspection")

        listing = json.loads(consumer.invoke(intro, "ListServices"))
        assert listing["peer"] == "pprov"
        assert set(listing["services"]) == {"Echo", "Introspection"}

        assert consumer.invoke(intro, "GetMetrics").startswith("# metrics snapshot")

        tree = json.loads(
            consumer.invoke(intro, "GetTrace", {"message_id": traced_mid})
        )
        assert tree["message_id"] == traced_mid
        assert tree["status"] == "ok"

    def test_only_declared_operations_exposed(self, p2ps_world, tracer, net):
        consumer, provider, handle = p2ps_world
        deployed = host_introspection(provider)
        assert sorted(deployed.service.operation_names) == sorted(OPERATIONS)
        provider.publish("Introspection")
        net.run()
        intro = consumer.locate_one("Introspection")
        from repro.core import InvocationError

        # underscored helpers get no operation pipe at all
        with pytest.raises(InvocationError, match="no p2ps pipe"):
            consumer.invoke(intro, "_registry")
