"""The artifact-cache subsystem: counters, LRU, invalidation, and the
derived caches built on it (URIs, WSDL, stub specs and classes,
envelope templates)."""

import pytest

from repro.caching import (
    ArtifactCache,
    cache_stats,
    clear_all_caches,
    reset_cache_stats,
)
from repro.core.invocation import _pipe_target
from repro.soap.encoding import StructRegistry
from repro.soap.rpc import build_rpc_request
from repro.soap.stubs import DynamicStubBuilder, OperationSpec, StubSpec
from repro.transport.uri import Uri, UriError, parse_uri_cached
from repro.wsa.epr import EndpointReference, WsaError
from repro.wsa.headers import MessageAddressingProperties, request_templates
from repro.wsa.p2psuri import P2psAddress, parse_p2ps_uri
from repro.wsdl.parser import parse_wsdl, parse_wsdl_cached
from repro.wsdl.stubspec import stub_spec_cached, to_stub_spec
from repro.xmlkit import Element, QName, ns


@pytest.fixture(autouse=True)
def _clean_caches():
    clear_all_caches()
    reset_cache_stats()
    yield
    clear_all_caches()


# ----------------------------------------------------------------------
# ArtifactCache core behaviour
# ----------------------------------------------------------------------
class TestArtifactCache:
    def test_hit_and_miss_counters(self):
        cache = ArtifactCache("t-counters", max_entries=4)
        assert cache.get("k") is None
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.stats()["hit_rate"] == 0.5

    def test_lru_eviction_order(self):
        cache = ArtifactCache("t-lru", max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # freshen a; b is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_invalidate_counts_and_removes(self):
        cache = ArtifactCache("t-invalidate", max_entries=4)
        cache.put("k", 1)
        assert cache.invalidate("k") is True
        assert cache.invalidate("k") is False
        assert cache.get("k") is None
        assert cache.invalidations == 1

    def test_clear_drops_everything(self):
        cache = ArtifactCache("t-clear", max_entries=8)
        for i in range(5):
            cache.put(i, i)
        assert cache.clear() == 5
        assert len(cache) == 0
        assert cache.invalidations == 5

    def test_registry_reports_all_caches(self):
        ArtifactCache("t-registry", max_entries=4).put("k", 1)
        stats = cache_stats()
        assert "t-registry" in stats
        assert stats["t-registry"]["size"] == 1
        assert set(stats["t-registry"]) >= {"hits", "misses", "hit_rate", "evictions"}

    def test_reset_cache_stats_keeps_entries(self):
        cache = ArtifactCache("t-reset", max_entries=4)
        cache.put("k", 1)
        cache.get("k")
        reset_cache_stats()
        assert cache.hits == 0
        assert cache.get("k") == 1


# ----------------------------------------------------------------------
# URI cache
# ----------------------------------------------------------------------
class TestUriCache:
    def test_same_instance_on_repeat(self):
        a = parse_uri_cached("http://node-1:8080/svc")
        b = parse_uri_cached("http://node-1:8080/svc")
        assert a is b
        assert a == Uri.parse("http://node-1:8080/svc")

    def test_errors_not_cached(self):
        for _ in range(2):
            with pytest.raises(UriError):
                parse_uri_cached("not a uri")


# ----------------------------------------------------------------------
# P2PS address caches: a ReplyTo address and a call's target pipe
# ----------------------------------------------------------------------
def pipe_epr(address="p2ps://peer-p/Echo", pipe_id="pipe-1", first="PipeId"):
    return EndpointReference.from_texts(address, tuple(
        ((ns.P2PS, local, "p2ps"), (("p2ps", ns.P2PS),))
        for local in (first, "PipeName", "PipeType")
    ), [pipe_id, "echo", "input"])


class TestP2psCaches:
    def test_address_same_instance_on_repeat(self):
        a = parse_p2ps_uri("p2ps://peer-c")
        assert parse_p2ps_uri("p2ps://peer-c") is a
        assert a == P2psAddress("peer-c")
        assert cache_stats()["p2ps-uris"]["hits"] == 1

    @pytest.mark.parametrize("text", ["garbage", "http://h/x", "p2ps://p/a/b#c"])
    def test_bad_address_raises_every_time(self, text):
        for _ in range(3):
            with pytest.raises(WsaError):
                parse_p2ps_uri(text)
        assert cache_stats()["p2ps-uris"]["size"] == 0

    def test_target_mapped_once_per_texts(self):
        first = _pipe_target(pipe_epr())
        assert _pipe_target(pipe_epr()) is first
        advert, action = first
        assert (advert.pipe_id, advert.name, advert.peer_id) == ("pipe-1", "echo", "peer-p")
        assert action == "p2ps://peer-p/Echo#echo"
        assert _pipe_target(pipe_epr(pipe_id="pipe-2"))[0].pipe_id == "pipe-2"
        stats = cache_stats()["p2ps-targets"]
        assert (stats["hits"], stats["misses"], stats["size"]) == (1, 2, 2)

    def test_target_key_holds_the_property_names(self):
        _pipe_target(pipe_epr())
        # same address and texts, but no PipeId: not the cached pipe
        for _ in range(2):
            with pytest.raises(WsaError):
                _pipe_target(pipe_epr(first="PipeKey"))
        assert cache_stats()["p2ps-targets"]["size"] == 1

    def test_element_backed_epr_shares_the_entry(self):
        epr = pipe_epr()
        grown = EndpointReference(epr.address, epr.reference_properties)
        assert _pipe_target(grown) is _pipe_target(pipe_epr())

    def test_clear_all_caches_empties_both(self):
        parse_p2ps_uri("p2ps://peer-c")
        _pipe_target(pipe_epr())
        clear_all_caches()
        assert cache_stats()["p2ps-uris"]["size"] == 0
        assert cache_stats()["p2ps-targets"]["size"] == 0


# ----------------------------------------------------------------------
# WSDL cache
# ----------------------------------------------------------------------
WSDL = """<?xml version="1.0"?>
<definitions xmlns="http://schemas.xmlsoap.org/wsdl/"
             xmlns:soap="http://schemas.xmlsoap.org/wsdl/soap/"
             name="Echo" targetNamespace="urn:echo">
  <message name="echoRequest"><part name="text" type="xsd:string"/></message>
  <message name="echoResponse"><part name="return" type="xsd:string"/></message>
  <portType name="EchoPortType">
    <operation name="echo">
      <input message="tns:echoRequest"/>
      <output message="tns:echoResponse"/>
    </operation>
  </portType>
  <binding name="EchoBinding" type="tns:EchoPortType">
    <soap:binding transport="http://schemas.xmlsoap.org/soap/http" style="rpc"/>
  </binding>
  <service name="EchoService">
    <port name="EchoPort" binding="tns:EchoBinding">
      <soap:address location="http://node-1:8080/svc/Echo"/>
    </port>
  </service>
</definitions>
"""


class TestWsdlCache:
    def test_identical_text_shares_definition(self):
        a = parse_wsdl_cached(WSDL)
        b = parse_wsdl_cached(WSDL)
        assert a is b
        assert a.target_namespace == "urn:echo"

    def test_equal_texts_share_a_definition_and_one_character_does_not(self):
        first, second = "".join(list(WSDL)), "".join(list(WSDL))
        assert first is not second and first == second
        assert parse_wsdl_cached(first) is parse_wsdl_cached(second)
        moved = WSDL.replace("node-1", "node-2")
        assert sum(a != b for a, b in zip(moved, WSDL)) == 1
        assert parse_wsdl_cached(moved) is not parse_wsdl_cached(first)
        assert cache_stats()["wsdl-definitions"]["size"] == 2

    def test_different_text_distinct_definitions(self):
        a = parse_wsdl_cached(WSDL)
        b = parse_wsdl_cached(WSDL.replace("urn:echo", "urn:other"))
        assert a is not b
        assert b.target_namespace == "urn:other"

    def test_matches_uncached_parser(self):
        cached = parse_wsdl_cached(WSDL)
        fresh = parse_wsdl(WSDL)
        assert cached.target_namespace == fresh.target_namespace
        assert sorted(cached.messages) == sorted(fresh.messages)
        assert sorted(cached.services) == sorted(fresh.services)


# ----------------------------------------------------------------------
# stub spec / class caches
# ----------------------------------------------------------------------
class TestStubCaches:
    def test_spec_cached_per_definition(self):
        definition = parse_wsdl(WSDL)
        a = stub_spec_cached(definition)
        b = stub_spec_cached(definition)
        assert a is b
        assert a == to_stub_spec(definition)

    def test_spec_guard_detects_new_definition(self):
        # two equal-content but distinct definitions must not share a
        # stale entry even if id() is recycled; at minimum, distinct
        # live objects get their own entries
        d1 = parse_wsdl(WSDL)
        d2 = parse_wsdl(WSDL)
        s1 = stub_spec_cached(d1)
        s2 = stub_spec_cached(d2)
        assert s1 == s2  # same shape

    def test_stub_class_shared_for_equal_specs(self):
        spec_a = StubSpec("Echo", (OperationSpec("echo", ("text",)),))
        spec_b = StubSpec("Echo", (OperationSpec("echo", ("text",)),))
        builder = DynamicStubBuilder()
        assert builder.build_class(spec_a) is builder.build_class(spec_b)

    def test_stub_class_still_validates_when_disabled(self):
        bad = StubSpec("S", (OperationSpec("not a name", ()),))
        clear_all_caches()  # a cold cache: the class really is built
        with pytest.raises(ValueError):
            DynamicStubBuilder().build_class(bad)

    def test_stub_instances_work_from_cached_class(self):
        spec = StubSpec("Echo", (OperationSpec("echo", ("text",)),))
        calls = []
        stub = DynamicStubBuilder().build(spec, lambda op, a: calls.append((op, a)))
        stub.echo("hi")
        assert calls == [("echo", {"text": "hi"})]


# ----------------------------------------------------------------------
# envelope templates
# ----------------------------------------------------------------------
def _p2ps_prop(local: str, text: str) -> Element:
    return Element(QName(ns.P2PS, local, "p2ps"), text=text, nsdecls={"p2ps": ns.P2PS})


def _slow_wire(maps: MessageAddressingProperties, namespace, operation, args, target):
    envelope = build_rpc_request(namespace, operation, args, StructRegistry())
    maps.apply_to(envelope, target=target)
    return envelope.to_wire()


class TestEnvelopeTemplates:
    def test_http_shape_matches_slow_path(self):
        target = EndpointReference("http://node-1:8080/svc/Echo")
        args = {"text": "hello & <world>", "n": 41, "f": 2.5, "b": False, "z": None}
        for _ in range(2):  # second call renders from the cached template
            maps = MessageAddressingProperties.for_request(target, "echo")
            fast = request_templates.render(maps, "urn:echo", "echo", args, target)
            maps2 = MessageAddressingProperties(
                to=maps.to, action=maps.action, message_id=maps.message_id
            )
            assert fast == _slow_wire(maps2, "urn:echo", "echo", args, target)
        stats = cache_stats()["envelope-templates"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_p2ps_shape_matches_slow_path(self):
        target = EndpointReference(
            "p2ps://peer-1/Echo",
            [_p2ps_prop("PipeId", "pipe-7"), _p2ps_prop("PipeName", "echo")],
        )
        for i in range(3):
            reply = EndpointReference(
                "p2ps://peer-2",
                [_p2ps_prop("PipeId", f"pipe-r{i}"), _p2ps_prop("PipeName", "reply-echo")],
            )
            maps = MessageAddressingProperties(
                to=target.address,
                action="p2ps://peer-1/Echo#echo",
                reply_to=reply,
                message_id=f"urn:uuid:m-{i}",
            )
            fast = request_templates.render(
                maps, "urn:echo", "echo", {"text": f"v{i}"}, target
            )
            assert fast == _slow_wire(maps, "urn:echo", "echo", {"text": f"v{i}"}, target)

    def test_non_primitive_args_fall_back(self):
        target = EndpointReference("http://node-1/svc")
        maps = MessageAddressingProperties.for_request(target, "op")
        assert (
            request_templates.render(maps, "urn:x", "op", {"items": [1, 2]}, target)
            is None
        )

    def test_empty_string_value_falls_back(self):
        # '' self-closes on the slow path, so the template must decline
        target = EndpointReference("http://node-1/svc")
        maps = MessageAddressingProperties.for_request(target, "op")
        assert request_templates.render(maps, "urn:x", "op", {"text": ""}, target) is None

    def test_invalidate_all_forces_rebuild(self):
        target = EndpointReference("http://node-1/svc")
        maps = MessageAddressingProperties.for_request(target, "op")
        assert request_templates.render(maps, "urn:x", "op", {"n": 1}, target)
        assert request_templates.invalidate_all() >= 1
        stats_before = cache_stats()["envelope-templates"]
        assert request_templates.render(maps, "urn:x", "op", {"n": 1}, target)
        stats_after = cache_stats()["envelope-templates"]
        assert stats_after["misses"] == stats_before["misses"] + 1


# ----------------------------------------------------------------------
# end-to-end: cached wire equals slow wire as parsed envelopes too
# ----------------------------------------------------------------------
def test_rendered_wire_reparses_identically():
    from repro.soap.envelope import SoapEnvelope

    target = EndpointReference("http://node-9:8080/svc/Calc")
    maps = MessageAddressingProperties.for_request(target, "add")
    wire = request_templates.render(maps, "urn:calc", "add", {"a": 2, "b": 3}, target)
    envelope = SoapEnvelope.from_wire(wire)
    extracted = MessageAddressingProperties.extract_from(envelope)
    assert extracted.to == target.address
    assert extracted.action == f"{target.address}#add"
    assert extracted.message_id == maps.message_id
    assert envelope.body_content.name == QName("urn:calc", "add")


# ----------------------------------------------------------------------
# per-class tables: a new name of a known class is a slot, not an entry
# ----------------------------------------------------------------------
PER_CLASS = ("operation-signatures", "wsdl-classes", "http-head-slots", "stub-specs", "stub-classes")


class _Echo:
    def echo(self, message: str) -> str:
        return message


def _lifecycles(names) -> None:
    """deploy → publish → locate → stub → call → withdraw → undeploy of
    one class under each of *names*."""
    from repro.core import WSPeer
    from repro.core.binding import StandardBinding
    from repro.simnet import FixedLatency, Network
    from repro.uddi import UddiRegistryNode

    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    for name in names:
        deployed = provider.deploy(_Echo(), name=name)
        provider.publish(name)
        stub = consumer.create_stub(consumer.locate_one(name))
        assert stub.echo(message=name) == name
        provider.server.publisher.withdraw(deployed)
        provider.undeploy(name)


def _module_tables() -> dict[str, int]:
    import sys

    return {
        f"{module_name}.{attr}": len(value)
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro")
        for attr, value in vars(module).items()
        if isinstance(value, (dict, set, list))
    }


class TestPerClassCaches:
    def test_every_per_class_table_is_a_bounded_registered_cache(self):
        _lifecycles([f"Svc{n}" for n in range(3)])
        stats = cache_stats()
        for name in PER_CLASS:
            assert 0 < stats[name]["size"] <= stats[name]["max_entries"], name
            assert stats[name]["hits"] > 0, name  # the second name hits
        clear_all_caches()
        assert all(cache_stats()[name]["size"] == 0 for name in PER_CLASS)

    def test_no_module_level_table_grows_with_names(self):
        from repro.xmlkit import names

        _lifecycles([f"Warm{n}" for n in range(8)])
        before = _module_tables()
        _lifecycles([f"Svc{n}" for n in range(80)])
        after = _module_tables()
        grown = {name for name, size in after.items() if size > before.get(name, 0)}
        # the QName intern table takes each service's RPC wrapper names
        # (their namespace names the service); past its cap a new name
        # pushes out the oldest: it is bounded, not a registered cache
        assert grown <= {"repro.xmlkit.names._interned"}
        assert len(names._interned) <= names._INTERN_MAX


# ----------------------------------------------------------------------
# one soft-state table: no module keeps an eviction loop of its own
# ----------------------------------------------------------------------
#: the table itself, and the span recorder's root ring (its own
#: preallocated ring is planned)
OWN_EVICTION_ALLOWED = {"caching.py", "observability/spans.py"}


def test_no_module_writes_its_own_eviction_loop():
    import re
    from pathlib import Path

    import repro

    src = Path(repro.__file__).parent
    pattern = re.compile(r"\bOrderedDict\b|\.popitem\(|\.move_to_end\(")
    offenders = {
        str(path.relative_to(src)): sorted(set(pattern.findall(path.read_text())))
        for path in sorted(src.rglob("*.py"))
        if str(path.relative_to(src)) not in OWN_EVICTION_ALLOWED
    }
    assert {name: found for name, found in offenders.items() if found} == {}
