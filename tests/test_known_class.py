"""A new name of a known class builds nothing.

Deploying, describing, publishing, locating and binding a service do
work that depends only on the service's *class* — its operations'
functions, the struct types it declares, its transport — and work that
depends on its *name*.  The first kind is done once per class and kept
in bounded caches; the name is a slot.  Two properties hold that up:

- **one build per class** — over more names of one class than any cache
  holds, only the first name introspects a signature, generates a WSDL
  model, derives a stub spec, builds a stub class or runs the strict
  HTTP head grammar, and every call still answers correctly;
- **no stale key** — whatever is changed on a live instance or its class
  between deploys, the cached path gives the operation names,
  signatures, WSDL bytes and stub methods the uncached derivation gives.
"""

import dataclasses
import functools
import inspect

import pytest

import repro.core.hosting as hosting
import repro.transport.http as http
import repro.wsdl.generator as generator
import repro.wsdl.stubspec as stubspec
from repro.caching import cache_stats, clear_all_caches
from repro.core import WSPeer
from repro.core.binding import StandardBinding
from repro.core.hosting import LightweightContainer
from repro.simnet import FixedLatency, Network
from repro.soap.encoding import StructRegistry
from repro.soap.stubs import DynamicStubBuilder
from repro.uddi import UddiRegistryNode
from repro.wsa.epr import EndpointReference
from repro.wsdl.parser import parse_wsdl, parse_wsdl_element
from repro.xmlkit import parse, serialize

#: more names than the largest cache on the path holds (``uris``: 512)
NAMES = 600


class Echo:
    """The one class every name is deployed from."""

    def echo(self, message: str) -> str:
        """Answer with the message."""
        return message

    def twice(self, text: str, times: int = 2) -> str:
        return text * times


def test_a_known_class_costs_one_build(monkeypatch):
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    clear_all_caches()
    builds = {}

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            builds[name] = builds.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(inspect, "signature")
    spy(generator, "generate_wsdl")
    spy(hosting, "generate_wsdl")
    spy(stubspec, "to_stub_spec")
    spy(DynamicStubBuilder, "_build_class")
    spy(http, "_parse_strict")

    def lifecycle(n: int) -> None:
        name = f"Echo{n:03d}"
        deployed = provider.deploy(Echo(), name=name)
        provider.publish(name)
        handle = consumer.locate_one(name)
        stub = consumer.create_stub(handle)
        assert type(stub).__name__ == f"{name}Stub"
        assert stub.echo(message=f"hello {name}") == f"hello {name}"
        assert stub.twice(name, times=3) == name * 3
        provider.server.publisher.withdraw(deployed)
        provider.undeploy(name)

    lifecycle(0)
    assert builds  # the first name does build
    builds.clear()
    for n in range(1, NAMES):
        lifecycle(n)
    assert builds == {}
    assert cache_stats()["uris"]["evictions"] > 0  # past every cap


# ----------------------------------------------------------------------
# no stale key: the cached path against the uncached derivation
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Point:
    x: int
    y: int


def standalone(message: str, loud: bool = False) -> str:
    return message.upper() if loud else message


def derive(instance, registry: StructRegistry, cached: bool) -> tuple:
    """Operation names and signatures, WSDL bytes and stub methods of
    *instance* deployed as ``Probe``: off the caches, or with every cache
    emptied first and by the element paths."""
    if not cached:
        clear_all_caches()
    deployed = LightweightContainer().deploy(instance, name="Probe", registry=registry)
    deployed.add_endpoint(EndpointReference("http://h:80/services/Probe"), port_name="ProbeHttpPort")
    operations = {
        name: str(operation.signature) for name, operation in deployed.service.operations.items()
    }
    if cached:
        wire = deployed.wsdl_wire()
        spec = stubspec.stub_spec_cached(parse_wsdl(wire))
    else:
        wire = serialize(deployed.wsdl().to_element(), xml_declaration=True)
        spec = stubspec.to_stub_spec(parse_wsdl_element(parse(wire)))
    stub = DynamicStubBuilder().build_class(spec)
    methods = {
        name: (getattr(stub, name).__doc__, [op.parameters for op in spec.operations if op.name == name])
        for name in dir(stub) if not name.startswith("_")
    }
    return operations, wire, methods


class Shadowed(Echo):
    @property
    def helper(self):
        return standalone


class Wrapped(Echo):
    @functools.wraps(Echo.echo)
    def echo(self, *args, **kwargs):
        return Echo.echo(self, *args, **kwargs)


def shadow_with_callable(instance, registry):
    instance.echo = standalone


def shadow_with_value(instance, registry):
    instance.echo = "not callable"


def add_callable(instance, registry):
    instance.extra = lambda first, second: first


def register_struct(instance, registry):
    registry.register(Point)


MUTATIONS = {
    "instance attribute shadows a method with a callable": (Echo, shadow_with_callable),
    "instance attribute shadows a method with a value": (Echo, shadow_with_value),
    "a property returns a callable": (Shadowed, None),
    "a callable is added on the instance": (Echo, add_callable),
    "a functools.wraps wrapper takes **kwargs": (Wrapped, None),
    "a dataclass is registered between two deploys": (Echo, register_struct),
}


@pytest.mark.parametrize("case", list(MUTATIONS))
def test_cached_keys_cannot_go_stale(case):
    cls, mutate = MUTATIONS[case]
    clear_all_caches()
    registry = StructRegistry()
    derive(cls(), registry, cached=True)  # the class's artifacts are cached
    instance = cls()
    if mutate is not None:
        mutate(instance, registry)
    cached = derive(instance, registry, cached=True)
    assert cached == derive(instance, registry, cached=False)


def test_a_method_replaced_on_the_class_is_a_new_key(monkeypatch):
    class Mutable(Echo):
        pass

    clear_all_caches()
    registry = StructRegistry()
    derive(Mutable(), registry, cached=True)

    def echo(self, message: str, suffix: str = "!") -> str:
        """Answer louder."""
        return message + suffix

    monkeypatch.setattr(Mutable, "echo", echo)
    cached = derive(Mutable(), registry, cached=True)
    assert cached == derive(Mutable(), registry, cached=False)
    assert "suffix" in cached[0]["echo"] and "Answer louder." in cached[1]
