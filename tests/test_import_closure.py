"""What a peer loads: only the stack of its own binding.

Packages re-export lazily (``repro._exports``), and a binding's
components load with the binding, so a standard peer never imports the
P2PS stack, a P2PS peer never imports UDDI, and neither loads OpenSSL
(``_hashlib``) unless it signs something.  Nothing a peer runs reaches
the lab package (``examples/lab``) or networkx.  Each world below runs
in a fresh interpreter, with the lab importable, and imports the way an
application does.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
EXAMPLES = SRC.parent / "examples"

ECHO = """
import sys

class Echo:
    def echo(self, message: str) -> str:
        return message

def unloaded(*names):
    loaded = sorted(
        m for m in sys.modules
        if any(m == n or (n.endswith("*") and m.startswith(n[:-1])) for n in names)
    )
    assert not loaded, f"loaded: {loaded}"
"""

STANDARD_WORLD = ECHO + """
from repro import Network, StandardBinding, UddiRegistryNode, WSPeer
from repro.transport.connection import PoolConfig

net = Network()
registry = UddiRegistryNode(net.add_node("registry"))
provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
provider.deploy(Echo(), name="Echo")
provider.publish("Echo")
consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
handle = consumer.locate_one("Echo")
assert consumer.invoke(handle, "echo", message="hi") == "hi"
# the pipelined_http shape: admission on, a pipelined pool
provider.configure_http_server(max_pending_per_connection=64, drain_rate=1e6)
consumer.enable_http_keepalive(PoolConfig(pipeline=True, max_connections=2))
assert consumer.create_stub(handle).echo(message="again") == "again"

class Monitor:
    def add_verdict_listener(self, listener):
        self.listener = listener

monitor = Monitor()
consumer.http_pool.attach_health(monitor)
monitor.listener(handle.endpoints[0].address, "dead")
assert consumer.http_pool.evicted_dead == 1
assert consumer.invoke(handle, "echo", message="after") == "after"

unloaded(
    "hashlib", "_hashlib",
    "repro.p2ps.peer", "repro.p2ps.pipes", "repro.p2ps.advertisements",
    "repro.p2ps.query", "repro.core.p2psmap",
    "repro.transport.httpg",
    "repro.observability.spans", "repro.observability.slo",
    "repro.observability.cluster", "repro.observability.flight",
    "repro.observability.introspection",
    "repro.simnet.churn",
    "repro.replication*",
    "lab", "lab.*", "networkx", "networkx.*",
)
"""

P2PS_WORLD = ECHO + """
from repro import Network, P2PSServiceQuery, P2psBinding, PeerGroup, WSPeer
from repro.reliability import ReliabilityPolicy
from repro.simnet import DropInjector

net = Network()
group = PeerGroup("main")
provider = WSPeer(net.add_node("prov"), P2psBinding(group), name="prov")
provider.deploy(Echo(), name="Echo")
provider.publish("Echo")
net.run()
consumer = WSPeer(net.add_node("cons"), P2psBinding(group), name="cons")
handle = consumer.locate_one(P2PSServiceQuery("Echo"), timeout=10.0)
assert consumer.invoke(handle, "echo", message="hi") == "hi"
# the lossy_p2ps shape: frames dropped, calls retried
drops = DropInjector(net, p=0.2, seed=3)
policy = ReliabilityPolicy.assured(attempts=8, seed=5)
for i in range(10):
    got = consumer.invoke(handle, "echo", message=str(i), timeout=30.0, policy=policy)
    assert got == str(i)
assert drops.dropped

unloaded(
    "hashlib", "_hashlib",
    "repro.uddi.client", "repro.uddi.registry", "repro.uddi.service",
    "repro.transport.httpg",
)
"""

HTTPG_WORLD = ECHO + """
from repro import Network, StandardBinding, UddiRegistryNode, WSPeer
from repro.core.deployer import HttpServiceDeployer
from repro.transport import CertificateAuthority, HttpgTransport

net = Network()
registry = UddiRegistryNode(net.add_node("registry"))
ca = CertificateAuthority()
provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
provider.server.register_deployer(HttpServiceDeployer(
    provider.node, provider.server.container,
    transport=HttpgTransport(provider.node, ca, ca.issue("prov-host")),
))
provider.deploy(Echo(), name="Echo")
consumer = WSPeer(
    net.add_node("cons"),
    StandardBinding(registry.endpoint, ca=ca, credential=ca.issue("cons-user")),
)
handle = provider.local_handle("Echo")
assert handle.endpoints[0].address.startswith("httpg://")
assert consumer.invoke(handle, "echo", message="signed") == "signed"
assert "hashlib" in sys.modules, "an httpg call signed without hashlib"
unloaded("repro.core.p2psmap", "repro.p2ps.peer")
"""

# A subsystem attaches to a peer through its own entry point, which
# loads that subsystem and no other.
ATTACH_BASE = ECHO + """
from repro import Network, StandardBinding, UddiRegistryNode, WSPeer

SUBSYSTEMS = {
    "failover": ["repro.supervision*"],
    "span tracer": ["repro.observability.spans"],
    "flight recorder": ["repro.observability.flight"],
    "discovery plane": ["repro.discovery*"],
    "slo": ["repro.observability.slo"],
    "cluster metrics": ["repro.observability.cluster"],
    "introspection": ["repro.observability.introspection"],
    "replication": [
        "repro.replication.group", "repro.replication.member",
        "repro.replication.state", "repro.replication.store",
    ],
    "churn": ["repro.simnet.churn"],
}

net = Network()
registry = UddiRegistryNode(net.add_node("registry"))
provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
"""

ATTACH_CALL = """
provider.deploy(Echo(), name="Echo")
provider.publish("Echo")
handle = consumer.locate_one("Echo")
assert call(handle, "echo", message="hi") == "hi"
unloaded(*(name for key, names in SUBSYSTEMS.items() if key != OWN for name in names))
"""

ATTACHES = {
    "failover": """
from repro.supervision.failover import attach_failover
call = attach_failover(consumer).invoke
""",
    "span tracer": """
from repro.observability.spans import SpanTracer
SpanTracer().install(consumer, provider)
call = consumer.invoke
""",
    "flight recorder": """
from repro.observability.flight import FlightRecorder
FlightRecorder().install(consumer, provider)
call = consumer.invoke
""",
    "discovery plane": """
from repro.discovery.plane import DiscoveryPlane
plane = DiscoveryPlane(net, shards=2)
plane.attach(provider)
plane.attach(consumer)
call = consumer.invoke
""",
}


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(EXAMPLES), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "script", [STANDARD_WORLD, P2PS_WORLD, HTTPG_WORLD], ids=["standard", "p2ps", "httpg"]
)
def test_a_peer_loads_only_the_stack_of_its_binding(script):
    _run(script)


@pytest.mark.parametrize("own", sorted(ATTACHES))
def test_an_attach_loads_only_its_own_subsystem(own):
    _run(ATTACH_BASE + f"OWN = {own!r}\n" + ATTACHES[own] + ATTACH_CALL)


# -- the lazy tables -----------------------------------------------------

INITS = sorted((SRC / "repro").rglob("__init__.py"))
PACKAGES = [".".join(path.parent.relative_to(SRC).parts) for path in INITS]


def _table(path: Path) -> dict[str, list[str]]:
    """The ``exports(__name__, {...})`` table of a package ``__init__``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "exports":
            return {
                key.value: [name.value for name in names.elts]
                for key, names in zip(node.args[1].keys, node.args[1].values)
            }
    raise AssertionError(f"{path} has no exports table")


@pytest.mark.parametrize("path", INITS, ids=PACKAGES)
def test_every_exported_name_is_the_object_its_submodule_defines(path):
    package = ".".join(path.parent.relative_to(SRC).parts)
    module = importlib.import_module(package)
    table = _table(path)
    exported = [name for names in table.values() for name in names]
    assert sorted(set(module.__all__) - {"__version__"}) == sorted(exported)
    listed = dir(module)
    for submodule, names in table.items():
        defining = importlib.import_module(submodule, package)
        for name in names:
            expected = defining if submodule.endswith("." + name) else getattr(defining, name)
            assert getattr(module, name) is expected, f"{package}.{name}"
            assert name in listed, f"dir({package}) misses {name}"


def test_an_unknown_name_is_an_attribute_error():
    import repro.soap

    with pytest.raises(AttributeError, match="Nope"):
        repro.soap.Nope
    with pytest.raises(ImportError):
        from repro.soap import Nope  # noqa: F401


def test_no_package_init_imports_a_submodule_at_module_level():
    eager = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in INITS
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(
            name == "repro" or name.startswith("repro.")
            for name in (
                [node.module or ""] if isinstance(node, ast.ImportFrom)
                else [alias.name for alias in node.names]
            )
        )
        and not (isinstance(node, ast.ImportFrom) and node.module == "repro._exports")
    ]
    assert eager == []


def test_only_signing_and_hashing_modules_import_hashlib():
    importing = sorted(
        str(path.relative_to(SRC))
        for path in SRC.joinpath("repro").rglob("*.py")
        if re.search(r"^\s*(import|from) hashlib\b", path.read_text(), re.MULTILINE)
    )
    assert importing == [
        os.path.join("repro", "discovery", "ring.py"),
        os.path.join("repro", "replication", "state.py"),
        os.path.join("repro", "transport", "httpg.py"),
    ]
