"""Seeded generators: who loads numpy, and which streams they draw.

numpy is imported only when a seeded model is built (or a retry policy
first jitters a delay), so a peer that only hosts and invokes never
loads it.  Moving the import must not move a single draw: every model
below is held to the same calls made directly on
``numpy.random.default_rng(seed)``, in the order the models make them.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.reliability import RetryPolicy
from repro.simnet import (
    ChurnInjector,
    ChurnSchedule,
    DropInjector,
    FixedLatency,
    Network,
    SeededLatency,
    UniformLatency,
)

SRC = Path(__file__).resolve().parents[2] / "src"
SEEDS = range(10)


BARE_PEER = textwrap.dedent(
    """
    import sys

    from repro.core import P2PSServiceQuery, WSPeer
    from repro.core.binding import P2psBinding, StandardBinding
    from repro.p2ps import PeerGroup
    from repro.simnet import Network
    from repro.uddi import UddiRegistryNode


    class Echo:
        def echo(self, message: str) -> str:
            return message


    net = Network()
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    provider.deploy(Echo(), name="Echo")
    provider.publish("Echo")
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    assert consumer.invoke(consumer.locate_one("Echo"), "echo", message="hi") == "hi"

    net = Network()
    group = PeerGroup("main")
    provider = WSPeer(net.add_node("pprov"), P2psBinding(group), name="pprov")
    provider.deploy(Echo(), name="Echo")
    provider.publish("Echo")
    net.run()
    consumer = WSPeer(net.add_node("pcons"), P2psBinding(group), name="pcons")
    handle = consumer.locate_one(P2PSServiceQuery("Echo"), timeout=10.0)
    assert consumer.invoke(handle, "echo", message="hi") == "hi"

    assert "numpy" not in sys.modules, "a bare peer loaded numpy"
    from repro.simnet import DropInjector

    DropInjector(net, p=0.1)
    assert "numpy" in sys.modules, "a drop model drew without numpy"
    """
)


def test_a_bare_peer_never_loads_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", BARE_PEER], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_only_the_rng_module_imports_numpy():
    importing = sorted(
        str(path.relative_to(SRC))
        for path in SRC.joinpath("repro").rglob("*.py")
        if "apps" not in path.parts
        and re.search(r"^\s*(import|from) numpy\b", path.read_text(), re.MULTILINE)
    )
    assert importing == [os.path.join("repro", "simnet", "rng.py")]


def _expected_schedule(policy, gen):
    return [
        min(policy.base_delay * policy.multiplier**k, policy.max_delay)
        * (1.0 + policy.jitter * (2.0 * gen.random() - 1.0))
        for k in range(policy.max_attempts - 1)
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_retry_schedule_stream(seed):
    policy = RetryPolicy(max_attempts=5, base_delay=0.1, jitter=0.3, seed=seed)
    gen = np.random.default_rng(seed)
    assert policy.schedule() == _expected_schedule(policy, gen)
    # no reset: the second schedule continues the same stream
    assert policy.schedule() == _expected_schedule(policy, gen)
    policy.reset()
    assert policy.schedule() == _expected_schedule(policy, np.random.default_rng(seed))
    # a reset between two delays restarts the stream at its first draw
    policy.delay(0)
    policy.reset()
    assert policy.schedule() == _expected_schedule(policy, np.random.default_rng(seed))


def test_retry_policy_without_jitter_builds_no_generator():
    policy = RetryPolicy(max_attempts=4, jitter=0.0)
    policy.schedule()
    assert policy._rng is None


@pytest.mark.parametrize("seed", SEEDS)
def test_drop_verdicts_stream(seed):
    net = Network(latency=FixedLatency(0.001))
    sender, receiver = net.add_node("a"), net.add_node("b")
    got = []
    receiver.open_port("in", got.append)
    DropInjector(net, p=0.3, seed=seed)
    for i in range(200):
        sender.send("b", "in", str(i))
    net.run()
    gen = np.random.default_rng(seed)
    assert [frame.payload for frame in got] == [str(i) for i in range(200) if not gen.random() < 0.3]


@pytest.mark.parametrize("seed", SEEDS)
def test_latency_streams(seed):
    uniform = UniformLatency(0.001, 0.004, seed=seed)
    gen = np.random.default_rng(seed)
    assert [uniform.sample("a", "b", 10) for _ in range(50)] == [
        float(gen.uniform(0.001, 0.004)) for _ in range(50)
    ]
    seeded = SeededLatency(median=0.015, sigma=0.4, per_byte=1e-8, seed=seed)
    gen = np.random.default_rng(seed)
    assert [seeded.sample("a", "b", 100) for _ in range(50)] == [
        float(gen.lognormal(mean=np.log(0.015), sigma=0.4)) + 1e-8 * 100 for _ in range(50)
    ]


def _network(n):
    net = Network(latency=FixedLatency(0.001))
    for i in range(n):
        net.add_node(f"n{i}")
    return net


@pytest.mark.parametrize("seed", SEEDS)
def test_random_kills_stream(seed):
    candidates = [f"n{i}" for i in range(6)]
    plan = ChurnSchedule(_network(6), seed=seed).random_kills(
        candidates, n_kills=8, start=1.0, until=5.0, downtime=0.5
    )
    gen = np.random.default_rng(seed)
    expected = [(str(gen.choice(candidates)), float(gen.uniform(1.0, 5.0))) for _ in range(8)]
    assert plan == sorted(expected, key=lambda item: item[1])


@pytest.mark.parametrize("seed", SEEDS)
def test_fail_fraction_records_plain_strings(seed):
    candidates = [f"n{i}" for i in range(4)]
    injector = ChurnInjector(_network(5), seed=seed)
    chosen = injector.fail_fraction(candidates, 0.5, at=1.0)
    expected = [str(c) for c in np.random.default_rng(seed).choice(candidates, size=2, replace=False)]
    assert chosen == expected
    assert injector.failed == expected
    assert all(type(node_id) is str for node_id in injector.failed)
