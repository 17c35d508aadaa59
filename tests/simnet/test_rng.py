"""Seeded generators: who loads numpy, and which streams they draw.

``repro.simnet.rng`` draws numpy's PCG64 stream in pure Python, so a
peer that drops frames or jitters its retries never loads numpy; only a
model that asks for a distribution not ported (log-normal latency,
churn's choice) does.  Neither the port nor the handover to numpy may
move a single draw: every model below is held to the same calls made
directly on ``numpy.random.default_rng(seed)``, in the order the models
make them, and the generator itself to numpy draw for draw.
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
    ChurnSchedule,
    DropInjector,
    FixedLatency,
    Network,
    SeededLatency,
    UniformLatency,
    rng,
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
    from repro.reliability import ReliabilityPolicy
    from repro.simnet import DropInjector, SeededLatency

    # the lossy_p2ps shape: frames dropped, calls retried with jitter
    drops = DropInjector(net, p=0.2, seed=3)
    policy = ReliabilityPolicy.assured(attempts=8, seed=5)
    for i in range(20):
        assert consumer.invoke(handle, "echo", message=str(i), timeout=30.0, policy=policy) == str(i)
    assert drops.dropped and policy.retry._rng is not None, "nothing dropped or retried"
    assert "numpy" not in sys.modules, "a drop model or retry jitter loaded numpy"

    SeededLatency(seed=1)
    assert "numpy" in sys.modules, "log-normal latency drew without numpy"
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
    net = _network(5)
    schedule = ChurnSchedule(net, seed=seed)
    chosen = schedule.fail_fraction(candidates, 0.5, at=1.0)
    expected = [str(c) for c in np.random.default_rng(seed).choice(candidates, size=2, replace=False)]
    assert chosen == expected
    net.run()
    assert [record.node for record in schedule.kills] == expected
    assert all(type(record.node) is str for record in schedule.kills)


PARITY_SEEDS = [*range(100), 2**32 - 1, 2**32, 2**64, 2**128 + 1]


@pytest.mark.parametrize("seed", PARITY_SEEDS)
def test_random_and_uniform_draw_numpys_stream(seed):
    ours, theirs = rng.default_rng(seed), np.random.default_rng(seed)
    assert [ours.random() for _ in range(1000)] == [theirs.random() for _ in range(1000)]
    assert [ours.uniform(0.001, 0.004) for _ in range(1000)] == [
        theirs.uniform(0.001, 0.004) for _ in range(1000)
    ]


def _interleaved(gen):
    return [
        gen.random(),
        gen.uniform(1.0, 5.0),
        float(gen.lognormal(mean=0.0, sigma=0.4)),
        gen.random(),
        [str(c) for c in gen.choice(["a", "b", "c", "d"], size=2, replace=False)],
        gen.uniform(1.0, 5.0),
        gen.random(),
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_a_numpy_only_draw_hands_the_stream_over(seed):
    # random -> lognormal/choice (the handover) -> random: one stream
    assert _interleaved(rng.default_rng(seed)) == _interleaved(np.random.default_rng(seed))


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (-(2**70), ValueError), (1.5, TypeError)])
def test_a_bad_seed_is_refused_as_numpy_refuses_it(seed, error):
    with pytest.raises(error):
        np.random.default_rng(seed)
    with pytest.raises(error):
        rng.default_rng(seed)


@pytest.mark.parametrize("low, high, error", [(2.0, 1.0, ValueError), (0.0, float("inf"), OverflowError)])
def test_a_bad_uniform_range_is_refused_as_numpy_refuses_it(low, high, error):
    with pytest.raises(error):
        np.random.default_rng(0).uniform(low, high)
    with pytest.raises(error):
        rng.default_rng(0).uniform(low, high)
