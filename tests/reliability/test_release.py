"""Whatever way a call ends, it gives back what it took.

One pipeline means one ``finish``: after the terminal event of a call —
on either binding, in any exchange pattern, for any outcome — no timer
the call armed (attempt timer, backoff timer, transport timeout) is
live, and the consumer node has the ports it had before.  The one thing
a call may leave behind is the pooled HTTP connection it rode: at most
one per endpoint called, which the next call reuses.
"""

import gc

import pytest

from repro.caching import cache_stats, clear_all_caches, reset_cache_stats
from repro.core import WSPeer
from repro.core.binding import P2psBinding, StandardBinding
from repro.observability import tracecontext
from repro.p2ps import PeerGroup
from repro.reliability import (
    BreakerConfig,
    CircuitOpenError,
    DeadlineExceededError,
    ReliabilityPolicy,
    RetryPolicy,
)
from repro.simnet import FixedLatency, Network
from repro.simnet.network import Node
from repro.soap.encoding import EncodingError
from repro.soap.faults import SoapFault
from repro.uddi import UddiRegistryNode
from repro.xmlkit import Element

TERMINAL_KINDS = {"response-received", "invoke-failed", "oneway-acked", "oneway-failed"}


class Fragile:
    def bump(self) -> int:
        return 1

    def explode(self) -> int:
        raise ValueError("boom")


def build_world(binding):
    net = Network(latency=FixedLatency(0.002))
    if binding == "http":
        registry = UddiRegistryNode(net.add_node("registry"))
        make = lambda: StandardBinding(registry.endpoint)  # noqa: E731
    else:
        group = PeerGroup("g")
        make = lambda: P2psBinding(group)  # noqa: E731
    provider = WSPeer(net.add_node("prov"), make(), name="prov")
    provider.deploy(Fragile(), name="Fragile")
    provider.publish("Fragile")
    net.run()
    consumer = WSPeer(net.add_node("cons"), make(), name="cons")
    handle = consumer.locate_one("Fragile")
    net.run()
    return net, provider, consumer, handle


class Ledger:
    """Everything the kernel was asked to run while the call was open,
    and a snapshot of the consumer taken at the call's terminal event."""

    def __init__(self, net, consumer):
        self.consumer = consumer
        self.armed = []
        self.terminals = 0
        self.ports_at_terminal = None
        self.pooled_at_terminal = None
        self.live_at_terminal = None
        schedule = net.kernel.schedule

        def recording_schedule(delay, fn, *args):
            event = schedule(delay, fn, *args)
            self.armed.append(event)
            return event

        net.kernel.schedule = recording_schedule
        consumer.add_listener(self)

    def message_received(self, event):
        if event.kind in TERMINAL_KINDS:
            self.terminal()

    def terminal(self):
        self.terminals += 1
        self.ports_at_terminal = list(self.consumer.node.ports)
        self.pooled_at_terminal = pooled(self.consumer)
        self.live_at_terminal = [
            event for event in self.armed
            if not (event.cancelled or event._fired)
            # a frame already on the wire (or in a node's worker queue) is
            # the network's, not the call's
            and not isinstance(getattr(event.fn, "__self__", None), (Network, Node))
        ]


def pooled(consumer):
    """The consumer's pooled HTTP connections: port -> endpoint."""
    return {c.local_port: (c.target_node, c.port) for c in consumer.http_pool.connections()}


def assert_gave_back(ports_before, ports, pooled_now):
    """*ports* are *ports_before*, give or take pooled connections: every
    other port is as it was, and at most one connection per endpoint."""
    assert [p for p in ports if p not in pooled_now] == [
        p for p in ports_before if not p.startswith("http-conn:")
    ]
    endpoints = [pooled_now[p] for p in ports if p in pooled_now]
    assert len(endpoints) == len(set(endpoints))


def policy_for(pattern, outcome):
    return ReliabilityPolicy(
        # the deadline cell must run out of budget before it runs out of attempts
        retry=RetryPolicy(
            max_attempts=8 if outcome == "deadline" else 2, base_delay=0.05, jitter=0.0
        ),
        deadline=0.3 if outcome == "deadline" else None,
        ack=pattern == "acked-oneway",
        breaker=(
            BreakerConfig(min_calls=1, failure_threshold=0.5, open_timeout=60.0)
            if outcome == "circuit-open" else None
        ),
    )


@pytest.mark.parametrize(
    "outcome",
    ["success", "attempts-exhausted", "deadline", "circuit-open", "local-node-down",
     "soap-fault"],
)
@pytest.mark.parametrize("pattern", ["request", "bare-oneway", "acked-oneway"])
@pytest.mark.parametrize("binding", ["http", "p2ps"])
def test_every_ending_releases_ports_and_timers(binding, pattern, outcome):
    net, provider, consumer, handle = build_world(binding)
    operation = "explode" if outcome == "soap-fault" else "bump"
    policy = policy_for(pattern, outcome)
    if outcome in ("attempts-exhausted", "deadline"):
        provider.node.go_down()
    elif outcome == "circuit-open":
        # one failed call trips the endpoint's breaker; the call under
        # test is then shed before anything is sent
        provider.node.go_down()
        consumer.invoke_async(
            handle, operation, {}, lambda result, error: None, 0.2, policy=policy
        )
        net.run()
        provider.node.go_up()
    elif outcome == "local-node-down":
        consumer.node.go_down()  # on pipes this is PipeError at send

    ports_before = list(consumer.node.ports)
    ledger = Ledger(net, consumer)
    errors = []
    if pattern == "request":
        consumer.invoke_async(
            handle, operation, {}, lambda result, error: errors.append(error),
            0.2, policy=policy,
        )
    else:
        try:
            status = consumer.invoke_oneway(
                handle, operation, policy=policy, timeout=0.2
            )
        except Exception as exc:  # a bare pipe send that could not leave
            status = None
            errors.append(exc)
        if binding == "p2ps" and pattern == "bare-oneway" and not errors:
            ledger.terminal()  # nothing is awaited: returning was the end
        assert (status is not None) == (binding == "p2ps" and pattern == "acked-oneway")
    net.run()

    assert ledger.terminals == 1
    assert_gave_back(ports_before, ledger.ports_at_terminal, ledger.pooled_at_terminal)
    assert ledger.live_at_terminal == []
    assert_gave_back(ports_before, list(consumer.node.ports), pooled(consumer))

    if pattern == "request":  # the scenario ended the way its name says
        (error,) = errors
        expected = {
            "success": type(None),
            "deadline": DeadlineExceededError,
            "circuit-open": CircuitOpenError,
            "soap-fault": SoapFault,
        }.get(outcome, Exception)
        assert isinstance(error, expected)
        if expected is Exception:
            assert not isinstance(
                error, (DeadlineExceededError, CircuitOpenError, SoapFault)
            )


def p2ps_holdings(consumer):
    """What a P2PS call takes from its consumer: input pipes, node ports
    and advert-cache entries (the reply pipe's advert)."""
    peer = consumer.peer
    return len(peer._input_pipes), list(consumer.node.ports), len(peer.published) + len(peer.cache)


@pytest.mark.parametrize("binding", ["http", "p2ps"])
def test_unencodable_call_gives_back_its_hop(binding):
    """The hop (on pipes: a fresh reply pipe) opens before the wire is
    built; a call whose wire cannot be built raises at once and closes
    it again."""
    net, provider, consumer, handle = build_world(binding)
    ports_before = list(consumer.node.ports)
    holdings = p2ps_holdings(consumer) if binding == "p2ps" else None
    for _ in range(3):
        with pytest.raises(EncodingError):
            consumer.invoke(handle, "bump", message=object())
    assert list(consumer.node.ports) == ports_before
    if binding == "p2ps":
        assert p2ps_holdings(consumer) == holdings
    assert consumer.invoke(handle, "bump") == 1


def test_steady_p2ps_calls_take_nothing_and_map_once():
    """N calls leave pipes, ports and advert cache where they started;
    the target EPR and the ReplyTo address are each read from text
    once, on the first call, and looked up from then on."""
    net, provider, consumer, handle = build_world("p2ps")
    clear_all_caches()
    reset_cache_stats()
    holdings = p2ps_holdings(consumer)
    for _ in range(50):
        assert consumer.invoke(handle, "bump") == 1
    assert p2ps_holdings(consumer) == holdings
    stats = {name: (s["misses"], s["hits"]) for name, s in cache_stats().items()}
    assert stats["p2ps-targets"] == (1, 49)  # the consumer's target EPR
    # first call: the target's address (consumer) and the ReplyTo
    # address (provider); after that only the provider asks
    assert stats["p2ps-uris"] == (2, 49)


@pytest.mark.parametrize("binding", ["http", "p2ps"])
def test_steady_call_loop_never_wakes_the_cycle_collector(binding):
    """A finished call is freed by reference count, at once: nothing it
    made is cyclic garbage and nothing parks it (its cancelled timeout
    timer sat in the kernel's heap holding the whole exchange until the
    next compaction, and that saw-tooth of ~1 400 objects tripped a
    young collection every ~35 calls and a ~10 ms full one every few
    thousand).  So 1 500 calls, about forty times that period, run no
    collection of any generation."""
    net, provider, consumer, handle = build_world(binding)
    for _ in range(100):  # caches warm, pools and tables at their size
        assert consumer.invoke(handle, "bump") == 1
    gc.collect()
    before = [generation["collections"] for generation in gc.get_stats()]
    for _ in range(1500):
        consumer.invoke(handle, "bump")
    after = [generation["collections"] for generation in gc.get_stats()]
    assert after == before


@pytest.mark.parametrize("propagation", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("binding", ["http", "p2ps"])
def test_steady_call_loop_builds_no_element(binding, propagation, monkeypatch):
    """A steady call is texts end to end: request and reply ride wire
    templates, decode skeletons hand over slot texts, the addressing
    headers — ReplyTo EPR, reference properties, the trace context
    included — are read off those texts and the reply pipe's EPR is
    value-backed, so not one ``Element`` is built per call (the parent
    design built 3 / 30 untraced and 4 / 31 traced)."""
    monkeypatch.setattr(tracecontext, "_propagate", propagation)
    net, provider, consumer, handle = build_world(binding)
    for _ in range(20):  # templates and skeletons learned
        assert consumer.invoke(handle, "bump") == 1
    built = []
    init = Element.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self.__class__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Element, "__init__", counting_init)
    for _ in range(50):
        assert consumer.invoke(handle, "bump") == 1
    monkeypatch.setattr(Element, "__init__", init)
    assert built == []
