"""The grand integration scenario: everything at once.

A two-campus network: campus A runs the standard stack (UDDI registry,
HTTP services); campus B is a P2PS peer group.  Rendezvous bridges, a
NATed peer with a relay, mixed-binding consumers, a cross-campus
workflow, churn, and retransmission — all in one seeded world.  This is
the closest thing to the paper's vision of one homogenising layer over
"vastly different environments".
"""

import pytest

from lab.workflow import Toolbox, Workflow, WorkflowEngine
from repro.core import WSPeer
from repro.core.binding import P2psBinding, StandardBinding
from repro.core.invocation import HttpInvocation
from repro.core.locator import UddiServiceLocator
from repro.p2ps import Peer, PeerGroup
from repro.simnet import FixedLatency, Network, TraceLog
from repro.simnet.faults import NatGate
from repro.uddi import UddiRegistryNode


class Sensors:
    def sample(self, count: int) -> list:
        return [float(i % 7) for i in range(count)]


class Statistics:
    def mean(self, values: list) -> float:
        return sum(values) / len(values)


class Archive:
    def __init__(self):
        self.records = []

    def store(self, value: float) -> int:
        self.records.append(value)
        return len(self.records)


@pytest.fixture
def world():
    net = Network(latency=FixedLatency(0.004), trace=TraceLog(enabled=True))
    registry = UddiRegistryNode(net.add_node("registry"))
    campus_b = PeerGroup("campus-b")

    # campus A: standard-stack providers
    sensors_host = WSPeer(net.add_node("sensors"), StandardBinding(registry.endpoint))
    sensors_host.deploy(Sensors(), name="Sensors")
    sensors_host.publish("Sensors")

    # campus B: P2PS providers, one behind NAT with a relay
    relay = Peer(net.add_node("relay"), name="relay", rendezvous=True)
    relay.join(campus_b)
    stats_host = WSPeer(net.add_node("stats"), P2psBinding(campus_b), name="stats")
    stats_host.deploy(Statistics(), name="Statistics")
    stats_host.publish("Statistics")

    archive = Archive()
    archive_host = WSPeer(net.add_node("archive"), P2psBinding(campus_b), name="archive")
    archive_host.peer.relay_node_id = "relay"
    archive_host.peer._safe_send("relay", "<hello/>")
    net.run()
    archive_host.peer.nat_gate = NatGate(net, "archive")
    archive_host.deploy(archive, name="Archive")
    archive_host.publish("Archive")
    net.run()

    # the orchestrating node: P2PS-bound, UDDI locator mixed in for
    # campus-A services (the paper's §IV composition)
    triana = WSPeer(net.add_node("triana"), P2psBinding(campus_b), name="triana")
    return net, registry, triana, archive


def test_grand_scenario(world):
    net, registry, triana, archive = world

    # --- discovery across both worlds -------------------------------------
    p2ps_locator = triana.client.locator
    uddi_locator = UddiServiceLocator(triana.node, registry.endpoint)
    p2ps_invoker = triana.client.invocation
    http_invoker = HttpInvocation(triana.node)

    triana.client.register_locator(uddi_locator)
    triana.client.register_invocation(http_invoker)
    sensors = triana.locate_one("Sensors")
    assert sensors.source == "uddi"

    triana.client.register_locator(p2ps_locator)
    triana.client.register_invocation(p2ps_invoker)
    stats = triana.locate_one("Statistics", timeout=5.0)
    archive_handle = triana.locate_one("Archive", timeout=5.0)
    assert stats.source == "p2ps"
    assert archive_handle.endpoints[0].address.startswith("p2ps://")

    # --- cross-campus pipeline --------------------------------------------
    triana.client.register_invocation(http_invoker)
    samples = triana.invoke(sensors, "sample", count=21)
    assert len(samples) == 21

    triana.client.register_invocation(p2ps_invoker)
    mean = triana.invoke(stats, "mean", values=samples)
    assert mean == pytest.approx(sum(samples) / len(samples))

    # the archive is behind NAT: the invocation must ride the relay
    count = triana.invoke(archive_handle, "store", value=mean)
    assert count == 1
    assert archive.records == [mean]

    # --- churn: the stats host dies; retries fail cleanly; a newly
    #     deployed replacement takes over at runtime --------------------------
    stats_node = net.get_node("stats")
    stats_node.go_down()
    from repro.core import InvocationError

    with pytest.raises(InvocationError):
        triana.invoke(stats, "mean", {"values": samples}, timeout=0.5)

    replacement = WSPeer(
        net.add_node("stats2"), P2psBinding(triana.peer.group), name="stats2"
    )
    replacement.deploy(Statistics(), name="Statistics")
    replacement.publish("Statistics")
    net.run()
    handles = triana.locate("Statistics", timeout=5.0, expect=2)
    live = [h for h in handles if replacement.peer.id in h.endpoints[0].address]
    assert live, "replacement service must be discoverable"
    assert triana.invoke(live[0], "mean", values=[2.0, 4.0]) == 3.0


def test_grand_scenario_workflow(world):
    net, registry, triana, archive = world
    # toolbox mixing both discovery worlds
    uddi_locator = UddiServiceLocator(triana.node, registry.endpoint)
    http_invoker = HttpInvocation(triana.node)
    p2ps_locator = triana.client.locator
    p2ps_invoker = triana.client.invocation

    triana.client.register_locator(uddi_locator)
    triana.client.register_invocation(http_invoker)
    toolbox = Toolbox(triana)
    toolbox.discover("Sensors")

    triana.client.register_locator(p2ps_locator)
    triana.client.register_invocation(p2ps_invoker)
    toolbox.discover("Statistics")

    # workflow engine invokes through whatever invoker is registered at
    # run time — here P2PS can't reach the HTTP-only Sensors, so run the
    # sensor task over HTTP first, then the stats leg over pipes
    wf = Workflow("cross-campus")
    wf.add_task("acquire", toolbox.tool("Sensors.sample"), constants={"count": 14})
    triana.client.register_invocation(http_invoker)
    acquired = WorkflowEngine(triana).run(wf)["acquire"]

    wf2 = Workflow("analyse")
    wf2.add_task("mean", toolbox.tool("Statistics.mean"),
                 constants={"values": acquired})
    triana.client.register_invocation(p2ps_invoker)
    results = WorkflowEngine(triana).run(wf2)
    assert results["mean"] == pytest.approx(sum(acquired) / len(acquired))
