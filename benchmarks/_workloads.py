"""Shared scenario builders and table rendering for the benchmark suite.

Every experiment in DESIGN.md §4 builds its world through these
helpers, so the topology/latency assumptions are stated once.  The
leading underscore keeps pytest from collecting this as a test module.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core import WSPeer
from repro.core.binding import P2psBinding, StandardBinding
from repro.p2ps import PeerGroup
from repro.p2ps.group import link_rendezvous
from repro.simnet import FixedLatency, Network, TraceLog
from repro.simnet.kernel import SimTimeoutError
from repro.uddi import UddiRegistryNode

# the §V applications and the semantic extension (A1–A3, EXT1) are the
# lab package under examples/, not part of repro
sys.path.insert(0, str(Path(__file__).parents[1] / "examples"))

DEFAULT_LATENCY = 0.005  # 5 ms per hop, LAN-ish


class EchoService:
    """The canonical workload service."""

    def echo(self, message: str) -> str:
        return message

    def compute(self, values: list) -> float:
        return float(sum(values))


@dataclass
class StandardWorld:
    """A registry plus provider/consumer peers on the standard binding."""

    net: Network
    registry: UddiRegistryNode
    providers: list[WSPeer]
    consumers: list[WSPeer]


def build_standard_world(
    n_providers: int = 1,
    n_consumers: int = 1,
    latency: float = DEFAULT_LATENCY,
    publish: bool = True,
    trace: bool = False,
) -> StandardWorld:
    net = Network(latency=FixedLatency(latency), trace=TraceLog(enabled=trace))
    registry = UddiRegistryNode(net.add_node("registry"))
    providers = []
    for i in range(n_providers):
        peer = WSPeer(net.add_node(f"prov{i}"), StandardBinding(registry.endpoint))
        peer.deploy(EchoService(), name=f"Echo{i}")
        if publish:
            peer.publish(f"Echo{i}")
        providers.append(peer)
    consumers = [
        WSPeer(net.add_node(f"cons{i}"), StandardBinding(registry.endpoint))
        for i in range(n_consumers)
    ]
    return StandardWorld(net, registry, providers, consumers)


@dataclass
class P2psWorld:
    """A peer group (optionally several bridged by rendezvous)."""

    net: Network
    groups: list[PeerGroup]
    providers: list[WSPeer]
    consumers: list[WSPeer]
    rendezvous: list[WSPeer]


def build_p2ps_world(
    n_providers: int = 1,
    n_consumers: int = 1,
    n_groups: int = 1,
    latency: float = DEFAULT_LATENCY,
    publish: bool = True,
    trace: bool = False,
) -> P2psWorld:
    """Providers/consumers spread round-robin over *n_groups* groups;
    with multiple groups, one rendezvous per group, all linked in a
    chain (the overlay)."""
    net = Network(latency=FixedLatency(latency), trace=TraceLog(enabled=trace))
    groups = [PeerGroup(f"g{i}") for i in range(n_groups)]
    rendezvous = []
    if n_groups > 1:
        for i, group in enumerate(groups):
            peer = WSPeer(
                net.add_node(f"rdv{i}"), P2psBinding(group, rendezvous=True),
                name=f"rdv{i}",
            )
            rendezvous.append(peer)
        for a, b in zip(rendezvous, rendezvous[1:]):
            link_rendezvous(a.peer, b.peer)
    providers = []
    for i in range(n_providers):
        group = groups[i % n_groups]
        peer = WSPeer(net.add_node(f"pprov{i}"), P2psBinding(group), name=f"pprov{i}")
        peer.deploy(EchoService(), name=f"Echo{i}")
        if publish:
            peer.publish(f"Echo{i}")
        providers.append(peer)
    consumers = [
        WSPeer(
            net.add_node(f"pcons{i}"),
            P2psBinding(groups[i % n_groups]),
            name=f"pcons{i}",
        )
        for i in range(n_consumers)
    ]
    if publish:
        net.run()  # let adverts settle
    return P2psWorld(net, groups, providers, consumers, rendezvous)


def print_table(title: str, headers: list[str], rows: list[list], note: str = "") -> None:
    """Render one experiment table the way EXPERIMENTS.md records it."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title}")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    if note:
        print(f"note: {note}")


def fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f}ms"


def emit_json(filename: str, payload: dict[str, Any]) -> Path:
    """Write an experiment's machine-readable results next to the bench.

    Every experiment table printed for EXPERIMENTS.md should also land
    on disk as JSON (e.g. ``BENCH_E7.json``) so downstream tooling can
    diff runs without scraping tables.
    """
    path = Path(__file__).parent / filename
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return path


def advance(net: Network, dt: float) -> None:
    """Let *dt* of virtual time pass (client pacing between requests)."""
    net.kernel.schedule(dt, lambda: None)
    net.run()


def discovered(handle, timeout: float) -> bool:
    """Whether the P2PS query *handle* gets a result: pump the kernel
    until one arrives, the queue drains or *timeout* virtual seconds pass."""
    try:
        handle.peer.network.kernel.pump_until(lambda: handle.results, timeout=timeout)
    except SimTimeoutError:
        pass
    return bool(handle.results)
