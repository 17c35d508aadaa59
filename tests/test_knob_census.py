"""What a program can still set on each subsystem, name by name.

The twin of ``tests/core/test_opt_in_surface.py``: there the root's
opt-ins, here each subsystem's own constructor or config.  A value
that no program (``src/``, ``bench/``, ``benchmarks/``, ``examples/``)
sets is a module constant beside its use, not a parameter; a retired
name that comes back, or a new one, fails the census below.
"""

import dataclasses
import inspect

import pytest

from repro.core.binding import P2psBinding, StandardBinding
from repro.core.locator import UddiServiceLocator
from repro.core.publisher import UddiServicePublisher
from repro.discovery.client import DiscoveryClient
from repro.discovery.plane import DiscoveryPlane
from repro.discovery.ring import HashRing
from repro.observability.flight import FlightRecorder
from repro.observability.introspection import IntrospectionService, host_introspection
from repro.observability.slo import SloPolicy
from repro.p2ps.peer import Peer
from repro.reliability.dedup import DedupWindow
from repro.reliability.policy import BreakerConfig, ReliabilityPolicy
from repro.replication.group import ReplicationGroup
from repro.replication.member import ReplicationConfig
from repro.replication.store import ReplicaStore
from repro.soap.envelope import WireTemplateCache
from repro.supervision.health import HealthMonitor
from repro.transport.connection import PoolConfig
from repro.transport.http import HttpTransport
from repro.transport.httpg import HttpgTransport
from repro.wsa.headers import RequestTemplateCache


def settable(surface):
    """The names a caller can set: a dataclass's fields, else the
    parameters of the callable (``self`` / ``cls`` left out)."""
    if dataclasses.is_dataclass(surface):
        return [field.name for field in dataclasses.fields(surface)]
    return [name for name in inspect.signature(surface).parameters if name not in ("self", "cls")]


CENSUS = {
    # transport/connection.py
    "PoolConfig": (PoolConfig, [
        "max_connections", "idle_timeout", "max_requests_per_connection", "pipeline",
        "chunk_threshold", "chunk_size", "stream_window",
    ]),
    # reliability/policy.py
    "BreakerConfig": (BreakerConfig, ["window", "failure_threshold", "min_calls", "open_timeout"]),
    "ReliabilityPolicy.assured": (ReliabilityPolicy.assured, ["attempts", "seed"]),
    # replication/
    "ReplicationConfig": (ReplicationConfig, ["r", "compact_after"]),
    "ReplicaStore": (ReplicaStore, ["member_id", "compact_after"]),
    "ReplicationGroup.start_anti_entropy": (ReplicationGroup.start_anti_entropy, []),
    # observability/slo.py
    "SloPolicy": (SloPolicy, ["availability_target", "latency_threshold", "fast_burn"]),
    # supervision/health.py
    "HealthMonitor": (HealthMonitor, ["clock"]),
    # observability/flight.py
    "FlightRecorder": (FlightRecorder, ["metrics"]),
    # observability/introspection.py
    "IntrospectionService": (IntrospectionService, ["peer"]),
    "host_introspection": (host_introspection, ["peer", "name"]),
    # discovery/
    "DiscoveryPlane": (DiscoveryPlane, [
        "network", "shards", "replication", "registry_service_time", "advert_valid_time",
        "cache_lifetime", "client_timeout", "node_prefix",
    ]),
    "DiscoveryClient": (DiscoveryClient, [
        "node", "registry_uris", "replication", "cache", "gossip", "timeout", "pool",
    ]),
    "HashRing": (HashRing, ["nodes"]),
    # reliability/dedup.py
    "DedupWindow": (DedupWindow, []),
    # the 30-second client timeouts
    "HttpTransport": (HttpTransport, ["node", "pool"]),
    "HttpgTransport": (HttpgTransport, ["node", "ca", "credential", "mutual", "pool"]),
    "UddiServiceLocator": (UddiServiceLocator, ["node", "registry_uri", "parent", "pool"]),
    "UddiServicePublisher": (UddiServicePublisher, [
        "node", "registry_uri", "business_name", "parent", "pool",
    ]),
    # the codec's template caches
    "WireTemplateCache": (WireTemplateCache, []),
    "RequestTemplateCache": (RequestTemplateCache, []),
    # core/binding.py
    "StandardBinding": (StandardBinding, [
        "registry_uri", "http_port", "business_name", "ca", "credential",
    ]),
    "P2psBinding": (P2psBinding, ["group", "rendezvous", "peer_name"]),
    "Peer": (Peer, ["node", "name", "rendezvous", "cache_lifetime", "nat", "relay"]),
}


@pytest.mark.parametrize("surface", sorted(CENSUS))
def test_each_surface_keeps_only_the_values_a_program_sets(surface):
    target, names = CENSUS[surface]
    assert settable(target) == names


def test_the_dedup_window_has_no_cap_to_assign():
    assert "max_entries" not in vars(DedupWindow)
