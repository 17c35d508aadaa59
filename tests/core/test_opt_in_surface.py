"""WSPeer is the root of the interface tree, not a facade.

A subsystem attaches to the peer through its own entry point —
``attach_failover(peer)``, ``DiscoveryPlane.attach(peer)``,
``ReplicationGroup.establish(peer, ...)``, ``SpanTracer`` /
``FlightRecorder`` / ``SloEngine`` ``.install(peer)``,
``ClusterMetricsAgent(peer)``, ``host_introspection(peer)``,
``peer.server.container.set_admission_control`` and
``peer.node.configure_workers`` — so the peer itself opts in to its
HTTP connection knobs only.
"""

import inspect
import re

from repro.core import WSPeer

OPT_IN = re.compile(r"(enable|configure)_|set_admission_control$|host_introspection$")


def test_the_peer_opts_in_only_to_its_http_knobs():
    assert sorted(name for name in dir(WSPeer) if OPT_IN.match(name)) == [
        "configure_http_server",
        "enable_http_keepalive",
    ]


def test_the_opt_in_surface_has_four_settable_values():
    settable = [
        parameter
        for method in (WSPeer.enable_http_keepalive, WSPeer.configure_http_server)
        for parameter in list(inspect.signature(method).parameters)[1:]
    ]
    assert settable == ["config", "max_pending_per_connection", "drain_rate", "idle_timeout"]


def test_a_fresh_peer_holds_no_subsystem_it_did_not_attach(standard_pair):
    provider, consumer, _ = standard_pair
    for peer in (provider, consumer):
        assert peer.failover is None  # read by discovery and replication
        for slot in ("discovery", "tracer", "replication", "flight", "slo", "cluster_metrics"):
            assert not hasattr(peer, slot), slot
