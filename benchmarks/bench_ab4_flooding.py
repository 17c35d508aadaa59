"""AB4 — ablation: group broadcast vs Gnutella-style neighbor flooding.

§II: Gnutella "employs in-network discovery mechanisms which can be
used to form impromptu network connectivity between peers in order to
search for content".  The P2PS substrate supports both a group
(multicast-like) broadcast domain and an unstructured neighbor overlay.
Ablation: on N peers, compare discovery reach, latency and message cost
of (a) one flat group, (b) a random k-regular neighbor graph, as a
function of TTL.
"""

from _workloads import discovered, fmt_ms, print_table

from repro.p2ps import AdvertQuery, Peer, PeerGroup
from repro.p2ps.group import connect_neighbors
from repro.simnet import FixedLatency, Network

N_PEERS = 24
DEGREE = 3
# a random 3-regular graph on the 24 peers, drawn once (seed 7) and
# fixed here: every peer has exactly DEGREE neighbours
OVERLAY_EDGES = [
    (0, 16), (0, 13), (0, 21), (1, 21), (1, 14), (1, 17), (2, 4), (2, 3), (2, 6),
    (3, 4), (3, 5), (4, 15), (5, 15), (5, 20), (6, 18), (6, 7), (7, 22), (7, 14),
    (8, 18), (8, 20), (8, 10), (9, 10), (9, 13), (9, 12), (10, 23), (11, 23),
    (11, 19), (11, 12), (12, 16), (13, 15), (14, 16), (17, 19), (17, 22), (18, 20),
    (19, 23), (21, 22),
]


def build_flat_group(n=N_PEERS):
    net = Network(latency=FixedLatency(0.002))
    group = PeerGroup("flat")
    peers = [Peer(net.add_node(f"n{i}"), name=f"p{i}") for i in range(n)]
    for peer in peers:
        peer.join(group)
    return net, peers


def build_regular_graph():
    net = Network(latency=FixedLatency(0.002))
    peers = [Peer(net.add_node(f"n{i}"), name=f"p{i}") for i in range(N_PEERS)]
    for a, b in OVERLAY_EDGES:
        connect_neighbors(peers[a], peers[b])
    return net, peers


def probe(build, ttl: int):
    """Publish at peer 0, query from the 'farthest' peer (last index)."""
    net, peers = build()
    peers[0].create_input_pipe("invoke", "Target")
    peers[0].publish_service("Target", ["invoke"])
    net.run()
    frames_before = net.sent.total()
    start = net.now
    handle = peers[-1].discover(AdvertQuery("service", "Target"), ttl=ttl)
    found = discovered(handle, timeout=3.0)
    elapsed = net.now - start
    net.run()
    return found, elapsed, net.sent.total() - frames_before


def run_ab4_experiment():
    rows = []
    for label, build in (("flat group", build_flat_group),
                         ("3-regular overlay", build_regular_graph)):
        for ttl in (1, 3, 6):
            found, elapsed, frames = probe(build, ttl)
            rows.append(
                [label, ttl, "found" if found else "not found",
                 fmt_ms(elapsed) if found else "-", frames]
            )
    print_table(
        f"AB4  discovery topology ablation ({N_PEERS} peers)",
        ["topology", "ttl", "result", "latency", "frames"],
        rows,
        note="the flat group reaches everyone in one hop at O(N) frames "
        "per query; the sparse overlay needs TTL ~ graph diameter but "
        "each peer only ever talks to its k neighbours",
    )
    return rows


def test_ab4_flat_group_always_one_hop():
    found, elapsed, _ = probe(build_flat_group, ttl=1)
    assert found
    assert elapsed < 0.02


def test_ab4_overlay_needs_ttl():
    found_small, _, _ = probe(build_regular_graph, ttl=1)
    found_large, _, _ = probe(build_regular_graph, ttl=8)
    assert found_large
    # on a 24-node 3-regular graph the farthest peer is >1 hop away
    assert not found_small


def test_ab4_overlay_per_peer_fanout_is_degree_bounded():
    net, peers = build_regular_graph()
    peers[0].create_input_pipe("invoke", "Target")
    peers[0].publish_service("Target", ["invoke"])
    net.run()
    net.sent.clear()
    peers[-1].discover(AdvertQuery("service", "Target"), ttl=10)
    net.run()
    # no peer ever sends more frames per query than its degree + response
    assert net.sent.max() <= DEGREE + 2


def test_bench_overlay_discovery(benchmark):
    benchmark(lambda: probe(build_regular_graph, ttl=8))


if __name__ == "__main__":
    run_ab4_experiment()
