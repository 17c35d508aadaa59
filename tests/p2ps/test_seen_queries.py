"""Loop suppression holds a bounded window of query ids (E33).

A peer remembers the ids of the queries it has seen so a flood that
loops back is not answered or forwarded twice.  The memory is a FIFO of
``SEEN_QUERIES_CAP`` ids: a long-lived peer does not keep one id per
query it ever handled, and a loop back inside the window is still
suppressed.
"""

from repro.p2ps import AdvertQuery, Peer, PeerGroup
from repro.p2ps.peer import P2PS_PORT, SEEN_QUERIES_CAP
from repro.simnet import FixedLatency, Network
from repro.xmlkit import serialize


def _world():
    net = Network(latency=FixedLatency(0.001))
    group = PeerGroup("main")
    asker, answerer = (Peer(net.add_node(f"n{i}"), name=f"p{i}") for i in range(2))
    asker.join(group)
    answerer.join(group)
    answerer.publish(answerer.advertisement())  # what the probe query finds
    net.run()
    return net, asker, answerer


def _send_queries(net, asker, query, ids, answerable=False):
    """Deliver a query per id from the asker straight to the answerer
    (without the asker's advert, which an answer needs, unless
    *answerable*: the bulk queries skip parsing it)."""
    message = asker._message("query", [query.to_element()])
    if not answerable:
        message.remove(message.children[0])
    message.set("id", "{id}")
    message.set("ttl", "1")
    template = serialize(message)
    for query_id in ids:
        asker.node.send("n1", P2PS_PORT, template.replace("{id}", query_id))
    net.run()


def test_seen_query_ids_are_a_bounded_fifo():
    net, asker, answerer = _world()
    nothing = AdvertQuery(kind="service", name_pattern="Nothing")
    probe = AdvertQuery(kind="peer", name_pattern="p1")
    before = 10_000 - SEEN_QUERIES_CAP
    _send_queries(net, asker, nothing, (f"q{i}" for i in range(before)))
    answered = asker.messages_handled
    _send_queries(net, asker, probe, ["loop"], answerable=True)
    assert asker.messages_handled == answered + 1  # first sight: answered

    # 10 000 distinct queries in all, the probe's id now the oldest one
    # remembered: a loop back before it leaves the window is suppressed
    _send_queries(net, asker, nothing, (f"r{i}" for i in range(SEEN_QUERIES_CAP - 1)))
    assert answerer.messages_handled >= 10_000
    assert len(answerer._seen_queries) == SEEN_QUERIES_CAP
    _send_queries(net, asker, probe, ["loop"], answerable=True)
    assert asker.messages_handled == answered + 1
