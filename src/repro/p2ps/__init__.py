"""P2PS — Peer-to-Peer Simplified (Wang, 2003), rebuilt from the paper.

The original P2PS was a Java library; the WSPeer paper (§IV-B)
describes the two characteristics its binding depends on, and this
package implements both from that description:

1. **Pipes** — abstract, generally unidirectional channels between
   peers identified by *logical* ids.  Creating a pipe requires an
   :class:`EndpointResolver` to turn a logical endpoint into a physical
   one; data is received by adding a listener to an input pipe.
2. **XML advertisements** — :class:`PipeAdvertisement` /
   :class:`ServiceAdvertisement` / :class:`PeerAdvertisement` published
   into the group and matched by queries.  Publish/discovery follows
   the paper's P2P pattern: broadcast within the group, local cache
   match, rendezvous peers caching adverts and propagating queries to
   other rendezvous they know about.

Everything rides the simulated network as real XML frames.
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".ids": ("new_peer_id", "new_pipe_id", "new_query_id"),
    ".advertisements": (
        "AdvertError", "Advertisement", "PeerAdvertisement", "PipeAdvertisement",
        "ServiceAdvertisement", "parse_advertisement",
    ),
    ".query": ("AdvertQuery",),
    ".pipes": (
        "EndpointResolver", "InputPipe", "OutputPipe", "PipeError", "ResolutionError",
    ),
    ".peer": ("Peer",),
    ".group": ("PeerGroup",),
})
