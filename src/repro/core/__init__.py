"""WSPeer — the paper's primary contribution.

"WSPeer acts as an interface to hosting and invoking Web services"
(§III) between an application and whatever network it is deployed into.
The package mirrors the paper's interface tree (Fig. 2):

::

                        Peer
                   /            \\
              Client            Server
             /      \\          /      \\
    ServiceLocator Invocation ServiceDeployer ServicePublisher

- parents create (or accept registration of) their children and listen
  to them; every event propagates up to the :class:`WSPeer` root, where
  application code implementing :class:`PeerMessageListener` hears all
  five event families (discovery, publish, client, server, deployment);
- WSPeer is **asynchronous and event-driven** at the core, with
  synchronous calls built on top by pumping the simulation kernel;
- hosting needs **no container**: deploying generates WSDL from a live
  object and opens an endpoint, and the application may intercept
  requests before the engine sees them;
- a deployed service fronts **stateful objects** — per-operation target
  objects included;
- bindings are **pluggable**: the ``standard`` binding speaks
  SOAP/HTTP(+HTTPG) with UDDI discovery (Fig. 3), the ``p2ps`` binding
  speaks SOAP over P2PS pipes with WS-Addressing reply routing
  (Figs. 4–6), and their components can be mixed (§IV).
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".events": (
        "ClientMessageEvent", "DeploymentMessageEvent", "DiscoveryMessageEvent",
        "EventSource", "PeerMessageListener", "PublishMessageEvent",
        "ServerMessageEvent",
    ),
    ".query": ("P2PSServiceQuery", "ServiceQuery", "UDDIServiceQuery"),
    ".handle": ("ServiceHandle",),
    ".hosting": ("DeployedService", "LightweightContainer"),
    ".errors": ("WsPeerError", "DeploymentError", "DiscoveryError", "InvocationError"),
    ".wspeer": ("WSPeer",),
})
