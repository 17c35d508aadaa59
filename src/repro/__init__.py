"""WSPeer reproduction — an interface to Web service hosting and invocation.

A from-scratch Python reproduction of Harrison & Taylor, "WSPeer — An
Interface to Web Service Hosting and Invocation" (IPPS 2005).  See
README.md for the tour and DESIGN.md for the per-subsystem inventory.

The most common entry points are re-exported here::

    from repro import WSPeer, StandardBinding, P2psBinding, Network

    net = Network()
    peer = WSPeer(net.add_node("me"), StandardBinding(registry_uri))
"""

from repro._exports import exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = exports(__name__, {
    ".core.binding": ("Binding", "P2psBinding", "StandardBinding"),
    ".core.events": ("PeerMessageListener",),
    ".core.handle": ("ServiceHandle",),
    ".core.query": ("P2PSServiceQuery", "ServiceQuery", "UDDIServiceQuery"),
    ".core.wspeer": ("WSPeer",),
    ".p2ps.group": ("PeerGroup",),
    ".simnet.network": ("Network",),
    ".uddi.service": ("UddiRegistryNode",),
})
__all__.append("__version__")
