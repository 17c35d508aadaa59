"""Bindings: pluggable bundles of locator / publisher / deployer / invoker.

"By plugging in different components, WSPeer can communicate with
different entities without the application changing" (§III).  A
:class:`Binding` is a factory for the four leaf nodes of the interface
tree.  Two ship — :class:`StandardBinding` (Fig. 3) and
:class:`P2psBinding` (Fig. 4) — and because each leaf is created
independently, a peer can mix them: "a P2PS Client could use the UDDI
enabled ServiceLocator defined in the standard implementation" (§IV).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional

from repro.core.deployer import HttpServiceDeployer, ServiceDeployer
from repro.core.invocation import HttpInvocation, Invocation
from repro.core.locator import ServiceLocator, UddiServiceLocator
from repro.core.publisher import ServicePublisher, UddiServicePublisher
from repro.reliability import ReliabilityPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.wspeer import WSPeer
    from repro.p2ps.group import PeerGroup
    from repro.p2ps.peer import Peer
    from repro.transport.httpg import CertificateAuthority, Credential


class Binding(abc.ABC):
    """Factory for the four pluggable components of one WSPeer."""

    name = "binding"

    @abc.abstractmethod
    def make_deployer(self, wspeer: "WSPeer") -> ServiceDeployer: ...

    @abc.abstractmethod
    def make_publisher(self, wspeer: "WSPeer", deployer: ServiceDeployer) -> ServicePublisher: ...

    @abc.abstractmethod
    def make_locator(self, wspeer: "WSPeer") -> ServiceLocator: ...

    @abc.abstractmethod
    def make_invocation(self, wspeer: "WSPeer") -> Invocation: ...


class StandardBinding(Binding):
    """SOAP over HTTP (optionally HTTPG) with UDDI discovery (§IV-A)."""

    name = "standard"

    def __init__(
        self,
        registry_uri: str,
        http_port: int = 80,
        business_name: str = "WSPeer",
        ca: Optional[CertificateAuthority] = None,
        credential: Optional[Credential] = None,
    ):
        self.registry_uri = registry_uri
        self.http_port = http_port
        self.business_name = business_name
        self.ca = ca
        self.credential = credential

    def make_deployer(self, wspeer: "WSPeer") -> ServiceDeployer:
        return HttpServiceDeployer(
            wspeer.node, wspeer.server.container, self.http_port, parent=wspeer.server
        )

    # every HTTP(G) client below leases from the peer's one pool
    def make_publisher(self, wspeer: "WSPeer", deployer: ServiceDeployer) -> ServicePublisher:
        return UddiServicePublisher(
            wspeer.node, self.registry_uri, self.business_name, parent=wspeer.server,
            pool=wspeer.http_pool,
        )

    def make_locator(self, wspeer: "WSPeer") -> ServiceLocator:
        return UddiServiceLocator(
            wspeer.node, self.registry_uri, parent=wspeer.client, pool=wspeer.http_pool
        )

    def make_invocation(self, wspeer: "WSPeer") -> Invocation:
        extra = []
        if self.ca is not None and self.credential is not None:
            from repro.transport.httpg import HttpgTransport

            extra.append(
                HttpgTransport(wspeer.node, self.ca, self.credential, pool=wspeer.http_pool)
            )
        # HTTP retries connection-level errors only (a timed-out exchange
        # may have executed server-side); the invocation's
        # ``default_policy`` is where a peer sets another
        return HttpInvocation(
            wspeer.node, parent=wspeer.client, extra_transports=extra,
            default_policy=ReliabilityPolicy.standard_default(), pool=wspeer.http_pool,
        )


class P2psBinding(Binding):
    """SOAP over P2PS pipes with group/rendezvous discovery (§IV-B).

    All four components share one :class:`~repro.p2ps.peer.Peer`, which
    the binding creates lazily and joins to *group*.  They come from
    :mod:`repro.core.p2psmap`, loaded by the first of them.
    """

    name = "p2ps"

    def __init__(
        self,
        group: PeerGroup,
        rendezvous: bool = False,
        peer_name: str = "",
    ):
        self.group = group
        self.rendezvous = rendezvous
        self.peer_name = peer_name

    def ensure_peer(self, wspeer: "WSPeer") -> Peer:
        if wspeer.peer is None:
            from repro.p2ps.peer import Peer

            peer = Peer(wspeer.node, name=self.peer_name or wspeer.name, rendezvous=self.rendezvous)
            peer.join(self.group)
            wspeer.peer = peer
        return wspeer.peer

    def make_deployer(self, wspeer: "WSPeer") -> ServiceDeployer:
        from repro.core.p2psmap import P2psServiceDeployer

        return P2psServiceDeployer(
            self.ensure_peer(wspeer), wspeer.server.container, parent=wspeer.server
        )

    def make_publisher(self, wspeer: "WSPeer", deployer: ServiceDeployer) -> ServicePublisher:
        from repro.core.p2psmap import P2psServiceDeployer, P2psServicePublisher

        if not isinstance(deployer, P2psServiceDeployer):
            raise TypeError("P2PS publisher requires a P2PS deployer for its adverts")
        return P2psServicePublisher(
            self.ensure_peer(wspeer), deployer, parent=wspeer.server
        )

    def make_locator(self, wspeer: "WSPeer") -> ServiceLocator:
        from repro.core.p2psmap import P2psServiceLocator

        return P2psServiceLocator(self.ensure_peer(wspeer), parent=wspeer.client)

    def make_invocation(self, wspeer: "WSPeer") -> Invocation:
        from repro.core.p2psmap import P2psInvocation

        # pipes are fire-and-forget, so lapsed attempt timers retransmit
        # the same MessageID (provider dedup makes that safe); acks stay
        # opt-in through the invocation's ``default_policy``
        # (``ReliabilityPolicy.assured()``, the WS-RM-lite bundle)
        return P2psInvocation(
            self.ensure_peer(wspeer), parent=wspeer.client,
            default_policy=ReliabilityPolicy.p2ps_default(),
        )
