"""WSPeer — the root ``Peer`` of the interface tree (Fig. 2).

One :class:`WSPeer` makes one application node a *service-oriented
peer*: simultaneously a provider (``server`` side: deploy → publish)
and a consumer (``client`` side: locate → invoke).  Application code
adds a :class:`~repro.core.events.PeerMessageListener` to the root and
hears every event the subtree fires.

Children can be replaced at runtime ("implementations of child nodes
can be registered with parent nodes ... allowing users to insert
variations into the tree at any level"): pass a second binding for the
client side, or call :meth:`Client.register_locator` /
:meth:`Client.register_invocation` with any compatible component —
that is how a P2PS peer uses a UDDI locator (§IV, experiment E6).

Every other subsystem attaches to the root through its own entry
point, which takes the peer: ``attach_failover(peer)``,
``DiscoveryPlane.attach(peer)``, ``ReplicationGroup.establish(peer,
…)``, ``SpanTracer`` / ``FlightRecorder`` / ``SloEngine``
``.install(peer)``, ``ClusterMetricsAgent(peer)``,
``host_introspection(peer)``; admission and worker pools are set on
``peer.server.container`` and ``peer.node``.  The peer's own opt-ins
are its HTTP connection knobs, :meth:`WSPeer.enable_http_keepalive`
and :meth:`WSPeer.configure_http_server`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.errors import DiscoveryError, WsPeerError
from repro.core.events import EventSource, PeerMessageListener
from repro.core.handle import ServiceHandle
from repro.core.hosting import DeployedService, Interceptor, LightweightContainer
from repro.core.invocation import HttpInvocation, Invocation, InvokeCallback
from repro.core.locator import OnComplete, OnFound, ServiceLocator
from repro.core.query import ServiceQuery
from repro.reliability import ReliabilityPolicy
from repro.simnet.network import Node
from repro.soap.encoding import StructRegistry
from repro.transport.connection import ConnectionPool

# imported for type checking/re-export convenience
from repro.core.binding import Binding  # noqa: E402


class Client(EventSource):
    """The client side: ServiceLocator + Invocation (Fig. 2 left)."""

    def __init__(self, parent: EventSource):
        super().__init__("client", parent)
        self.locator: Optional[ServiceLocator] = None
        self.invocation: Optional[Invocation] = None

    def register_locator(self, locator: ServiceLocator) -> None:
        """Insert a locator variation at runtime (re-parents its events)."""
        locator.parent = self
        self.locator = locator

    def register_invocation(self, invocation: Invocation) -> None:
        invocation.parent = self
        self.invocation = invocation


class Server(EventSource):
    """The server side: ServiceDeployer + ServicePublisher (Fig. 2 right)."""

    def __init__(self, parent: EventSource, clock):
        super().__init__("server", parent)
        self.container = LightweightContainer(parent=self, clock=clock)
        self.deployer = None
        self.publisher = None

    def register_deployer(self, deployer) -> None:  # type: ignore[no-untyped-def]
        deployer.parent = self
        self.deployer = deployer

    def register_publisher(self, publisher) -> None:  # type: ignore[no-untyped-def]
        publisher.parent = self
        self.publisher = publisher


class WSPeer(EventSource):
    """The root of the interface tree: one service-oriented peer."""

    def __init__(
        self,
        node: Node,
        binding: Binding,
        client_binding: Optional[Binding] = None,
        name: str = "",
        listener: Optional[PeerMessageListener] = None,
    ):
        super().__init__("peer", parent=None)
        self.node = node
        self.name = name or node.id
        self.peer = None  # set by P2psBinding.ensure_peer when used
        self.binding = binding
        self._deployed: dict[str, DeployedService] = {}

        clock = lambda: node.network.kernel.now  # noqa: E731
        self._clock = clock
        self.server = Server(self, clock)
        self.client = Client(self)
        #: the failover executor, once
        #: :func:`~repro.supervision.failover.attach_failover` supervises
        #: this peer; discovery and replication wire their health and
        #: handoff views into it
        self.failover = None
        #: the one connection pool every HTTP(G) client of this peer
        #: leases from (E11); configured by :meth:`enable_http_keepalive`
        self.http_pool = ConnectionPool(node)

        self.server.register_deployer(binding.make_deployer(self))
        self.server.register_publisher(binding.make_publisher(self, self.server.deployer))
        effective_client = client_binding or binding
        self.client.register_locator(effective_client.make_locator(self))
        self.client.register_invocation(effective_client.make_invocation(self))

        if listener is not None:
            self.add_listener(listener)

    def _now(self) -> float:
        return self._clock()

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    def deploy(
        self,
        source: Any,
        name: Optional[str] = None,
        namespace: Optional[str] = None,
        include: Optional[list[str]] = None,
        registry: Optional[StructRegistry] = None,
    ) -> DeployedService:
        """Deploy *source* (live object or ServiceObject) and open its
        endpoint.  Dynamic: callable at any point at runtime."""
        deployed = self.server.container.deploy(
            source, name=name, namespace=namespace, include=include, registry=registry
        )
        self.server.deployer.deploy(deployed)
        self._deployed[deployed.name] = deployed
        return deployed

    def undeploy(self, name: str) -> None:
        deployed = self._deployed.pop(name, None)
        if deployed is None:
            raise WsPeerError(f"{name!r} was not deployed by this peer")
        self.server.deployer.undeploy(deployed)
        self.server.container.undeploy(name)

    def publish(self, name_or_service: str | DeployedService, **kwargs: Any) -> None:
        """Make a deployed service findable via this peer's publisher."""
        deployed = (
            name_or_service
            if isinstance(name_or_service, DeployedService)
            else self._deployed.get(name_or_service)
        )
        if deployed is None:
            raise WsPeerError(f"{name_or_service!r} is not deployed")
        self.server.publisher.publish(deployed, **kwargs)

    def set_interceptor(self, interceptor: Optional[Interceptor]) -> None:
        """Let the application handle requests before the engine (§III)."""
        self.server.container.interceptor = interceptor

    def local_handle(self, name: str) -> ServiceHandle:
        """A handle to one of this peer's own deployed services."""
        deployed = self._deployed.get(name)
        if deployed is None:
            raise WsPeerError(f"{name!r} is not deployed")
        return ServiceHandle(
            deployed.name, deployed.wsdl(), list(deployed.endpoints), source="local"
        )

    @property
    def deployed_services(self) -> list[str]:
        return sorted(self._deployed)

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def locate(
        self, query: ServiceQuery | str, timeout: float = 10.0, expect: int = 1
    ) -> list[ServiceHandle]:
        """Find services matching *query* (a ServiceQuery or bare name)."""
        if isinstance(query, str):
            query = ServiceQuery(query)
        return self.client.locator.locate(query, timeout=timeout, expect=expect)

    def locate_async(
        self,
        query: ServiceQuery | str,
        on_found: OnFound,
        on_complete: OnComplete = None,
        *,
        expect: int = 1,
        timeout: float = 10.0,
    ) -> None:
        """Event-driven discovery, on any locator: *on_found(handle)*
        fires per service as it resolves, *on_complete(count, error)*
        once it is over (see :meth:`ServiceLocator.locate_async`).
        :meth:`locate` is the same discovery with virtual time pumped
        until it completes."""
        if isinstance(query, str):
            query = ServiceQuery(query)
        self.client.locator.locate_async(
            query, on_found, on_complete, expect=expect, timeout=timeout
        )

    def locate_one(self, query: ServiceQuery | str, timeout: float = 10.0) -> ServiceHandle:
        handles = self.locate(query, timeout=timeout, expect=1)
        if not handles:
            described = query if isinstance(query, str) else query.describe()
            raise DiscoveryError(f"no service found for {described}")
        return handles[0]

    def invoke(
        self,
        handle: ServiceHandle,
        operation: str,
        args: Optional[dict[str, Any]] = None,
        timeout: Optional[float] = 30.0,
        policy: Optional["ReliabilityPolicy"] = None,
        **kwargs: Any,
    ) -> Any:
        return self.client.invocation.invoke(
            handle, operation, args, timeout=timeout, policy=policy, **kwargs
        )

    def invoke_async(
        self,
        handle: ServiceHandle,
        operation: str,
        args: dict[str, Any],
        callback: InvokeCallback,
        timeout: Optional[float] = None,
        policy: Optional["ReliabilityPolicy"] = None,
    ) -> None:
        self.client.invocation.invoke_async(
            handle, operation, args, callback, timeout, policy=policy
        )

    def invoke_oneway(
        self,
        handle: ServiceHandle,
        operation: str,
        args: Optional[dict[str, Any]] = None,
        policy: Optional["ReliabilityPolicy"] = None,
        timeout: Optional[float] = None,
        **kwargs: Any,
    ):
        """Notification-style send through the active invocation node.

        Returns ``None``, or an :class:`~repro.reliability.OnewayStatus`
        when the effective policy requests acknowledgements.
        """
        return self.client.invocation.invoke_oneway(
            handle, operation, args, policy=policy, timeout=timeout, **kwargs
        )

    def create_stub(
        self,
        handle: ServiceHandle,
        timeout: Optional[float] = 30.0,
        policy: Optional["ReliabilityPolicy"] = None,
    ) -> Any:
        return self.client.invocation.create_stub(handle, timeout=timeout, policy=policy)

    # ------------------------------------------------------------------
    # connection management (E11)
    # ------------------------------------------------------------------
    def enable_http_keepalive(self, config=None):
        """Apply *config* (a :class:`~repro.transport.connection.PoolConfig`;
        None keeps the current one) to this peer's HTTP connection pool,
        live connections included, and hand this peer's HTTP server the
        same object: the server reads only its chunk knobs, so
        ``chunk_threshold`` / ``chunk_size`` / ``stream_window`` stream
        large messages both ways (E16).

        Every outbound HTTP(G) call already rides ``self.http_pool``:
        retries and failover hops reuse warm connections, and with
        failover attached ``dead`` verdicts evict the connections to
        that endpoint.  Returns the pool.
        """
        if not isinstance(self.client.invocation, HttpInvocation):
            raise WsPeerError(
                f"binding {self.binding.name!r} has no poolable HTTP transport"
            )
        if config is not None:
            self.http_pool.config = config
            server = getattr(self.server.deployer, "server", None)
            if server is not None:
                server.config = config
        return self.http_pool

    _UNSET = object()

    def configure_http_server(
        self,
        max_pending_per_connection=_UNSET,
        drain_rate: Optional[float] = None,
        idle_timeout=_UNSET,
    ):
        """Tune this peer's HTTP server for persistent connections:
        the per-connection request-queue bound (``None`` disables
        shedding), its drain rate (requests/second), and the
        server-side idle timeout.  Applies to open connections too
        (their request queues start empty again).  A bound below 1, a
        drain rate that is not positive or a negative timeout raises
        ``ValueError`` and changes nothing.  Returns the underlying
        :class:`~repro.transport.http.HttpServer`.
        """
        server = getattr(self.server.deployer, "server", None)
        if server is None:
            raise WsPeerError(f"binding {self.binding.name!r} has no HTTP server")
        if max_pending_per_connection is self._UNSET:
            max_pending_per_connection = server.max_pending_per_connection
        if drain_rate is None:
            drain_rate = server.conn_drain_rate
        if idle_timeout is self._UNSET:
            idle_timeout = server.conn_idle_timeout
        if max_pending_per_connection is not None and max_pending_per_connection < 1:
            raise ValueError(
                f"max_pending_per_connection must be >= 1 or None, not {max_pending_per_connection}"
            )
        if drain_rate <= 0:
            raise ValueError(f"drain_rate must be positive, not {drain_rate}")
        if idle_timeout is not None and idle_timeout < 0:
            raise ValueError(f"idle_timeout must be >= 0 or None, not {idle_timeout}")
        server.max_pending_per_connection = max_pending_per_connection
        server.conn_drain_rate = drain_rate
        server.conn_idle_timeout = idle_timeout
        for conn in server.connections:
            conn.reset_admission()
        return server

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"<WSPeer {self.name} binding={self.binding.name} "
            f"deployed={self.deployed_services}>"
        )
