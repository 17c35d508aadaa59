"""The WSPeer facade — the root ``Peer`` of the interface tree (Fig. 2).

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
        #: set by :meth:`enable_failover`
        self.failover = None
        #: set by :meth:`enable_distributed_discovery`
        self.discovery = None
        #: set by :meth:`enable_observability`
        self.tracer = None
        #: the one connection pool every HTTP(G) client of this peer
        #: leases from (E11); configured by :meth:`enable_http_keepalive`
        self.http_pool = ConnectionPool(node)
        #: set by :meth:`enable_replication`
        self.replication = None
        #: set by :meth:`enable_flight_recorder`
        self.flight = None
        #: set by :meth:`enable_slo`
        self.slo = None
        #: set by :meth:`enable_cluster_metrics`
        self.cluster_metrics = None

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

    def set_admission_control(
        self, capacity: Optional[float] = 8.0, drain_rate: float = 50.0
    ):
        """Bound this peer's pending-request queue; overload answers
        with ``Server.Busy`` + retry-after instead of queueing forever."""
        return self.server.container.set_admission_control(
            capacity=capacity, drain_rate=drain_rate
        )

    def configure_workers(
        self,
        n: int,
        queue_limit: Optional[float] = None,
        service_time: Optional[float] = None,
    ):
        """Give this peer's hosting node an *n*-wide worker pool (E13).

        Request processing is modelled in virtual time as N simulated
        workers draining one queue: a slow handler occupies one worker
        while the other N-1 keep serving, so it no longer
        head-of-line-blocks the whole peer.  *queue_limit* bounds the
        number of waiting requests — overflow is answered Busy with a
        retry-after hint (503 on the HTTP/HTTPG server paths, a traced
        drop recovered by reliability retransmits on lossy P2PS pipes)
        instead of queueing forever.  *service_time* optionally sets the
        per-request processing cost in the same call (see also
        ``node.frame_cost`` for mixed per-request costs).  Returns the
        node, whose ``worker_stats()`` feeds the metrics registry.
        """
        from repro.observability import metrics as obs_metrics

        node = self.node
        node.configure_workers(n, queue_limit=queue_limit)
        if service_time is not None:
            node.service_time = service_time
        self.server.container.set_worker_policy(n, queue_limit=queue_limit)
        obs_metrics.default_registry().add_collector(
            f"workers.{node.id}", node.worker_stats
        )
        return node

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
    # supervision
    # ------------------------------------------------------------------
    def enable_failover(self, extra_invokers: Optional[dict] = None):
        """Supervise multi-endpoint handles: health-ranked invocation
        with cross-endpoint (and, with *extra_invokers*, cross-binding)
        failover.

        Wires a :class:`~repro.supervision.FailoverExecutor` over the
        client's active invocation node, attaches its circuit breakers
        to the health ranking, and feeds dead/alive verdicts into the
        locator so stale EPRs stop being handed out.  *extra_invokers*
        maps additional URI schemes to invocation nodes (e.g.
        ``{"p2ps": p2ps_invocation}`` on an HTTP-bound peer).  Returns
        the executor, also kept as ``self.failover``.
        """
        from repro.supervision import FailoverExecutor, HealthMonitor

        health = HealthMonitor(clock=self._clock)
        executor = FailoverExecutor(self.node.network.kernel, health, parent=self.client)
        invocation = self.client.invocation
        for scheme in invocation.schemes:
            executor.register_invoker(scheme, invocation)
        for scheme, invoker in (extra_invokers or {}).items():
            executor.register_invoker(scheme, invoker)
        health.attach_breakers(invocation.breakers)
        if self.client.locator is not None:
            self.client.locator.watch_health(health)
        self.http_pool.attach_health(health)
        self.failover = executor
        return executor

    # ------------------------------------------------------------------
    # replication (E15)
    # ------------------------------------------------------------------
    def enable_replication(
        self,
        name: str,
        replicas,
        r: int = 2,
        config=None,
        anti_entropy: bool = True,
    ):
        """Replicate the deployed stateful service *name* across *r* of
        the *replicas* peers (each must hold its own deployment of the
        same service).

        The one-line migration for a stateful provider: every
        state-changing execution on any member ships a versioned delta
        to the others over the ordinary transports; a client with
        :meth:`enable_failover` redirects a dead-endpoint call to the
        most-caught-up live member, and the shipped
        ``(MessageID, response)`` pairs keep the redirected
        retransmission at-most-once.  When this peer (or any member
        peer) has a failover executor, it is attached to the group's
        handoff directory automatically.  Returns the
        :class:`~repro.replication.ReplicationGroup`, also kept as
        ``self.replication``.
        """
        from repro.replication import ReplicationGroup

        group = ReplicationGroup.establish(
            self, name, replicas, r=r, config=config
        )
        if anti_entropy:
            group.start_anti_entropy()
        for member in group.members:
            if member.peer.failover is not None:
                member.peer.failover.attach_replication(group)
        if self.failover is not None:
            self.failover.attach_replication(group)
        self.replication = group
        return group

    # ------------------------------------------------------------------
    # distributed discovery (E12)
    # ------------------------------------------------------------------
    def enable_distributed_discovery(
        self,
        plane,
        business_name: str = "WSPeer",
        lease_ttl: Optional[float] = None,
        with_gossip: bool = True,
    ):
        """Route this peer's locate/publish through a
        :class:`~repro.discovery.plane.DiscoveryPlane`.

        Swaps in the plane's locator and publisher (sharded + replicated
        registries, rendezvous cache, gossip freshness) behind the same
        ``locate``/``publish`` calls.  Works in either order with
        :meth:`enable_failover`: whichever comes second finds the other
        already in place, so health verdicts always reach the cache.
        *lease_ttl* puts every publication on a registration lease.
        Returns the peer's :class:`~repro.discovery.DiscoveryClient`,
        also kept as ``self.discovery``.
        """
        return plane.attach(
            self,
            business_name=business_name,
            lease_ttl=lease_ttl,
            with_gossip=with_gossip,
        )

    # ------------------------------------------------------------------
    # connection management (E11)
    # ------------------------------------------------------------------
    def enable_http_keepalive(self, config=None):
        """Apply *config* (a :class:`~repro.transport.connection.PoolConfig`;
        None keeps the current one) to this peer's HTTP connection pool,
        live connections included.

        Every outbound HTTP(G) call already rides ``self.http_pool``:
        retries and failover hops reuse warm connections, and with
        failover enabled ``dead`` verdicts evict the connections to that
        endpoint.  Returns the pool.
        """
        if not isinstance(self.client.invocation, HttpInvocation):
            raise WsPeerError(
                f"binding {self.binding.name!r} has no poolable HTTP transport"
            )
        if config is not None:
            self.http_pool.config = config
        return self.http_pool

    def enable_streaming(
        self,
        chunk_threshold: int = 256 * 1024,
        chunk_size: int = 64 * 1024,
        window: int = 8,
        pool_config=None,
    ):
        """Stream large messages as chunked frames (E16).

        Sets the chunking knobs on both directions (on *pool_config*,
        if given, else on the pool's config): outbound requests larger
        than *chunk_threshold* bytes leave as credit-windowed
        ``chunk`` frames of *chunk_size* bytes, and this peer's HTTP
        server, handed the same config, answers oversized responses
        the same way.  In-flight memory per stream is bounded by
        ``window × chunk_size``, and streamed exchanges do not
        head-of-line-block pipelined small calls.  Returns the
        connection pool.
        """
        import dataclasses

        pool = self.http_pool
        pool.config = dataclasses.replace(
            pool_config or pool.config,
            chunk_threshold=chunk_threshold,
            chunk_size=chunk_size,
            stream_window=window,
        )
        server = getattr(self.server.deployer, "server", None)
        if server is not None:
            server.config = pool.config
        return pool

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
        (their request queues start empty again).  Returns the
        underlying :class:`~repro.transport.http.HttpServer`.
        """
        server = getattr(self.server.deployer, "server", None)
        if server is None:
            raise WsPeerError(f"binding {self.binding.name!r} has no HTTP server")
        if max_pending_per_connection is not self._UNSET:
            server.max_pending_per_connection = max_pending_per_connection
        if drain_rate is not None:
            server.conn_drain_rate = drain_rate
        if idle_timeout is not self._UNSET:
            server.conn_idle_timeout = idle_timeout
        for conn in server.connections:
            conn.reset_admission()
        return server

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def enable_observability(
        self, tracer=None, codec: bool = False, max_spans: int = 1024,
        propagate: bool = True,
    ):
        """Attach a span tracer at this peer's root.

        Every event the subtree fires is stitched into per-invocation
        span trees keyed by ``wsa:MessageID``.  Pass an existing
        *tracer* to share one store across several peers (client and
        providers), so one tree shows both sides of each exchange;
        ``codec=True`` additionally installs the tracer as the codec
        fast-path recorder.  *propagate* (default on) switches on
        wire trace-context propagation — outbound calls carry a
        ``repro:TraceContext`` header and servers continue the caller's
        trace, so one trace id spans client → primary → replicas
        across nodes.  The switch is process-wide (the sim runs many
        peers in one process); tests flip it back via
        ``tracecontext.reset()``.  Returns the tracer, also kept as
        ``self.tracer``.
        """
        from repro.observability import SpanTracer
        from repro.observability.tracecontext import set_propagation

        if tracer is None:
            tracer = SpanTracer(max_spans=max_spans)
        tracer.install(self, codec=codec)
        self.tracer = tracer
        if propagate:
            set_propagation(True)
        return tracer

    def enable_flight_recorder(self, recorder=None, capacity: int = 512):
        """Attach an always-on flight recorder at this peer's root.

        Keeps a bounded ring of recent events and freezes post-mortem
        dumps on catastrophic kinds (node kills, state divergence,
        breaker opens).  Pass an existing *recorder* to share one ring
        across peers.  Returns the recorder, kept as ``self.flight``.
        """
        from repro.observability.flight import FlightRecorder

        if recorder is None:
            recorder = FlightRecorder(capacity=capacity)
        recorder.install(self)
        self.flight = recorder
        return recorder

    def enable_slo(self, policy=None, engine=None):
        """Attach an SLO engine at this peer's root.

        Client-side invocation events become per-service burn-rate
        health (``engine.report()`` / ``GetSloStatus``).  Returns the
        engine, kept as ``self.slo``.
        """
        from repro.observability.slo import SloEngine

        if engine is None:
            engine = SloEngine(policy=policy)
        engine.install(self)
        self.slo = engine
        return engine

    def enable_cluster_metrics(
        self, registry=None, gossip=None, interval: Optional[float] = None,
    ):
        """Participate in cluster metric aggregation.

        Digests of *registry* (default: the process registry) ride the
        gossip overlay when *gossip* is given — pass *interval* to
        publish periodically on the peer's clock kernel — and the
        introspection service serves the merged view via
        ``GetClusterMetrics`` / ``GetMetricsDigest``.  Returns the
        agent, kept as ``self.cluster_metrics``.
        """
        from repro.observability.cluster import ClusterMetricsAgent

        agent = ClusterMetricsAgent(
            self, registry=registry, gossip=gossip, clock=self._clock,
        )
        self.cluster_metrics = agent
        if interval is not None and gossip is not None:
            agent.start(gossip.node.network.kernel, interval)
        return agent

    def host_introspection(self, name: str = "Introspection", tracer=None):
        """Deploy the peer's self-description service.

        ``GetMetrics`` / ``GetTrace(message_id)`` / ``ListServices``
        become invocable over this peer's binding like any other
        operations — the observability outputs are themselves services
        (the paper's symmetric-peer argument applied to the peer's own
        internals).  Uses ``self.tracer`` (enable observability first
        for trace queries) unless *tracer* is given.  Returns the
        :class:`~repro.core.hosting.DeployedService`.
        """
        from repro.observability import INTROSPECTION_NS, IntrospectionService
        from repro.observability.introspection import OPERATIONS

        service = IntrospectionService(
            self, tracer if tracer is not None else self.tracer
        )
        return self.deploy(
            service,
            name=name,
            namespace=INTROSPECTION_NS,
            include=list(OPERATIONS),
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"<WSPeer {self.name} binding={self.binding.name} "
            f"deployed={self.deployed_services}>"
        )
