"""The one registry of every event ``kind`` the interface tree fires.

The paper's event model is only as debuggable as its vocabulary: a
subsystem that invents a new ``kind`` string nobody documents is a
silent hole in every trace.  This module is the single source of truth
— each kind the tree can fire, its family, and what it means.  A
regression test replays representative invocations through a recording
listener and asserts every observed kind is documented here, so adding
an event without registering it fails CI instead of vanishing.

:class:`~repro.observability.spans.SpanTracer` also consults this
registry: events with unknown kinds are still recorded (traces must
never drop data) but are tallied in ``tracer.unknown_kinds`` so the
gap is visible.
"""

from __future__ import annotations

#: family name -> the ``fire_*`` helper that emits it ("harness" kinds
#: come from the fault schedule's duck-typed events, not a fire_* helper)
FAMILIES = ("client", "server", "discovery", "publish", "deployment",
            "harness")

#: kind -> (family, meaning).  Keep alphabetical within each block.
KIND_REGISTRY: dict[str, tuple[str, str]] = {
    # -- client: fired by invocation nodes and the failover executor ------
    "circuit-closed": ("client", "endpoint breaker recovered to closed"),
    "circuit-half-open": ("client", "endpoint breaker probing after open_timeout"),
    "circuit-open": ("client", "endpoint breaker tripped; calls shed fast"),
    "failover": ("client", "logical call hopped to another endpoint"),
    "failover-exhausted": ("client", "every candidate endpoint failed the call"),
    "invoke-failed": ("client", "invocation concluded with an error"),
    "oneway-acked": ("client", "provider acknowledged a reliable one-way"),
    "oneway-failed": ("client", "one-way send gave up (no ack / send error)"),
    "oneway-sent": ("client", "notification-style request left the node"),
    "request-sent": ("client", "request/response invocation attempt sent"),
    "response-received": ("client", "response decoded; invocation succeeded"),
    "retransmit": ("client", "same MessageID re-sent after timeout/backoff"),
    "session-handoff": ("client", "stateful call redirected to a caught-up replica"),
    # -- server: fired by the container and provider-side deployers -------
    "ack-sent": ("server", "receipt ack sent down the requester's ack pipe"),
    "ack-undeliverable": ("server", "receipt ack could not be delivered"),
    "delta-applied": ("server", "shipped state delta folded into the replica"),
    "delta-buffered": ("server", "out-of-order delta held until the gap fills"),
    "delta-ship-failed": ("server", "delta fan-out to one member gave up"),
    "delta-shipped": ("server", "state delta fanned out to a group member"),
    "duplicate-suppressed": ("server", "retransmitted MessageID answered from dedup"),
    "malformed-request": ("server", "unparseable request dropped at the boundary"),
    "reply-undeliverable": ("server", "response could not reach the ReplyTo pipe"),
    "request-intercepted": ("server", "application interceptor answered directly"),
    "replica-lagging": ("server", "member refused a session it is behind on"),
    "request-received": ("server", "request entered the container"),
    "request-shed": ("server", "admission control answered Server.Busy"),
    "response-sent": ("server", "response left the container"),
    "session-resynced": ("server", "anti-entropy pull re-converged a session"),
    "snapshot-installed": ("server", "full session snapshot adopted (dominance)"),
    "state-diverged": ("server", "equal-seq deltas with different digests"),
    # -- discovery: fired by service locators -----------------------------
    "cache-hit": ("discovery", "rendezvous cache answered without any frame"),
    "endpoint-quarantined": ("discovery", "health verdict DEAD; EPR withheld"),
    "endpoint-restored": ("discovery", "health verdict ALIVE; EPR served again"),
    "query-empty": ("discovery", "query completed with no matches"),
    "query-failed": ("discovery", "locate aborted (registry unreachable, ...)"),
    "query-issued": ("discovery", "locate started against a discovery source"),
    "read-repair": ("discovery", "stale replica rewritten with freshest record"),
    "service-found": ("discovery", "a matching service handle was produced"),
    "service-skipped": ("discovery", "a candidate was rejected (no WSDL, ...)"),
    # -- publish: fired by service publishers -----------------------------
    "publish-failed": ("publish", "registry/advert publication failed"),
    "published": ("publish", "service made findable"),
    "withdrawn": ("publish", "service removed from discovery"),
    # -- deployment: fired by the container and deployers -----------------
    "deployed": ("deployment", "live object exposed as a service"),
    "endpoint-closed": ("deployment", "HTTP(G) endpoint removed"),
    "endpoint-opened": ("deployment", "HTTP(G) endpoint routed"),
    "http-server-launched": ("deployment", "first deploy started the listener"),
    "http-server-stopped": ("deployment", "last undeploy stopped the listener"),
    "pipes-closed": ("deployment", "P2PS operation pipes closed"),
    "pipes-opened": ("deployment", "P2PS operation pipes created + advertised"),
    "undeployed": ("deployment", "service removed from the container"),
    # -- harness: fault actions from the simnet fault schedule -------------
    "brownout-ended": ("harness", "browned-out node's service time restored"),
    "brownout-started": ("harness", "node slowed to a degraded service time"),
    "frame-drop-armed": ("harness", "next matching frame will be discarded"),
    "kill-triggered": ("harness", "event trigger matched; kill is firing"),
    "network-partitioned": ("harness", "frames between node groups dropped"),
    "node-killed": ("harness", "node taken down by the fault schedule"),
    "node-restarted": ("harness", "killed node brought back up"),
    "partition-healed": ("harness", "partition removed; frames cross again"),
}

#: the flat set used by fast membership checks
KNOWN_KINDS = frozenset(KIND_REGISTRY)


def family_of(kind: str) -> str:
    """The family of *kind* ('unknown' when unregistered)."""
    entry = KIND_REGISTRY.get(kind)
    return entry[0] if entry is not None else "unknown"


def is_known(kind: str) -> bool:
    return kind in KNOWN_KINDS
