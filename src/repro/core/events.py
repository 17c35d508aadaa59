"""The WSPeer event model.

The paper's interface listing (§III)::

    public interface PeerMessageListener {
        messageReceived(DiscoveryMessageEvent evt);
        messageReceived(PublishMessageEvent evt);
        messageReceived(ClientMessageEvent evt);
        messageReceived(ServerMessageEvent evt);
        messageReceived(DeploymentMessageEvent evt);
    }

Python has no overloads, so :class:`PeerMessageListener` exposes one
``message_received`` dispatcher plus five overridable per-family
methods.  "Nodes in the tree create implementations of their child
nodes, register themselves as listeners to them, and receive
notification of events fired by them ... All events are propagated
upwards to the root of the interface tree."  :class:`EventSource`
implements exactly that: fire locally, then forward to the parent.

An unheard event is not built: a ``fire_*`` helper whose node has no
listener on its path to the root builds no event and reads no clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class PeerEvent:
    """Base event: what happened, where, when (virtual time)."""

    kind: str
    time: float
    source: str  # name of the tree node that fired it
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass
class DiscoveryMessageEvent(PeerEvent):
    """Fired by ServiceLocators: query issued / service found / failed."""


@dataclass
class PublishMessageEvent(PeerEvent):
    """Fired by ServicePublishers: service published / withdrawn."""


@dataclass
class ClientMessageEvent(PeerEvent):
    """Fired by Invocations: request sent / response received / fault."""


@dataclass
class ServerMessageEvent(PeerEvent):
    """Fired server-side: request received / response sent — either side
    of the messaging engine, which is the hook that lets the application
    act as its own container."""


@dataclass
class DeploymentMessageEvent(PeerEvent):
    """Fired by ServiceDeployers: service deployed / undeployed."""


class PeerMessageListener:
    """Application-facing listener; override the families you care about."""

    def message_received(self, event: PeerEvent) -> None:
        """Dispatches to the per-family methods; usually not overridden."""
        if isinstance(event, DiscoveryMessageEvent):
            self.on_discovery_message(event)
        elif isinstance(event, PublishMessageEvent):
            self.on_publish_message(event)
        elif isinstance(event, ClientMessageEvent):
            self.on_client_message(event)
        elif isinstance(event, ServerMessageEvent):
            self.on_server_message(event)
        elif isinstance(event, DeploymentMessageEvent):
            self.on_deployment_message(event)

    def on_discovery_message(self, event: DiscoveryMessageEvent) -> None: ...

    def on_publish_message(self, event: PublishMessageEvent) -> None: ...

    def on_client_message(self, event: ClientMessageEvent) -> None: ...

    def on_server_message(self, event: ServerMessageEvent) -> None: ...

    def on_deployment_message(self, event: DeploymentMessageEvent) -> None: ...


class RecordingListener(PeerMessageListener):
    """Test/diagnostic helper: keeps every event it hears."""

    def __init__(self) -> None:
        self.events: list[PeerEvent] = []

    def message_received(self, event: PeerEvent) -> None:
        self.events.append(event)
        super().message_received(event)

    def of_kind(self, kind: str) -> list[PeerEvent]:
        return [e for e in self.events if e.kind == kind]

    def kinds(self) -> list[str]:
        return [e.kind for e in self.events]


class EventSource:
    """A node of the interface tree: fires events, propagates upward."""

    def __init__(self, node_name: str, parent: Optional["EventSource"] = None):
        self.node_name = node_name
        self.parent = parent
        self._listeners: list[PeerMessageListener] = []

    def add_listener(self, listener: PeerMessageListener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: PeerMessageListener) -> None:
        self._listeners.remove(listener)

    def fire(self, event: PeerEvent) -> None:
        """Notify local listeners then propagate to the parent."""
        for listener in list(self._listeners):
            listener.message_received(event)
        if self.parent is not None:
            self.parent.fire(event)

    # -- event construction helpers -------------------------------------------
    def _now(self) -> float:
        return 0.0  # overridden by nodes that know the kernel

    def _fire(self, cls: type, kind: str, detail: dict[str, Any]) -> None:
        node: Optional[EventSource] = self  # anyone listening on the path?
        while node is not None:
            if node._listeners:
                self.fire(cls(kind, self._now(), self.node_name, detail))
                return
            node = node.parent

    def fire_discovery(self, kind: str, **detail: Any) -> None:
        self._fire(DiscoveryMessageEvent, kind, detail)

    def fire_publish(self, kind: str, **detail: Any) -> None:
        self._fire(PublishMessageEvent, kind, detail)

    def fire_client(self, kind: str, **detail: Any) -> None:
        self._fire(ClientMessageEvent, kind, detail)

    def fire_server(self, kind: str, **detail: Any) -> None:
        self._fire(ServerMessageEvent, kind, detail)

    def fire_deployment(self, kind: str, **detail: Any) -> None:
        self._fire(DeploymentMessageEvent, kind, detail)
