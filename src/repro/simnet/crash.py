"""The crash-consistency harness (E15): adversarial, *surgical* kills.

:class:`~repro.simnet.churn.ChurnSchedule` kills nodes at scheduled
virtual times; that is the background weather.  Crash-consistency
testing needs something sharper — kill the primary **at a protocol
point**: the instant a request arrives (before execution), the instant
the first delta leaves (mid-ship), the instant the response goes out
(after ship), while a snapshot is being served, or in the middle of a
client's failover handoff.  Those points are only observable as
*events*, so the harness triggers on them.

The harness stays layering-clean: it never imports the core engine.
Triggers are duck-typed listener objects (anything with a
``message_received(event)`` method can be attached to any
``EventSource``), and frame surgery uses the network's delivery-hook
protocol.  Every action is recorded with its virtual time so a bench
can print exactly when and why each kill happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.simnet.network import Frame, Network


@dataclass
class CrashAction:
    """One thing the harness did, with when and why."""

    time: float
    action: str
    node: str
    detail: str = ""


#: harness action -> the event ``kind`` broadcast for it (registered in
#: :mod:`repro.observability.kinds` under the "harness" family)
KIND_BY_ACTION = {
    "kill": "node-killed",
    "restart": "node-restarted",
    "trigger": "kill-triggered",
    "arm-drop": "frame-drop-armed",
}


@dataclass
class HarnessEvent:
    """Duck-typed event the harness broadcasts for each recorded action.

    Shaped like the core tree's ``PeerEvent`` (``kind`` / ``time`` /
    ``source`` / ``detail``) without importing it — the harness stays
    below the engine in the layering.  ``detail`` values are primitives
    only, so flight recorders can store them verbatim.
    """

    kind: str
    time: float
    source: str
    detail: dict[str, Any] = field(default_factory=dict)


class EventTrigger:
    """A duck-typed listener that runs an action on a matching event.

    Attach to any event source (``source.add_listener(trigger)``); the
    first event whose ``kind`` matches *kind* (and passes the optional
    *match* predicate) runs *action(event)*.  ``once=True`` (default)
    makes the trigger self-disarming — double delivery cannot re-fire
    it — and ``armed_after`` skips the first N matches first, so "kill
    on the *second* delta ship" is expressible.
    """

    def __init__(
        self,
        kind: str,
        action: Callable[[Any], None],
        match: Optional[Callable[[Any], bool]] = None,
        once: bool = True,
        armed_after: int = 0,
    ):
        self.kind = kind
        self.action = action
        self.match = match
        self.once = once
        self.skips_left = armed_after
        self.fired = 0

    def message_received(self, event: Any) -> None:
        if self.once and self.fired:
            return
        if getattr(event, "kind", None) != self.kind:
            return
        if self.match is not None and not self.match(event):
            return
        if self.skips_left > 0:
            self.skips_left -= 1
            return
        self.fired += 1
        self.action(event)


class _OneShotDrop:
    """A delivery hook that drops matching frames, then detaches.

    ``detach`` is idempotent (the network's hook removal tolerates
    redundant calls, and the hook flags itself done) — the same
    contract :class:`~repro.simnet.faults.DropInjector` provides.
    """

    def __init__(
        self,
        network: Network,
        predicate: Callable[[Frame], bool],
        count: int = 1,
    ):
        self._network = network
        self._predicate = predicate
        self.remaining = count
        self.dropped = 0
        network.add_delivery_hook(self._hook)

    def _hook(self, frame: Frame) -> bool:
        if self.remaining <= 0:
            return True
        if not self._predicate(frame):
            return True
        self.remaining -= 1
        self.dropped += 1
        if self.remaining <= 0:
            self.detach()
        return False

    def detach(self) -> None:
        self.remaining = 0
        self._network.remove_delivery_hook(self._hook)


class CrashHarness:
    """Kills nodes at event-defined protocol points, with a full log."""

    def __init__(self, network: Network):
        self.network = network
        self.kernel = network.kernel
        self.log: list[CrashAction] = []
        self._triggers: list[EventTrigger] = []
        self._drops: list[_OneShotDrop] = []
        self._listeners: list[Any] = []

    # -- listeners -----------------------------------------------------
    def add_listener(self, listener: Any) -> None:
        """Attach a duck-typed listener (``message_received(event)``);
        it receives a :class:`HarnessEvent` per recorded action."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Any) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    # ------------------------------------------------------------------
    def _record(self, action: str, node: str, detail: str = "") -> None:
        self.log.append(CrashAction(self.kernel.now, action, node, detail))
        if self._listeners:
            event = HarnessEvent(
                KIND_BY_ACTION.get(action, action), self.kernel.now, node,
                {"node": node, "action": action, "label": detail},
            )
            for listener in list(self._listeners):
                listener.message_received(event)

    def kill(self, node_id: str, restart_after: Optional[float] = None) -> None:
        """Down *node_id* right now; optionally schedule its restart."""
        node = self.network.get_node(node_id)
        if node.up:
            node.go_down()
            self._record("kill", node_id)
        if restart_after is not None:
            self.schedule_restart(node_id, restart_after)

    def schedule_restart(self, node_id: str, after: float) -> None:
        node = self.network.get_node(node_id)

        def up() -> None:
            if not node.up:
                node.go_up()
                self._record("restart", node_id)

        self.kernel.schedule(after, up)

    # ------------------------------------------------------------------
    def kill_on_event(
        self,
        source: Any,
        kind: str,
        node_id: str,
        match: Optional[Callable[[Any], bool]] = None,
        armed_after: int = 0,
        defer: bool = False,
        restart_after: Optional[float] = None,
        label: str = "",
    ) -> EventTrigger:
        """Down *node_id* the moment *source* fires a *kind* event.

        With ``defer=True`` the kill lands one zero-delay kernel step
        later — "immediately after" the observed point rather than
        inside it, so frames the handler sends in the same instant
        still leave the node (the after-ship crash points).
        """

        def act(event: Any) -> None:
            detail = label or f"on {kind}"
            if defer:
                def down() -> None:
                    node = self.network.get_node(node_id)
                    if node.up:
                        node.go_down()
                        self._record("kill", node_id, f"{detail} (deferred)")
                    if restart_after is not None:
                        self.schedule_restart(node_id, restart_after)

                self.kernel.schedule(0.0, down)
            else:
                self._record("trigger", node_id, detail)
                self.kill(node_id, restart_after=restart_after)

        trigger = EventTrigger(kind, act, match=match, armed_after=armed_after)
        source.add_listener(trigger)
        self._triggers.append(trigger)
        return trigger

    # ------------------------------------------------------------------
    def drop_next(
        self,
        predicate: Callable[[Frame], bool],
        count: int = 1,
        label: str = "",
    ) -> _OneShotDrop:
        """Silently drop the next *count* frames matching *predicate*.

        The surgical half of a crash point: e.g. drop the primary's
        reply frame (but let its delta ships through), then kill it —
        the client sees a timeout for a request the primary *did*
        execute, exactly the at-most-once-across-handoff scenario.
        """
        drop = _OneShotDrop(self.network, predicate, count=count)
        self._drops.append(drop)
        self._record("arm-drop", "*", label or "one-shot frame drop")
        return drop

    def drop_replies_from(self, node_id: str, count: int = 1) -> _OneShotDrop:
        """Drop the next *count* HTTP reply frames leaving *node_id*
        (requests and delta ships pass untouched)."""
        return self.drop_next(
            lambda f: f.src == node_id and f.meta.get("kind") == "response",
            count=count,
            label=f"drop {count} reply frame(s) from {node_id}",
        )

    # ------------------------------------------------------------------
    def detach(self) -> None:
        """Disarm every armed drop (triggers disarm themselves).
        Idempotent."""
        for drop in self._drops:
            drop.detach()

    @property
    def kills(self) -> list[CrashAction]:
        return [a for a in self.log if a.action == "kill"]

    def describe(self) -> list[str]:
        return [
            f"t={a.time:.3f} {a.action} {a.node} {a.detail}".rstrip()
            for a in self.log
        ]
