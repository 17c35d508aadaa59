"""One fault schedule: the E9 churn scenarios and the E15 crash points.

A :class:`ChurnSchedule` lays faults on the kernel's virtual timeline —
kills and restarts (at a time, at seeded-random times, in cycles),
partitions, slow-node brownouts, surgical one-shot frame drops — or
fires a kill on an *event*, the instant a request arrives or a reply
leaves.  Every node goes down in :meth:`ChurnSchedule.kill` and comes
back in :meth:`ChurnSchedule.restart`; every action that fired is one
:class:`ChurnRecord` in one log and one :class:`HarnessEvent` to the
schedule's listeners.  An action that changes nothing (a kill of a node
already down, a restart of one already up) records nothing.

The schedule never imports the core tree: triggers are duck-typed
listeners (``message_received(event)``) and frame surgery is a delivery
hook from :mod:`repro.simnet.faults`.  A schedule replays identically
from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.simnet.faults import OneShotDrop, PartitionInjector
from repro.simnet.network import Frame, Network
from repro.simnet.rng import default_rng

#: schedule action -> the event ``kind`` broadcast for it (registered in
#: :mod:`repro.observability.kinds` under the "harness" family)
KIND_BY_ACTION = {
    "kill": "node-killed",
    "restart": "node-restarted",
    "trigger": "kill-triggered",
    "arm-drop": "frame-drop-armed",
    "partition": "network-partitioned",
    "heal": "partition-healed",
    "brownout": "brownout-started",
    "recover": "brownout-ended",
}


@dataclass
class ChurnRecord:
    """One action that fired, with when and why."""

    time: float
    kind: str  # a key of KIND_BY_ACTION
    node: str  # '*' for actions on the network rather than one node
    label: str = ""
    detail: dict = field(default_factory=dict)


@dataclass
class HarnessEvent:
    """The event broadcast per recorded action, shaped like the core
    tree's ``PeerEvent`` without importing it."""

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

    def __init__(self, kind: str, action: Callable[[Any], None],
                 match: Optional[Callable[[Any], bool]] = None, once: bool = True,
                 armed_after: int = 0):
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


class ChurnSchedule:
    """Lay fault actions onto the kernel's virtual timeline: methods act
    at once (``at=None``) or on the event queue of the traffic they
    disrupt; there is no separate apply step."""

    def __init__(self, network: Network, seed: int = 0):
        self.network = network
        self.kernel = network.kernel
        self._rng = default_rng(seed)
        self.log: list[ChurnRecord] = []
        self._listeners: list[Any] = []
        self._hooks: list = []  # partitions and drops this schedule attached

    def add_listener(self, listener: Any) -> None:
        """Attach a duck-typed listener (``message_received(event)``);
        it receives a :class:`HarnessEvent` per recorded action."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Any) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _record(self, kind: str, node: str, label: str = "", **detail: Any) -> None:
        now = self.kernel.now
        self.log.append(ChurnRecord(now, kind, node, label, detail))
        if self._listeners:
            event = HarnessEvent(
                KIND_BY_ACTION[kind], now, node,
                {"node": node, "action": kind, "label": label, **detail},
            )
            for listener in list(self._listeners):
                listener.message_received(event)

    def _at(self, at: Optional[float], action: Callable[[], None]) -> None:
        if at is None:
            action()
        else:
            self.kernel.schedule_at(at, action)

    # -- kills and restarts ------------------------------------------------
    def kill(self, node_id: str, at: Optional[float] = None,
             restart_at: Optional[float] = None, label: str = "") -> None:
        """Down *node_id* at virtual time *at* (``None``: now);
        optionally restart it at *restart_at*."""
        if restart_at is not None and at is not None and restart_at <= at:
            raise ValueError("restart_at must be after the kill time")
        node = self.network.get_node(node_id)

        def down() -> None:
            if node.up:
                node.go_down()
                self._record("kill", node_id, label)

        self._at(at, down)
        if restart_at is not None:
            self.restart(node_id, restart_at)

    def restart(self, node_id: str, at: Optional[float] = None) -> None:
        """Bring *node_id* back up at *at* (``None``: now)."""
        node = self.network.get_node(node_id)

        def up() -> None:
            if not node.up:
                node.go_up()
                self._record("restart", node_id)

        self._at(at, up)

    def kill_restart_cycle(self, node_id: str, start: float, downtime: float,
                           period: float, until: float) -> int:
        """Repeated kill/restart: down for *downtime* out of every
        *period*, first kill at *start*, no kills at or after *until*.
        Returns the number of cycles scheduled."""
        if downtime >= period:
            raise ValueError("downtime must be shorter than the cycle period")
        cycles = 0
        at = start
        while at < until:
            self.kill(node_id, at, restart_at=at + downtime)
            at += period
            cycles += 1
        return cycles

    def random_kills(self, candidates: Sequence[str], n_kills: int, start: float,
                     until: float, downtime: float) -> list[tuple[str, float]]:
        """*n_kills* kill/restart pairs at seeded-uniform times in
        [start, until), each downing a seeded-uniform candidate for
        *downtime*.  Returns the (node, kill_time) plan."""
        if until <= start:
            raise ValueError("until must be after start")
        plan: list[tuple[str, float]] = []
        for _ in range(n_kills):
            node_id = str(self._rng.choice(list(candidates)))
            at = float(self._rng.uniform(start, until))
            self.kill(node_id, at, restart_at=at + downtime)
            plan.append((node_id, at))
        return sorted(plan, key=lambda item: item[1])

    def fail_fraction(self, candidates: Sequence[str], fraction: float,
                      at: Optional[float] = None) -> list[str]:
        """Down a random *fraction* of *candidates* at *at*; returns them.

        The victim set is drawn from this schedule's own seeded
        generator, so the same seed, the same candidate order and the
        same sequence of calls always pick the same victims.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        k = int(round(len(candidates) * fraction))
        drawn = self._rng.choice(list(candidates), size=k, replace=False) if k else []
        chosen = [str(c) for c in drawn]
        for node_id in chosen:
            self.kill(node_id, at)
        return chosen

    def kill_on_event(self, source: Any, kind: str, node_id: str,
                      match: Optional[Callable[[Any], bool]] = None, armed_after: int = 0,
                      defer: bool = False, restart_after: Optional[float] = None,
                      label: str = "") -> EventTrigger:
        """Down *node_id* the moment *source* fires a *kind* event.

        With ``defer=True`` the kill lands one zero-delay kernel step
        later — "immediately after" the observed point rather than
        inside it, so frames the handler sends in the same instant
        still leave the node (the after-ship crash points).
        """
        label = label or f"on {kind}"

        def act(event: Any) -> None:
            now = self.kernel.now
            restart_at = None if restart_after is None else now + restart_after
            if defer:
                self.kernel.schedule(0.0, self.kill, node_id, None, restart_at, f"{label} (deferred)")
            else:
                self._record("trigger", node_id, label)
                self.kill(node_id, restart_at=restart_at)

        trigger = EventTrigger(kind, act, match=match, armed_after=armed_after)
        source.add_listener(trigger)
        return trigger

    # -- partitions and brownouts ------------------------------------------
    def partition(self, groups: Sequence[Iterable[str]], at: float,
                  heal_at: Optional[float] = None) -> None:
        """Split the network into *groups* at *at*; heal later if asked."""
        if heal_at is not None and heal_at <= at:
            raise ValueError("heal_at must be after the partition time")
        groups = [list(group) for group in groups]

        def split() -> None:
            injector = PartitionInjector(self.network, groups)
            self._hooks.append(injector)
            self._record("partition", "*", groups=groups)
            if heal_at is not None:
                self.kernel.schedule_at(heal_at, self._heal, [injector], groups)

        self.kernel.schedule_at(at, split)

    def heal_all(self) -> None:
        """Immediately remove every partition this schedule created."""
        self._heal([h for h in self._hooks if isinstance(h, PartitionInjector)], "all")

    def _heal(self, injectors: list, groups: Any) -> None:
        healing = [injector for injector in injectors if injector.attached]
        for injector in healing:
            injector.detach()
        if healing:
            self._record("heal", "*", groups=groups)

    def brownout(self, node_id: str, at: float, until: float, service_time: float) -> None:
        """Degrade *node_id* between *at* and *until*: every delivered
        frame takes *service_time* to process, so the node queues and
        slows instead of failing — the grey-failure mode health scoring
        has to catch without a hard error signal."""
        if until <= at:
            raise ValueError("until must be after at")
        node = self.network.get_node(node_id)
        previous = {"service_time": 0.0}

        def start() -> None:
            previous["service_time"] = node.service_time
            node.service_time = service_time
            self._record("brownout", node_id, service_time=service_time)

        def stop() -> None:
            # restore only if this brownout's degradation still holds:
            # a later change (an overlapping brownout, an operator) wins
            if node.service_time == service_time:
                node.service_time = previous["service_time"]
                self._record("recover", node_id)
            else:
                self._record("recover", node_id, skipped=True, found=node.service_time)

        self.kernel.schedule_at(at, start)
        self.kernel.schedule_at(until, stop)

    # -- surgical frame drops ----------------------------------------------
    def drop_next(self, predicate: Callable[[Frame], bool], count: int = 1,
                  label: str = "") -> OneShotDrop:
        """Silently drop the next *count* frames matching *predicate*.

        The surgical half of a crash point: e.g. drop the primary's
        reply frame (but let its delta ships through), then kill it —
        the client sees a timeout for a request the primary *did*
        execute, exactly the at-most-once-across-handoff scenario.
        """
        drop = OneShotDrop(self.network, predicate, count)
        self._hooks.append(drop)
        self._record("arm-drop", "*", label or "one-shot frame drop")
        return drop

    def drop_replies_from(self, node_id: str, count: int = 1) -> OneShotDrop:
        """Drop the next *count* HTTP reply frames leaving *node_id*
        (requests and delta ships pass untouched)."""
        return self.drop_next(
            lambda f: f.src == node_id and f.meta.get("kind") == "response",
            count=count,
            label=f"drop {count} reply frame(s) from {node_id}",
        )

    def detach(self) -> None:
        """Disarm every armed drop (triggers disarm themselves).
        Idempotent."""
        for hook in self._hooks:
            if isinstance(hook, OneShotDrop):
                hook.detach()

    # -- inspection --------------------------------------------------------
    def records(self, kind: Optional[str] = None) -> list[ChurnRecord]:
        return [r for r in self.log if kind is None or r.kind == kind]

    @property
    def kills(self) -> list[ChurnRecord]:
        return self.records("kill")

    def describe(self) -> list[str]:
        return [f"t={r.time:.3f} {r.kind} {r.node} {r.label}".rstrip() for r in self.log]
