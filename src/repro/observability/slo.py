"""Per-service SLOs with multi-window burn rates (E17).

An availability target like 99.9% only becomes actionable when you ask
*how fast the error budget is burning*: a burn rate of 1.0 spends the
budget exactly over the SLO period, 14.4 spends a 30-day budget in two
days.  Following the Google SRE multi-window recipe, each service is
judged over a short and a long window simultaneously — alerting only
when **both** exceed the threshold, so a single spike (short window
hot, long window calm) and a long-ago incident (long hot, short calm)
both stay quiet.

The engine is a tree listener, like the span tracer: ``request-sent``
opens a pending call, ``response-received`` closes it as *good* (or as
a latency violation when the policy sets a threshold), and
``failover-exhausted`` closes it as *bad*.  A per-attempt
``invoke-failed`` is only **provisionally** bad — the failover executor
fires one per failed attempt and may still recover the call on another
endpoint — so provisional failures settle into real ones only after a
grace period with no recovery.  ``report()`` publishes burn-rate gauges
and health annotations ("ok" / "warn" / "critical") per service, and
the introspection service exposes the same JSON via ``GetSloStatus``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from repro.caching import SoftTable
from repro.observability import metrics as obs_metrics
from repro.observability.recorder import TreeListener

#: health annotation states, in increasing severity
OK, WARN, CRITICAL = "ok", "warn", "critical"

#: bound on outstanding request-sent entries awaiting a verdict
MAX_PENDING = 2048
#: bound on retained (time, good) samples per service
MAX_SAMPLES = 4096

#: the two burn-rate windows, in virtual seconds
SHORT_WINDOW = 60.0
LONG_WINDOW = 600.0
#: warn when both windows burn at least this fast (critical is the
#: policy's ``fast_burn``)
SLOW_BURN = 6.0
#: how long a provisional (per-attempt) failure may wait for a
#: failover recovery before settling as a real failure
SETTLE_AFTER = 5.0


@dataclass(frozen=True)
class SloPolicy:
    """What a service promises, and when to worry about the burn."""

    #: fraction of calls that must succeed (error budget = 1 - this)
    availability_target: float = 0.999
    #: calls slower than this are SLO violations even if they succeed
    #: (``None`` disables the latency criterion)
    latency_threshold: Optional[float] = None
    #: critical when both windows burn at least this fast
    fast_burn: float = 14.4

    @property
    def error_budget(self) -> float:
        return max(1.0 - self.availability_target, 1e-9)


class ServiceSlo:
    """One service's sample history and burn-rate arithmetic."""

    def __init__(self, name: str, policy: SloPolicy):
        self.name = name
        self.policy = policy
        #: (time, good) verdicts, oldest first
        self.samples: deque[tuple[float, bool]] = deque(maxlen=MAX_SAMPLES)
        self.good = 0
        self.bad = 0
        self.latency_violations = 0
        self.status = OK
        #: (time, old_status, new_status) transitions, for post-mortems
        self.transitions: list[tuple[float, str, str]] = []

    def record(self, time: float, good: bool) -> None:
        self.samples.append((time, good))
        if good:
            self.good += 1
        else:
            self.bad += 1

    def error_fraction(self, now: float, window: float) -> float:
        """Fraction of verdicts in ``[now - window, now]`` that were bad."""
        total = bad = 0
        cutoff = now - window
        for time, good in reversed(self.samples):
            if time < cutoff:
                break
            total += 1
            if not good:
                bad += 1
        return bad / total if total else 0.0

    def burn_rates(self, now: float) -> tuple[float, float]:
        budget = self.policy.error_budget
        return (self.error_fraction(now, SHORT_WINDOW) / budget,
                self.error_fraction(now, LONG_WINDOW) / budget)

    def health(self, now: float) -> tuple[str, float, float]:
        """(status, short_burn, long_burn) — both windows must agree."""
        short, long_ = self.burn_rates(now)
        if short >= self.policy.fast_burn and long_ >= self.policy.fast_burn:
            return CRITICAL, short, long_
        if short >= SLOW_BURN and long_ >= SLOW_BURN:
            return WARN, short, long_
        return OK, short, long_


class SloEngine(TreeListener):
    """Tree listener turning invocation events into burn-rate health."""
    peer_slot = "slo"

    def __init__(self, policy: Optional[SloPolicy] = None,
                 metrics: Optional[Any] = None):
        self.default_policy = policy if policy is not None else SloPolicy()
        self.metrics = metrics if metrics is not None else obs_metrics
        self.services: dict[str, ServiceSlo] = {}
        #: message_id -> (service, sent_time) awaiting a verdict
        self._pending = SoftTable(MAX_PENDING)
        #: message_id -> (service, fail_time) provisionally failed: one
        #: still here SETTLE_AFTER later is a failure
        self._provisional = SoftTable(MAX_PENDING, SETTLE_AFTER, lambda: self._now, self._settled)
        self._now = 0.0  # the provisional table's clock: event / report time
        self._attached: list = []
        self._last_event_time = 0.0

    @property
    def pending_evicted(self) -> int:
        """Sends forgotten unanswered because MAX_PENDING newer ones came."""
        return self._pending.evictions

    def _service(self, name: str) -> ServiceSlo:
        slo = self.services.get(name)
        if slo is None:
            slo = self.services[name] = ServiceSlo(name, self.default_policy)
        return slo

    # -- event intake ------------------------------------------------------
    def observe(self, event: Any, peer: Optional[str] = None) -> None:
        kind = getattr(event, "kind", None)
        detail = getattr(event, "detail", None) or {}
        service = detail.get("service")
        message_id = detail.get("message_id")
        time = getattr(event, "time", 0.0)
        self._last_event_time = max(self._last_event_time, time)
        if not service or not message_id:
            return
        if kind == "request-sent":
            # failover hops re-send the same MessageID: keep first sent time
            if message_id not in self._pending:
                self._pending.put(message_id, (service, time))
        elif kind == "response-received":
            entry = self._pending.pop(message_id, None)
            self._provisional.pop(message_id, None)  # failover recovered
            slo = self._service(service)
            good = True
            if entry is not None and slo.policy.latency_threshold is not None:
                latency = time - entry[1]
                if latency > slo.policy.latency_threshold:
                    good = False
                    slo.latency_violations += 1
                    self.metrics.inc("slo.latency_violations")
            slo.record(time, good)
        elif kind in ("invoke-failed", "oneway-failed"):
            # per-attempt failure: provisional until SETTLE_AFTER elapses
            if message_id in self._pending:
                self._now = time
                self._service(service)  # reported from its first failure on
                self._provisional.put(message_id, (service, time))
        elif kind == "failover-exhausted":
            self._pending.pop(message_id, None)
            self._provisional.pop(message_id, None)
            self._service(service).record(time, False)

    def _settled(self, message_id: str, entry: tuple[str, float]) -> None:
        """A provisional failure with no recovery becomes a real one."""
        self._pending.pop(message_id)
        self._service(entry[0]).record(entry[1], False)

    # -- reporting ---------------------------------------------------------
    def report(self, now: Optional[float] = None) -> dict[str, dict[str, Any]]:
        """Settle provisionals, publish gauges, return per-service health."""
        if now is None:
            now = self._last_event_time
        self._now = now
        self._provisional.purge()
        out: dict[str, dict[str, Any]] = {}
        for name, slo in self.services.items():
            status, short, long_ = slo.health(now)
            if status != slo.status:
                slo.transitions.append((now, slo.status, status))
                slo.status = status
            self.metrics.set_gauge(f"slo.{name}.burn_short", short)
            self.metrics.set_gauge(f"slo.{name}.burn_long", long_)
            self.metrics.set_gauge(
                f"slo.{name}.healthy", 1.0 if status == OK else 0.0)
            out[name] = {
                "status": status,
                "burn_short": short,
                "burn_long": long_,
                "good": slo.good,
                "bad": slo.bad,
                "latency_violations": slo.latency_violations,
                "availability_target": slo.policy.availability_target,
                "transitions": [
                    {"time": t, "from": old, "to": new}
                    for t, old, new in slo.transitions
                ],
            }
        return out

    def status_json(self, now: Optional[float] = None) -> str:
        """The ``GetSloStatus`` payload."""
        return json.dumps({"schema": "repro.slo/1",
                           "services": self.report(now)}, default=str)
