"""Endpoint health scoring from passive signals and active probes.

A :class:`ServiceHandle` carries several EndpointReferences for the
same logical service (HTTP and ``p2ps://`` — §III's "does not have to
care where or how the service has been located").  The
:class:`HealthMonitor` keeps one exponentially-decayed health score per
endpoint address, fed by whatever the reliability layer already
observes for free — invocation outcomes, ``Server.Busy`` shed
responses, ack/response latency, circuit-breaker state — plus optional
active probes.  The :class:`~repro.supervision.failover.FailoverExecutor`
ranks a handle's endpoints by these scores; locators subscribe to
*verdicts* ("endpoint dead" / "endpoint alive") to drop poisoned EPRs
from what discovery hands out.

Everything is driven by a pluggable clock, so simnet scenarios exercise
decay and cooldowns deterministically.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional

from repro.caching import SoftTable
from repro.observability import metrics as obs_metrics
from repro.wsa.epr import EndpointReference

DEAD = "dead"
ALIVE = "alive"

#: verdict listener: fn(endpoint_address, verdict) with verdict in
#: {:data:`DEAD`, :data:`ALIVE`}
VerdictListener = Callable[[str, str], None]

#: active prober: fn(endpoint_address, done) where done(ok, latency)
#: reports the probe outcome exactly once
ProbeFn = Callable[[str, Callable[[bool, float], None]], None]

#: time constant (virtual seconds) over which observations decay
TAU = 30.0
#: Beta prior mass on each side of an endpoint's score
PRIOR = 1.0
#: consecutive hard failures that declare an endpoint dead
DEAD_AFTER = 3
#: weight of the newest sample in the latency EWMA
LATENCY_ALPHA = 0.3


class EndpointHealth:
    """Decayed outcome counters plus latency tracking for one endpoint.

    ``good``/``bad`` are observation masses that decay with time
    constant ``TAU``, so an endpoint that failed hard an hour ago but
    answers now scores high again without any explicit reset.  The
    score is a Beta-smoothed success ratio in (0, 1); ``0.5`` means
    "no evidence either way".
    """

    __slots__ = (
        "address", "good", "bad", "last_update", "latency_ewma",
        "consecutive_failures", "busy_until", "dead", "last_seen_ok",
    )

    def __init__(self, address: str):
        self.address = address
        self.good = 0.0
        self.bad = 0.0
        self.last_update = 0.0
        self.latency_ewma: Optional[float] = None
        self.consecutive_failures = 0
        self.busy_until = 0.0
        self.dead = False
        self.last_seen_ok: Optional[float] = None

    def decay(self, now: float) -> None:
        dt = now - self.last_update
        if dt > 0 and (self.good or self.bad):
            factor = math.exp(-dt / TAU)
            self.good *= factor
            self.bad *= factor
        self.last_update = max(self.last_update, now)

    def score(self) -> float:
        return (self.good + PRIOR) / (self.good + self.bad + 2.0 * PRIOR)


#: endpoints a monitor scores, least recently used forgotten first
HEALTH_ENDPOINTS_CAP = 4096


class HealthMonitor:
    """Scores every known endpoint; emits dead/alive verdicts.

    Passive signals arrive through ``record_success`` /
    ``record_failure`` / ``record_busy`` (the failover executor calls
    these on every attempt).  ``DEAD_AFTER`` consecutive hard failures
    declare an endpoint dead; any later success (typically from an
    active probe, or from a last-resort attempt when every endpoint of
    a handle is dead) revives it.  Verdict listeners hear each
    transition exactly once.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or (lambda: 0.0)
        self._endpoints = SoftTable(HEALTH_ENDPOINTS_CAP)
        self._verdict_listeners: list[VerdictListener] = []
        self._breakers = None  # optional CircuitBreakerRegistry
        self._prober: Optional[ProbeFn] = None
        self.probes_sent = 0

    # -- plumbing ----------------------------------------------------------
    def _now(self) -> float:
        return self._clock()

    def _entry(self, address: str) -> EndpointHealth:
        entry = self._endpoints.get(address)
        if entry is None:
            entry = EndpointHealth(address)
            entry.last_update = self._now()
            self._endpoints.put(address, entry)
        return entry

    def add_verdict_listener(self, listener: VerdictListener) -> None:
        self._verdict_listeners.append(listener)

    def _emit_verdict(self, address: str, verdict: str) -> None:
        obs_metrics.inc("health.verdicts." + verdict)
        for listener in list(self._verdict_listeners):
            listener(address, verdict)

    def attach_breakers(self, registry) -> None:
        """Consult *registry* (a CircuitBreakerRegistry) when ranking:
        an endpoint with an open breaker sorts behind closed ones even
        if its decayed score has not caught up yet."""
        self._breakers = registry

    # -- passive signals ---------------------------------------------------
    def record_success(self, address: str, latency: Optional[float] = None) -> None:
        now = self._now()
        entry = self._entry(address)
        entry.decay(now)
        entry.good += 1.0
        entry.consecutive_failures = 0
        entry.busy_until = 0.0
        entry.last_seen_ok = now
        if latency is not None:
            if entry.latency_ewma is None:
                entry.latency_ewma = latency
            else:
                entry.latency_ewma = (
                    LATENCY_ALPHA * latency + (1.0 - LATENCY_ALPHA) * entry.latency_ewma
                )
        if entry.dead:
            entry.dead = False
            self._emit_verdict(address, ALIVE)

    def record_failure(self, address: str, fatal: bool = False) -> None:
        """A hard failure: timeout, unreachable, transport error.

        *fatal* marks failures that prove the endpoint is gone (e.g.
        undeploy observed, explicit peer exit) and kills it instantly.
        """
        now = self._now()
        entry = self._entry(address)
        entry.decay(now)
        entry.bad += 1.0
        entry.consecutive_failures += 1
        if not entry.dead and (
            fatal or entry.consecutive_failures >= DEAD_AFTER
        ):
            entry.dead = True
            self._emit_verdict(address, DEAD)

    def record_busy(self, address: str, retry_after: float = 0.0) -> None:
        """A ``Server.Busy`` shed: soft signal.  The endpoint is alive
        (it answered) but overloaded; it drops out of the preferred
        ranking until the retry-after cooldown lapses.  Does not count
        toward the dead verdict."""
        now = self._now()
        entry = self._entry(address)
        entry.decay(now)
        entry.bad += 0.5
        entry.consecutive_failures = 0
        entry.busy_until = max(entry.busy_until, now + max(retry_after, 0.0))
        entry.last_seen_ok = now

    def mark_dead(self, address: str) -> None:
        """Explicit external verdict (e.g. locator observed undeploy)."""
        self.record_failure(address, fatal=True)

    # -- queries -----------------------------------------------------------
    def score(self, address: str) -> float:
        entry = self._endpoints.peek(address)
        if entry is None:
            return 0.5
        entry.decay(self._now())
        return entry.score()

    def latency(self, address: str) -> Optional[float]:
        entry = self._endpoints.peek(address)
        return entry.latency_ewma if entry is not None else None

    def is_dead(self, address: str) -> bool:
        entry = self._endpoints.peek(address)
        return entry.dead if entry is not None else False

    def in_busy_cooldown(self, address: str) -> bool:
        entry = self._endpoints.peek(address)
        return entry is not None and self._now() < entry.busy_until

    def _breaker_open(self, address: str) -> bool:
        if self._breakers is None:
            return False
        breaker = self._breakers.get(address)
        if breaker is None:
            return False
        from repro.reliability import OPEN

        return breaker.state == OPEN

    def rank(self, endpoints: Iterable[EndpointReference]) -> list[EndpointReference]:
        """Order *endpoints* healthiest-first, deterministically.

        Sort key, in order: not dead, breaker not open, not in busy
        cooldown, decayed score (desc), latency EWMA (asc, unknown
        last), address (the stable tie-break).  Dead endpoints stay in
        the list — last — so a handle whose every EPR looks dead still
        gets a best-effort attempt (which is also the revival path when
        no active prober is configured).
        """
        def key(epr: EndpointReference):
            address = epr.address
            latency = self.latency(address)
            return (
                self.is_dead(address),
                self._breaker_open(address),
                self.in_busy_cooldown(address),
                -self.score(address),
                latency is None,
                latency if latency is not None else 0.0,
                address,
            )

        return sorted(endpoints, key=key)

    def snapshot(self) -> dict[str, dict]:
        """Health table for diagnostics and experiment output."""
        now = self._now()
        out: dict[str, dict] = {}
        for address, entry in sorted(self._endpoints.items()):
            entry.decay(now)
            out[address] = {
                "score": round(entry.score(), 4),
                "dead": entry.dead,
                "busy": now < entry.busy_until,
                "consecutive_failures": entry.consecutive_failures,
                "latency_ewma": entry.latency_ewma,
            }
        return out

    # -- active probes -----------------------------------------------------
    def set_prober(self, prober: Optional[ProbeFn]) -> None:
        self._prober = prober

    def probe(self, address: str) -> None:
        """Actively probe one endpoint (no-op without a prober)."""
        if self._prober is None:
            return
        self.probes_sent += 1
        sent_at = self._now()

        def done(ok: bool, latency: float = 0.0) -> None:
            if ok:
                self.record_success(address, latency=latency or (self._now() - sent_at))
            else:
                self.record_failure(address)

        self._prober(address, done)

    def start_probing(
        self,
        kernel,
        interval: float,
        only_suspect: bool = True,
        until: Optional[float] = None,
    ) -> None:
        """Probe on a fixed virtual-time cadence.

        With *only_suspect* (the default) each tick probes only dead or
        cooling-down endpoints — the cheap revival path; pass False to
        sweep every known endpoint.  Stops at *until* if given.
        """
        def tick() -> None:
            if until is not None and self._now() >= until:
                cycle.cancel()
                return
            for address, entry in self._endpoints.items():
                if only_suspect and not (
                    entry.dead or self._now() < entry.busy_until
                ):
                    continue
                self.probe(address)

        cycle = kernel.every(interval, tick)
