"""Provider-side admission control: bounded queues, load shedding.

A hosted service that accepts every request under overload helps nobody
— queues grow without bound and every caller times out.  The
:class:`AdmissionController` models the container's pending-request
queue as a leaky bucket on virtual time: each admitted request adds one
unit of level, the level drains at ``drain_rate`` per second (the
provider's sustainable throughput), and a request arriving with the
level at ``capacity`` is *shed* — answered immediately with a
``Server.Busy`` SOAP fault carrying a retry-after hint sized to when
the queue will have drained room.  Clients treat the hint as "back
off, try another endpoint", which is exactly what the failover executor
does.

Shedding is cheap by construction: the busy fault is generated before
any dispatch work happens, so a saturated provider stays responsive in
the only way that matters — telling callers to go elsewhere, fast.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.observability import metrics as obs_metrics


class AdmissionController:
    """Leaky-bucket admission gate for a service container.

    *capacity* is the maximum queue level (pending-request bound);
    *drain_rate* is the service rate in requests/second used both to
    drain the virtual queue and to size retry-after hints.  A
    ``capacity`` of ``None`` disables shedding (the controller still
    tracks level for observability).
    """

    def __init__(
        self,
        capacity: Optional[float] = 8.0,
        drain_rate: float = 50.0,
        clock: Optional[Callable[[], float]] = None,
    ):
        if drain_rate <= 0:
            raise ValueError("drain_rate must be positive")
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None to disable)")
        self.capacity = capacity
        self.drain_rate = drain_rate
        self._clock = clock or (lambda: 0.0)
        self.level = 0.0
        self._last_drain = self._clock()
        self.admitted = 0
        self.shed = 0

    def _drain(self) -> None:
        now = self._clock()
        dt = now - self._last_drain
        if dt > 0:
            level = self.level - dt * self.drain_rate
            self.level = level if level > 0.0 else 0.0
            self._last_drain = now

    def try_admit(self) -> tuple[bool, float]:
        """Gate one request.

        Returns ``(True, 0.0)`` and charges the bucket when admitted;
        ``(False, retry_after)`` when shed, where *retry_after* is the
        time until the queue has drained room for one more request.
        """
        self._drain()
        if self.capacity is not None and self.level >= self.capacity:
            self.shed += 1
            obs_metrics.inc("admission.shed")
            retry_after = (self.level - self.capacity + 1.0) / self.drain_rate
            return False, retry_after
        self.level += 1.0
        self.admitted += 1
        obs_metrics.inc("admission.admitted")
        return True, 0.0

    @property
    def saturation(self) -> float:
        """Current queue level as a fraction of capacity (0 when unbounded)."""
        self._drain()
        if self.capacity is None:
            return 0.0
        return self.level / self.capacity

    def snapshot(self) -> dict:
        self._drain()
        return {
            "level": round(self.level, 3),
            "capacity": self.capacity,
            "drain_rate": self.drain_rate,
            "admitted": self.admitted,
            "shed": self.shed,
        }

    def __repr__(self) -> str:
        return (
            f"<AdmissionController level={self.level:.1f}/{self.capacity} "
            f"admitted={self.admitted} shed={self.shed}>"
        )
