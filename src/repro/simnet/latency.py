"""Link latency models.

All randomness flows through a seeded generator owned by the model,
keeping simulations reproducible: :func:`repro.simnet.rng.default_rng`
draws numpy's stream for the seed, in pure Python for
:class:`UniformLatency` and through numpy for :class:`SeededLatency`'s
log-normal.  :class:`FixedLatency` (the default) draws nothing.
"""

from __future__ import annotations

import abc

from repro.simnet import rng


class LatencyModel(abc.ABC):
    """Strategy deciding the one-way delay of each frame."""

    @abc.abstractmethod
    def sample(self, src: str, dst: str, size: int) -> float:
        """One-way latency in virtual seconds for a *size*-byte frame
        from node *src* to node *dst*."""

    def loopback(self) -> float:
        """Latency for a node talking to itself (default: negligible)."""
        return 1e-6


class FixedLatency(LatencyModel):
    """Constant per-hop latency plus optional per-byte transmission cost."""

    def __init__(self, seconds: float = 0.001, per_byte: float = 0.0):
        if seconds < 0 or per_byte < 0:
            raise ValueError("latency parameters must be non-negative")
        self.seconds = seconds
        self.per_byte = per_byte

    def sample(self, src: str, dst: str, size: int) -> float:
        return self.seconds + self.per_byte * size


class UniformLatency(LatencyModel):
    """Uniformly distributed latency in ``[low, high]``."""

    def __init__(self, low: float = 0.0005, high: float = 0.002, seed: int = 0):
        if not 0 <= low <= high:
            raise ValueError("require 0 <= low <= high")
        self.low = low
        self.high = high
        self._rng = rng.default_rng(seed)

    def sample(self, src: str, dst: str, size: int) -> float:
        return float(self._rng.uniform(self.low, self.high))


class SeededLatency(LatencyModel):
    """Log-normal WAN-like latency with a heavier tail.

    ``median`` is the median one-way delay; ``sigma`` controls tail
    weight.  A per-byte term models bandwidth.
    """

    def __init__(
        self,
        median: float = 0.02,
        sigma: float = 0.5,
        per_byte: float = 1e-8,
        seed: int = 0,
    ):
        if median <= 0:
            raise ValueError("median must be positive")
        self.median = median
        self.sigma = sigma
        self.per_byte = per_byte
        self._rng = rng.default_rng(seed)
        # numpy's log, not math.log: the two differ in the last bit for
        # some medians, and that bit reaches every sample
        self._log = rng.numpy().log

    def sample(self, src: str, dst: str, size: int) -> float:
        base = float(self._rng.lognormal(mean=self._log(self.median), sigma=self.sigma))
        return base + self.per_byte * size
