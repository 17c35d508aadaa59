"""Seeded generators that draw numpy's streams without loading numpy.

:func:`default_rng` runs numpy's SeedSequence and PCG64 over Python ints,
so ``random`` and ``uniform`` (all that loss, uniform latency and retry
jitter draw) are ``numpy.random.default_rng(seed)``'s bit for bit.  Any
other draw (``lognormal``, ``choice``, ...) hands the state over to a
numpy ``Generator`` once, so each seed stays one stream.
"""

from __future__ import annotations

import math
import operator

_MASK32, _MASK53, _MASK64 = (1 << 32) - 1, (1 << 53) - 1, (1 << 64) - 1
_MASK128, _PCG_MULT = (1 << 128) - 1, 0x2360ED051FC65DA44385DF649FCCF645


def numpy():
    """The numpy module, imported on first use."""
    import numpy

    return numpy


def check_seed(seed) -> int:
    """*seed* as a non-negative int, refused as numpy refuses it."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    return seed


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """PCG64's ``(state, inc)`` after ``PCG64(SeedSequence(seed))``."""
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const, mult = 0x43B0D7E5, 0x931E8875

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    # mix each pool word into every other, then each word past the pool
    for src in range(max(4, len(words))):
        for dst in range(4):
            if dst != src:
                value = hashmix(pool[src] if src < 4 else words[src])
                result = (0xCA01F9DD * pool[dst] - 0x4973F715 * value) & _MASK32
                pool[dst] = result ^ result >> 16
    # generate_state(4, uint64): the same hash, its own constants, 8 words
    const, mult = 0x8B51F9DD, 0x58F38DED
    state = [hashmix(pool[i % 4]) for i in range(8)]
    u64 = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
    inc = (u64[2] << 65 | u64[3] << 1 | 1) & _MASK128
    # srandom: one step from 0 (giving inc), add the seed, one more step
    return ((inc + (u64[0] << 64 | u64[1])) * _PCG_MULT + inc) & _MASK128, inc


class Generator:
    """numpy's PCG64 stream for one seed, in pure Python until it hands over."""

    def __init__(self, seed: int):
        self._state, self._inc = _pcg64_seed(check_seed(seed))

    def random(self) -> float:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        # XSL-RR: xor the halves, rotate right by the top 6 bits, keep 53
        word = (state >> 64 ^ state) & _MASK64
        return ((word << 64 | word) >> (state >> 122) + 11 & _MASK53) * 2.0**-53

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        low, span = float(low), float(high) - float(low)
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0:
            raise ValueError("high - low < 0")
        return low + span * self.random()

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        generator = self.__dict__.get("_numpy")
        if generator is None:
            np = numpy()
            generator = self._numpy = np.random.Generator(np.random.PCG64())
            generator.bit_generator.state = dict(
                bit_generator="PCG64", has_uint32=0, uinteger=0,
                state=dict(state=self._state, inc=self._inc),
            )
            # instance attributes shadow the methods above: from here on
            # numpy draws every number, so the seed stays one stream
            self.random, self.uniform = generator.random, generator.uniform
        return getattr(generator, name)


#: ``numpy.random.default_rng(seed)``, for a non-negative int *seed*
default_rng = Generator
