"""Seeded generators, with numpy loaded only by the models that draw.

A peer that only hosts and invokes draws no random numbers, so it never
pays numpy's import time and memory: numpy is imported here, the first
time a seeded model (a latency, loss or churn model, or a retry
policy's jitter) builds its generator.
"""

from __future__ import annotations


def numpy():
    """The numpy module, imported on first use."""
    import numpy

    return numpy


def default_rng(seed: int):
    """``numpy.random.default_rng(seed)``."""
    return numpy().random.default_rng(seed)
