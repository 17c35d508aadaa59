"""Discrete-event simulated network — the testbed substrate.

The WSPeer paper planned to evaluate large peer networks with an NS2
agent driven through P2PS (§IV, reason 3).  This package is that
substrate, reproduced in Python: a deterministic discrete-event kernel
(:mod:`repro.simnet.kernel`) under a message-passing network model
(:mod:`repro.simnet.network`) with pluggable latency distributions
(:mod:`repro.simnet.latency`), delivery-path fault hooks — message loss,
partitions, NAT gates, one-shot drops (:mod:`repro.simnet.faults`) — and
one fault schedule that lays kills, restarts, partitions, brownouts and
drops out on virtual time or fires them on events
(:mod:`repro.simnet.churn`).

All WSPeer transports (HTTP, HTTPG, P2PS pipes) send their frames
through a :class:`Network`, so every experiment in ``benchmarks/`` runs
on virtual time and is exactly reproducible from its seed.
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".kernel": ("Kernel", "ScheduledEvent", "SimTimeoutError"),
    ".network": ("Frame", "Network", "NetworkError", "Node", "NodeDownError"),
    ".latency": ("FixedLatency", "LatencyModel", "SeededLatency", "UniformLatency"),
    ".faults": ("DropInjector", "PartitionInjector"),
    ".churn": ("ChurnRecord", "ChurnSchedule", "EventTrigger"),
    ".trace": ("Counter", "TraceLog", "summarize"),
})
