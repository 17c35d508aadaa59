"""Application scenarios from §V of the paper.

``workflow``
    The Triana analogue: a toolbox of discovered services, wired into
    DAG workflows and choreographed through WSPeer.
``cactus``
    The SC2004 demo: a finite-difference PDE simulation on a remote
    resource streaming per-timestep output back through a Web service
    the consumer deployed *at runtime*.
``catnets``
    The Catnets evaluation platform: economy-driven services trading in
    a decentralised P2PS topology.
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".workflow": ("Tool", "Toolbox", "Workflow", "WorkflowEngine", "WorkflowError"),
    ".cactus": ("CactusSimulation", "ResultCollector", "run_cactus_scenario"),
    ".catnets": ("ConsumerAgent", "MarketStats", "ProviderAgent", "run_market_rounds"),
})
