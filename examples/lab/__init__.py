"""The laboratory: what the paper runs on WSPeer, kept out of the peer.

``workflow``
    The Triana analogue (§V): a toolbox of discovered services, wired
    into DAG workflows and choreographed through WSPeer.
``cactus``
    The SC2004 demo (§V): a finite-difference PDE simulation on a remote
    resource streaming per-timestep output back through a Web service
    the consumer deployed *at runtime*.
``catnets``
    The Catnets evaluation platform (§V): economy-driven services
    trading in a decentralised P2PS topology.
``semantic``
    The DAML extension (§III): ontology, service profiles and a
    matchmaking locator that plugs into the client tree.

None of it is part of ``repro``: a peer imports none of these modules.
Import them with ``examples/`` on the path: an example finds the package
beside itself, pytest adds it (``pythonpath`` in ``pyproject.toml``) and
the A1–A3 / EXT1 benchmarks through ``benchmarks/_workloads.py``.
"""
