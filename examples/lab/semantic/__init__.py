"""Semantic service description and matchmaking — the paper's DAML hook.

§III: "A ServiceQuery is an abstraction used by WSPeer to allow for
varying kinds of query.  The simplest ServiceQuery queries on the name
of a service.  **More complex queries could be constructed from
languages such as DAML**."  The paper's related-work section points at
DAML-S capability matching (Paolucci et al., refs [19]–[21]).

This package implements that extension:

``ontology``
    A DAML-lite concept hierarchy (is-a DAG over named concepts) with
    subsumption queries.
``profile``
    DAML-S-style service profiles: the concepts a service consumes
    (inputs) and produces (outputs) plus a category concept; XML
    (de)serialisation and embedding into P2PS advert attributes.
``matching``
    Capability matchmaking with the classic four degrees —
    exact / plugin / subsumes / fail — and ranked matching of a
    requested profile against advertised ones.
``locator``
    :class:`SemanticServiceLocator`: wraps any base locator, filters
    and ranks its results by match degree, and plugs into the WSPeer
    client tree like any other locator (§III pluggability).
"""

from lab.semantic.locator import SemanticServiceLocator
from lab.semantic.matching import MatchDegree, Matchmaker, ProfileMatch
from lab.semantic.ontology import Ontology, OntologyError
from lab.semantic.profile import ServiceProfile
from lab.semantic.query import SemanticServiceQuery

__all__ = [
    "MatchDegree", "Matchmaker", "Ontology", "OntologyError", "ProfileMatch",
    "SemanticServiceLocator", "SemanticServiceQuery", "ServiceProfile",
]
