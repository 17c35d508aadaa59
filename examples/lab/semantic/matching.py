"""Capability matchmaking: the classic four degrees.

Following the Paolucci et al. line the paper cites (refs [20]/[21]),
each requested output is compared against the advertised outputs:

``EXACT``
    advertised concept == requested concept;
``PLUGIN``
    advertised is a *subconcept* of requested — the service delivers
    something more specific, which plugs in wherever the requested
    concept is expected;
``SUBSUMES``
    advertised is a *superconcept* of requested — the service delivers
    something more general, a partial satisfaction;
``FAIL``
    no subsumption relation either way.

A profile's overall output degree is the weakest of its per-output best
degrees (every requested output must be served).  Inputs match in the
opposite direction: the requester's provided input must be usable where
the service expects its input, i.e. provided ⊑ expected scores PLUGIN.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from lab.semantic.ontology import Ontology
from lab.semantic.profile import ServiceProfile


class MatchDegree(IntEnum):
    """Ordered so that greater is better."""

    FAIL = 0
    SUBSUMES = 1
    PLUGIN = 2
    EXACT = 3


@dataclass(frozen=True)
class ProfileMatch:
    """The outcome of matching one advertised profile."""

    profile: ServiceProfile
    degree: MatchDegree
    output_degree: MatchDegree
    input_degree: MatchDegree

    def __repr__(self) -> str:
        return f"<ProfileMatch {self.profile.service_name} {self.degree.name}>"


class Matchmaker:
    """Ranks advertised profiles against a request, over one ontology."""

    def __init__(self, ontology: Ontology):
        self.ontology = ontology

    # ------------------------------------------------------------------
    def concept_degree(self, requested: str, advertised: str) -> MatchDegree:
        """Degree of one advertised concept serving one requested concept."""
        if not self.ontology.has(requested) or not self.ontology.has(advertised):
            return MatchDegree.FAIL
        if requested == advertised:
            return MatchDegree.EXACT
        if self.ontology.is_subconcept(advertised, requested):
            return MatchDegree.PLUGIN
        if self.ontology.is_subconcept(requested, advertised):
            return MatchDegree.SUBSUMES
        return MatchDegree.FAIL

    def _outputs_degree(
        self, requested_outputs: tuple[str, ...], advertised_outputs: tuple[str, ...]
    ) -> MatchDegree:
        if not requested_outputs:
            return MatchDegree.EXACT  # nothing demanded
        if not advertised_outputs:
            return MatchDegree.FAIL
        weakest = MatchDegree.EXACT
        for requested in requested_outputs:
            best = max(
                (self.concept_degree(requested, adv) for adv in advertised_outputs),
                default=MatchDegree.FAIL,
            )
            weakest = min(weakest, best)
        return weakest

    def _inputs_degree(
        self, provided_inputs: tuple[str, ...], expected_inputs: tuple[str, ...]
    ) -> MatchDegree:
        """Every input the service expects must be constructible from
        what the requester provides.  A request that declares *no*
        inputs leaves them unconstrained (the conventional matchmaker
        reading of an absent input specification)."""
        if not expected_inputs or not provided_inputs:
            return MatchDegree.EXACT
        weakest = MatchDegree.EXACT
        for expected in expected_inputs:
            # direction flipped: provided must fit where expected goes
            best = max(
                (self.concept_degree(expected, prov) for prov in provided_inputs),
                default=MatchDegree.FAIL,
            )
            weakest = min(weakest, best)
        return weakest

    # ------------------------------------------------------------------
    def match(self, request: ServiceProfile, advertised: ServiceProfile) -> ProfileMatch:
        output_degree = self._outputs_degree(request.outputs, advertised.outputs)
        input_degree = self._inputs_degree(request.inputs, advertised.inputs)
        overall = min(output_degree, input_degree)
        return ProfileMatch(advertised, overall, output_degree, input_degree)

    def rank(
        self,
        request: ServiceProfile,
        candidates: list[ServiceProfile],
        min_degree: MatchDegree = MatchDegree.SUBSUMES,
    ) -> list[ProfileMatch]:
        """All candidates at or above *min_degree*, best first.

        Ties break toward smaller ontology distance on outputs, so a
        closer specialisation outranks a distant one.
        """
        matches = [
            m for m in (self.match(request, c) for c in candidates)
            if m.degree >= min_degree and m.degree > MatchDegree.FAIL
        ]

        def tie_key(match: ProfileMatch) -> tuple:
            distances = []
            for requested in request.outputs:
                best: Optional[int] = None
                for advertised in match.profile.outputs:
                    if not (self.ontology.has(requested) and self.ontology.has(advertised)):
                        continue
                    d = self.ontology.distance(advertised, requested)
                    if d is None:
                        d = self.ontology.distance(requested, advertised)
                    if d is not None and (best is None or d < best):
                        best = d
                distances.append(best if best is not None else 99)
            return (-int(match.degree), sum(distances))

        return sorted(matches, key=tie_key)
