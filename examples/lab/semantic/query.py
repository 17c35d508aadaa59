"""SemanticServiceQuery — the "more complex query" of §III."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.query import ServiceQuery

from lab.semantic.matching import MatchDegree
from lab.semantic.profile import ServiceProfile


@dataclass
class SemanticServiceQuery(ServiceQuery):
    """A capability query: find services that produce *outputs* given
    *inputs*, at or above *min_degree*.

    ``name_pattern`` (inherited) pre-filters candidates cheaply before
    semantic ranking; the default ``%`` considers everything.
    """

    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    min_degree: MatchDegree = MatchDegree.SUBSUMES

    def request_profile(self) -> ServiceProfile:
        return ServiceProfile("__request__", self.inputs, self.outputs)

    def describe(self) -> str:
        return (
            f"semantic {list(self.inputs)}->{list(self.outputs)} "
            f">={self.min_degree.name}"
        )
