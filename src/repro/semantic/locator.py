"""SemanticServiceLocator: semantic ranking over any base locator.

Demonstrates the tree's pluggability (§III): this locator wraps any
other :class:`~repro.core.locator.ServiceLocator` — UDDI or P2PS — and
adds capability matchmaking on top.  Providers attach their profile to
the service's advertisement attributes (P2PS) or publish it in their
WSDL-adjacent metadata; the locator reads it back from the
:class:`~repro.core.handle.ServiceHandle` attributes and ranks.

Matching happens at the *requester*, which is how the early DAML-S
matchmakers the paper cites worked when no semantically-aware registry
was available.
"""

from __future__ import annotations

from typing import Optional

from repro.core.handle import ServiceHandle
from repro.core.locator import OnComplete, OnFound, ServiceLocator
from repro.core.query import P2PSServiceQuery, ServiceQuery
from repro.semantic.matching import Matchmaker
from repro.semantic.ontology import Ontology
from repro.semantic.profile import PROFILE_ATTRIBUTE, ServiceProfile
from repro.semantic.query import SemanticServiceQuery


def attach_profile(wspeer, service_name: str, profile: ServiceProfile) -> None:
    """Provider-side: embed *profile* in the service's P2PS advert.

    Call after :meth:`WSPeer.deploy` and before :meth:`WSPeer.publish`.
    """
    advert = wspeer.server.deployer.advert_for(service_name)
    advert.attributes[PROFILE_ATTRIBUTE] = profile.to_compact()


def profile_of(handle: ServiceHandle) -> Optional[ServiceProfile]:
    """Extract the embedded profile from a located handle, if any."""
    compact = handle.attributes.get(PROFILE_ATTRIBUTE)
    if not compact:
        return None
    try:
        return ServiceProfile.from_compact(handle.name, compact)
    except ValueError:
        return None


class SemanticServiceLocator(ServiceLocator):
    """Wraps a base locator and ranks its results by match degree."""

    def __init__(
        self,
        base: ServiceLocator,
        ontology: Ontology,
        parent=None,
    ):
        super().__init__(base._kernel, parent)
        self.base = base
        self.matchmaker = Matchmaker(ontology)

    def locate_async(
        self, query: ServiceQuery, on_found: OnFound, on_complete: OnComplete = None,
        *, expect: int = 1, timeout: float = 10.0,
    ) -> None:
        """Collect the base locator's hits; rank them once it completes."""
        if not isinstance(query, SemanticServiceQuery):
            self.base.locate_async(query, on_found, on_complete, expect=expect, timeout=timeout)
            return
        self.fire_discovery("query-issued", query=query.describe(), via="semantic")
        candidates: list[ServiceHandle] = []

        def rank(count: int, error: Optional[Exception]) -> None:
            if error is not None:
                if on_complete is not None:
                    on_complete(0, error)
                return
            profiled: list[tuple[ServiceProfile, ServiceHandle]] = []
            for handle in candidates:
                profile = profile_of(handle)
                if profile is not None:
                    profiled.append((profile, handle))
                else:
                    self.fire_discovery(
                        "service-skipped", service=handle.name, reason="no semantic profile"
                    )
            ranked = self.matchmaker.rank(
                query.request_profile(),
                [profile for profile, _ in profiled],
                min_degree=query.min_degree,
            )
            # pair by object identity: several providers may share a service name
            by_profile = {id(profile): handle for profile, handle in profiled}
            for match in ranked:
                handle = by_profile[id(match.profile)]
                handle.attributes["match-degree"] = match.degree.name
                self.fire_discovery(
                    "service-found", service=handle.name, via="semantic",
                    degree=match.degree.name,
                )
                on_found(handle)
            self._complete(query, on_complete, len(ranked))

        # over-fetch: semantic filtering happens here, not in the network
        self.base.locate_async(
            P2PSServiceQuery(query.name_pattern), candidates.append, rank,
            expect=max(expect, 4), timeout=timeout,
        )
