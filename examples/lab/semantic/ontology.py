"""A DAML-lite ontology: an is-a DAG over named concepts."""

from __future__ import annotations

from typing import Iterable, Optional


class OntologyError(ValueError):
    """Unknown concept, duplicate definition, or a cycle in is-a."""


class Ontology:
    """Concept hierarchy with multiple inheritance (a DAG).

    Each concept maps to its direct parents ("is-a"), so subsumption is
    reachability up those edges.  ``Thing`` is the implicit root every
    concept ultimately specialises.  Parents must exist before their
    children, so the graph cannot have a cycle.
    """

    ROOT = "Thing"

    def __init__(self, name: str = "ontology"):
        self.name = name
        self._parents: dict[str, tuple[str, ...]] = {self.ROOT: ()}

    # ------------------------------------------------------------------
    def add_concept(self, concept: str, parents: Optional[Iterable[str]] = None) -> str:
        """Define *concept* specialising *parents* (default: the root)."""
        if not concept or not concept.strip():
            raise OntologyError("concept name cannot be empty")
        if concept in self._parents:
            raise OntologyError(f"concept {concept!r} already defined")
        parent_list = list(parents) if parents else [self.ROOT]
        for parent in parent_list:
            if parent not in self._parents:
                raise OntologyError(f"unknown parent concept {parent!r}")
        self._parents[concept] = tuple(parent_list)
        return concept

    def has(self, concept: str) -> bool:
        return concept in self._parents

    def _require(self, concept: str) -> None:
        if concept not in self._parents:
            raise OntologyError(f"unknown concept {concept!r}")

    # ------------------------------------------------------------------
    def parents(self, concept: str) -> set[str]:
        self._require(concept)
        return set(self._parents[concept])

    def ancestors(self, concept: str) -> set[str]:
        """All concepts *concept* specialises (transitively), incl. root."""
        self._require(concept)
        found: set[str] = set()
        stack = list(self._parents[concept])
        while stack:
            parent = stack.pop()
            if parent not in found:
                found.add(parent)
                stack.extend(self._parents[parent])
        return found

    def descendants(self, concept: str) -> set[str]:
        """All specialisations of *concept* (transitively)."""
        self._require(concept)
        found: set[str] = set()
        stack = [concept]
        while stack:
            general = stack.pop()
            for child, parents in self._parents.items():
                if general in parents and child not in found:
                    found.add(child)
                    stack.append(child)
        return found

    def is_subconcept(self, specific: str, general: str) -> bool:
        """True if *specific* is-a *general* (reflexive)."""
        self._require(specific)
        self._require(general)
        if specific == general:
            return True
        return general in self.ancestors(specific)

    def distance(self, specific: str, general: str) -> Optional[int]:
        """Shortest is-a path length from *specific* up to *general*
        (0 for equal concepts); None when not subsumed."""
        if not self.is_subconcept(specific, general):
            return None
        hops, frontier, seen = 0, {specific}, {specific}
        while general not in frontier:
            frontier = {p for c in frontier for p in self._parents[c]} - seen
            seen |= frontier
            hops += 1
        return hops

    @property
    def concepts(self) -> list[str]:
        return sorted(self._parents)

    def __len__(self) -> int:
        return len(self._parents)

    def __repr__(self) -> str:
        return f"<Ontology {self.name} concepts={len(self)}>"
