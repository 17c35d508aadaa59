"""Advert queries: how peers express what they are looking for.

P2PS search is *attribute-based*, "as opposed to the key-based search
employed by DHT systems" (§IV, reason 1): a query can match on kind,
name pattern (``%`` wildcards, same dialect as UDDI) and arbitrary
attribute equalities; services are matched against their
ServiceAdvertisement attributes.
"""

from __future__ import annotations

from typing import Optional

from repro.p2ps.advertisements import (
    Advertisement,
    PeerAdvertisement,
    PipeAdvertisement,
    ServiceAdvertisement,
)
from repro.uddi.model import match_name
from repro.xmlkit import Element, QName, ns


def _q(local: str) -> QName:
    return QName(ns.P2PS, local, "p2ps")


def advert_name(advert: Advertisement) -> str:
    """The name a query's pattern is matched against: a peer without
    one goes by its id."""
    if isinstance(advert, PeerAdvertisement):
        return advert.name or advert.peer_id
    return advert.name


class AdvertQuery:
    """A query over advertisements."""

    def __init__(
        self,
        kind: str = "service",
        name_pattern: str = "%",
        attributes: Optional[dict[str, str]] = None,
    ):
        if kind not in ("service", "pipe", "peer"):
            raise ValueError(f"bad query kind {kind!r}")
        self.kind = kind
        self.name_pattern = name_pattern
        self.attributes = dict(attributes or {})

    # ------------------------------------------------------------------
    def matches(self, advert: Advertisement) -> bool:
        if self.kind == "service":
            if not isinstance(advert, ServiceAdvertisement):
                return False
            if not match_name(self.name_pattern, advert.name):
                return False
            return all(
                advert.attributes.get(key) == value
                for key, value in self.attributes.items()
            )
        if self.kind == "pipe":
            return isinstance(advert, PipeAdvertisement) and match_name(
                self.name_pattern, advert.name
            )
        return isinstance(advert, PeerAdvertisement) and match_name(
            self.name_pattern, advert_name(advert)
        )

    # ------------------------------------------------------------------
    def to_element(self) -> Element:
        root = Element(_q("Query"), nsdecls={"p2ps": ns.P2PS})
        root.set("kind", self.kind)
        root.add(_q("NamePattern"), text=self.name_pattern)
        for key in sorted(self.attributes):
            root.add(_q("Attribute"), text=self.attributes[key], name=key)
        return root

    @classmethod
    def from_element(cls, elem: Element) -> "AdvertQuery":
        attributes = {
            a.get("name"): a.text for a in elem.find_all(_q("Attribute")) if a.get("name")
        }
        return cls(
            elem.get("kind", "service"),
            elem.find_text("NamePattern", "%"),
            attributes,
        )

    def __repr__(self) -> str:
        return f"<AdvertQuery {self.kind} name={self.name_pattern!r} attrs={self.attributes}>"
