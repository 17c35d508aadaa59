"""The WS-Addressing EndpointReference.

Almost every EPR is a *struct of leaves*: an Address plus N
attribute-free leaf properties (§IV-B; the P2PS binding keeps a pipe
advert's fields there).  Its *property shape*, one ``((uri, local,
prefix), nsdecls items)`` per property, is what a head's addressing plan
reads a decoded ``wsa:ReplyTo`` as and what the MAP record takes (:meth:`leaves`).
A *value-backed* EPR keeps ``(address, shape, texts)`` and grows its
properties only when ``reference_properties`` is read.
"""

from __future__ import annotations

from typing import Optional

from repro.xmlkit import Element, QName, ns
from repro.xmlkit.names import intern_qname


class WsaError(ValueError):
    """Malformed WS-Addressing content."""


_EPR = QName(ns.WSA, "EndpointReference", "wsa")
_ADDRESS = QName(ns.WSA, "Address", "wsa")
_REF_PROPS = QName(ns.WSA, "ReferenceProperties", "wsa")


def grow_leaves(shape: tuple, texts: list) -> list[Element]:
    """Fresh property elements of a struct-of-leaves *shape*."""
    return [
        Element(intern_qname(*name), text=text, nsdecls=nsdecls)
        for (name, nsdecls), text in zip(shape, texts)
    ]


class EndpointReference:
    """An abstract endpoint: mandatory Address URI + extension content.

    ``reference_properties`` is a list of arbitrary elements; a
    value-backed EPR (:meth:`from_texts`) builds it on first read.
    ``property_text``, ``leaves`` and ``to_element`` never build it.
    """

    def __init__(
        self,
        address: str,
        reference_properties: Optional[list[Element]] = None,
    ):
        if not address:
            raise WsaError("EndpointReference requires a non-empty Address")
        self.address = address
        self._properties: Optional[list[Element]] = [
            e.copy() for e in (reference_properties or [])
        ]
        #: while value-backed (``_properties`` is None): the struct
        self._shape: tuple = ()
        self._texts: list = []

    @classmethod
    def from_texts(cls, address: str, shape: tuple, texts: list) -> "EndpointReference":
        """A value-backed EPR: properties of *shape* carrying *texts*."""
        epr = cls(address)
        epr._properties, epr._shape, epr._texts = None, shape, texts
        return epr

    @property
    def reference_properties(self) -> list[Element]:
        if self._properties is None:
            self._properties = grow_leaves(self._shape, self._texts)
        return self._properties

    def leaves(self) -> Optional[tuple[tuple, list]]:
        """``(property shape, texts)`` when every property is an
        attribute-free leaf, else None.  Read-only: the texts may be
        this EPR's own."""
        if not self._properties:  # value-backed, or none at all
            return (self._shape, self._texts) if self._properties is None else ((), [])
        shape, texts = [], []
        for prop in self._properties:
            if prop.attributes or prop.children:
                return None
            name = prop.name
            shape.append(((name.uri, name.local, name.prefix), tuple(prop.nsdecls.items())))
            texts.append(prop.text)
        return tuple(shape), texts

    # ------------------------------------------------------------------
    def find_property(self, name: QName | str) -> Optional[Element]:
        for prop in self.reference_properties:
            if isinstance(name, QName):
                if prop.name == name:
                    return prop
            elif prop.name.local == name:
                return prop
        return None

    def property_text(self, name: QName | str, default: str = "") -> str:
        if self._properties is not None:
            prop = self.find_property(name)
            return prop.text if prop is not None else default
        for ((uri, local, _), _), text in zip(self._shape, self._texts):
            if local == name if isinstance(name, str) else (uri, local) == (name.uri, name.local):
                return text
        return default

    # ------------------------------------------------------------------
    def to_element(self, tag: Optional[QName] = None) -> Element:
        """Serialise; *tag* overrides the element name (e.g. wsa:ReplyTo)."""
        root = Element(tag or _EPR, nsdecls={"wsa": ns.WSA})
        root.add(_ADDRESS, text=self.address)
        props = self.property_elements()
        if props:
            wrapper = root.add(_REF_PROPS)
            for prop in props:
                wrapper.append(prop)
        return root

    def property_elements(self) -> list[Element]:
        """Fresh copies of the properties, for a tree of their own."""
        if self._properties is None:
            return grow_leaves(self._shape, self._texts)
        return [prop.copy() for prop in self._properties]

    @classmethod
    def from_element(cls, elem: Element) -> "EndpointReference":
        address_elem = elem.find(_ADDRESS)
        if address_elem is None or not address_elem.text:
            raise WsaError(f"element {elem.name} has no wsa:Address")
        props: list[Element] = []
        wrapper = elem.find(_REF_PROPS)
        if wrapper is not None:
            props = [c.copy_with_scope() for c in wrapper.children]
        return cls(address_elem.text, props)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EndpointReference):
            return NotImplemented
        return (
            self.address == other.address
            and len(self.reference_properties) == len(other.reference_properties)
            and all(
                a == b
                for a, b in zip(self.reference_properties, other.reference_properties)
            )
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        count = len(self._shape) if self._properties is None else len(self._properties)
        return f"<EndpointReference {self.address} props={count}>"
