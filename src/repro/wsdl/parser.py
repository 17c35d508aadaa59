"""WSDL parsing: document text → :class:`WsdlDefinition`.

The element path is ``parse`` + :func:`parse_wsdl_element`.  A class
seen twice whose template writes the document byte for byte is a
*skeleton*: the next document it matches is read off its slot texts
(:func:`_read`) without tokenising."""

from __future__ import annotations

from typing import Optional

from repro.caching import ArtifactCache
from repro.wsdl.model import (
    FIELDS, NAMED, NEEDED, REQUIRED, SECTIONS, WsdlDefinition, WsdlError, class_template, wsdl_name, xsd_name,
)
from repro.xmlkit import Element, XmlError, parse


def _local_ref(text: str) -> str:
    """Strip the prefix off a ``tns:name`` reference."""
    return text.rpartition(":")[2]


_skeletons = ArtifactCache("wsdl-skeletons", 16)
_probation = ArtifactCache("wsdl-skeleton-probation", 64)


def parse_wsdl(text: str) -> WsdlDefinition:
    for key, wire in _skeletons.recent():
        texts = wire.match(text)
        definition = None if texts is None else _read(key, texts)
        if definition is not None:
            _skeletons.get(key)  # counts the hit, makes it most recent
            return definition
    _skeletons.misses += 1
    try:
        root = parse(text)
    except XmlError as exc:
        raise WsdlError(f"WSDL is not well-formed XML: {exc}") from exc
    definition = parse_wsdl_element(root)
    key, texts = definition.texts()
    if key not in _skeletons and _probation.invalidate(key):
        wire = class_template(definition, key)
        if wire is not None and wire.render(texts) == text:
            _skeletons.put(key, (key, wire))
    elif key not in _skeletons:
        _probation.put(key, True)  # a second sighting learns
    return definition


def _read(key: tuple, texts: list[str]) -> Optional[WsdlDefinition]:
    """What :func:`parse_wsdl_element` reads off a document of class
    *key* holding *texts* (:meth:`WsdlDefinition.texts`); None for an
    empty text (a missing name: the element path decides)."""
    if "" in texts:
        return None
    take = iter(texts).__next__
    flag = iter(key).__next__
    take()  # the tns declaration: the element path reads targetNamespace
    definition = WsdlDefinition(take(), take())
    types = flag()
    if types is not None:
        take()  # the schema's targetNamespace
        for fields in types:
            definition.add_schema_type(take(), [(take(), take()) for _ in range(fields)])
    for table, kind in SECTIONS:
        read, items, label = _READERS[kind], getattr(definition, table), FIELDS[kind][0].local
        for _ in range(flag()):
            definition._add(items, read(take, flag), label)
    return definition


def _reader(kind: type):
    """The reader of a *kind* of item compiled from its ``FIELDS`` row
    (the source holds nothing else): one call of *kind* whose keyword
    arguments, evaluated in document order, take its texts (a flag
    before an optional one), then its children after their count."""
    _, fields, children = FIELDS[kind]
    args = [
        f"{f.attr}={'ref(take())' if f.ref else 'take()'}"
        + ("" if f.absent is REQUIRED else f" if flag() else {f.absent!r}")
        for f in fields
    ] + ([f"{children[0]}=[readers[child](take, flag) for _ in range(flag())]"] if children else [])
    scope = {"kind": kind, "child": children and children[1], "ref": _local_ref, "readers": _READERS}
    return eval(f"lambda take, flag: kind({', '.join(args)})", scope)  # noqa: S307


_READERS: dict[type, object] = {}
_READERS.update((kind, _reader(kind)) for kind in FIELDS)


_wsdl_cache = ArtifactCache("wsdl-definitions", max_entries=128)


def parse_wsdl_cached(text: str) -> WsdlDefinition:
    """:func:`parse_wsdl`, keyed on the text itself (equal documents
    served by several providers share one definition, immutable by
    convention; a redeploy serves new text, and old entries age out)."""
    definition = _wsdl_cache.get(text)
    if definition is None:
        definition = _wsdl_cache.put(text, parse_wsdl(text))
    return definition


def parse_wsdl_element(root: Element) -> WsdlDefinition:
    if root.name != wsdl_name("definitions"):
        raise WsdlError(f"not a WSDL document: root is {root.name}")
    target_namespace = root.get("targetNamespace")
    if not target_namespace:
        raise WsdlError("definitions element lacks targetNamespace")
    definition = WsdlDefinition(root.get("name", ""), target_namespace)

    types_elem = root.find(wsdl_name("types"))
    for schema in types_elem.find_all(xsd_name("schema")) if types_elem is not None else ():
        for complex_type in schema.find_all(xsd_name("complexType")):
            type_name = complex_type.get("name")
            sequence = complex_type.find(xsd_name("sequence"))
            if type_name:
                definition.add_schema_type(type_name, [
                    (field.get("name", ""), field.get("type", "xsd:anyType"))
                    for field in (() if sequence is None else sequence.find_all(xsd_name("element")))
                ])
    for table, kind in SECTIONS:
        tag, items = FIELDS[kind][0], getattr(definition, table)
        for elem in root.find_all(tag):
            definition._add(items, _item(elem, kind, ""), tag.local)
    return definition


def _item(elem: Element, kind: type, where: str):
    """The *kind* of item *elem* reads as, by its :data:`FIELDS` row;
    *where* names its parent in an error."""
    tag, fields, children = FIELDS[kind]
    values = {}
    for f in fields:
        holder = elem if f.element is None else elem.find(f.element)
        if holder is None and f.default is NEEDED:
            raise WsdlError(f"{tag.local} {values['name']!r} has no {f.element.local} message")
        if holder is None:
            values[f.attr] = f.default if f.absent is REQUIRED else f.absent
            continue
        text = holder.text if f.attribute is None else holder.get(f.attribute)
        if f.default is NAMED and not text:
            raise WsdlError(f"{tag.local} without a name{where}")
        if text is None:
            text = "" if f.default is NEEDED else f.default
        values[f.attr] = _local_ref(text) if f.ref else text
    if children is not None:
        where = f" in {tag.local} {values['name']!r}"
        values[children[0]] = [
            _item(child, children[1], where) for child in elem.find_all(FIELDS[children[1]][0])
        ]
    return kind(**values)
