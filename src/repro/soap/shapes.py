"""One shape grammar for both directions of the SOAP codec.

A *shape* is what stays put in an element tree from one message to the
next, the texts that vary cut out as *slots*: a hashable tree of tuples

    node       = (name, attributes, nsdecls, content)
    name       = (uri, local, prefix)      the prefix writes bytes, so it counts
    attributes = ((name, value), ...)
    nsdecls    = ((prefix, uri), ...)
    content    = SLOT                       a leaf: its text is the next slot
               | (part, ...)                static text (str), a node or a Group

where ``Group(item)`` is a run of sibling *item* leaves that differ only
in their text (a list of floats): one slot holding a list of texts,
whatever the run's length.  Slots are numbered in document order.  The
one value is cache key, build plan and reader source; per shape, once:

- :func:`template` — the wire cut at its slots, written by the real
  serialiser with a sentinel in every slot, so :meth:`Wire.render` is
  ``serialize(grow(shape, texts), xml_declaration=True)`` by construction;
- :func:`cut` — the decode side's learner: the shapes of a parsed wire's
  elements and that wire cut at their slots, whose :meth:`Wire.match`
  takes the texts out of the next wire of the shape without parsing;
- :func:`grow` — the element tree of a shape and its texts;
- :func:`readers` — ``decode_value`` specialised per RPC parameter.

:func:`shape_of` derives the shape of an element tree;
:func:`repro.soap.encoding.value_tree` that of a value walk.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Callable, NamedTuple, Optional

from repro.xmlkit import Element, XmlParseError, ns
from repro.xmlkit.names import intern_qname
from repro.xmlkit.serializer import escape_text, serialize
from repro.xmlkit.tokenizer import Tokenizer, TokenType

#: the content of a leaf: its text is the next slot
SLOT = None
#: element trees nested deeper than this have no shape
MAX_DEPTH = 6


class Group(NamedTuple):
    """A run of *item* leaves filling one slot with a list of texts."""

    item: tuple


def _boolean(text: str) -> bool:
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    raise ValueError(text)


#: The decode half of the scalar ladder: ``xsi:type`` local name ->
#: (converter that raises ValueError, what ``decode_value`` calls a
#: literal it refused).
SCALAR_READERS: dict[str, tuple[Callable[[str], Any], str]] = {
    "string": (str, "string"),
    **dict.fromkeys(("int", "long", "short", "integer", "byte"), (int, "integer")),
    **dict.fromkeys(("double", "float", "decimal"), (float, "float")),
    "boolean": (_boolean, "boolean"),
}


def grow(node: tuple, texts) -> Element:
    """A fresh element tree of *node* holding *texts* (consumed in slot
    order, so several nodes can share one iterator).  Every tree has its
    own dicts: trees grown from one shape stay isolated."""
    return _grow(node, iter(texts))


def _grow(node: tuple, texts) -> Element:
    name, attributes, nsdecls, content = node
    elem = Element(intern_qname(*name), nsdecls=dict(nsdecls) if nsdecls else None)
    for attr, value in attributes:
        elem.attributes[intern_qname(*attr)] = value
    if content is SLOT:
        elem.append_text(next(texts))
        return elem
    for part in content:
        if part.__class__ is str:
            elem.append_text(part)
        elif part.__class__ is Group:
            for text in next(texts):
                elem.append(_grow(part.item, iter((text,))))
        else:
            elem.append(_grow(part, texts))
    return elem


def slot_kinds(node: tuple, kinds: Optional[list] = None) -> list[bool]:
    """Per slot of *node*, in order: is it a group's?"""
    kinds = [] if kinds is None else kinds
    content = node[3]
    if content is SLOT:
        kinds.append(False)
        return kinds
    for part in content:
        if part.__class__ is Group:
            kinds.append(True)
        elif part.__class__ is not str:
            slot_kinds(part, kinds)
    return kinds


def attribute(node: tuple, uri: str, local: str) -> Optional[str]:
    """The value of *node*'s attribute ``{uri}local`` (any prefix)."""
    for (a_uri, a_local, _), value in node[1]:
        if a_local == local and a_uri == uri:
            return value
    return None


def _static(elem: Element) -> tuple:
    """``(name, attributes, nsdecls)`` of *elem*, as a node has them."""
    name = elem.name
    return (
        (name.uri, name.local, name.prefix),
        tuple([((a.uri, a.local, a.prefix), value) for a, value in elem.attributes.items()]),
        tuple(elem.nsdecls.items()),
    )


def shape_of(elem: Element, texts: list, depth: int = 0) -> Optional[tuple]:
    """The shape of *elem*, its leaf texts appended to *texts*; None for
    mixed content (text next to child elements) or a tree deeper than
    :data:`MAX_DEPTH` — those take the serialiser."""
    if depth > MAX_DEPTH:
        return None
    static = _static(elem)
    content = elem.content
    if all(item.__class__ is str for item in content):
        if not content:
            return static + ((),)
        texts.append("".join(content))
        return static + (SLOT,)
    parts = []
    for item in content:
        if item.__class__ is str:
            return None  # mixed content
        part = shape_of(item, texts, depth + 1)
        if part is None:
            return None
        parts.append(part)
    return static + (tuple(parts),)


class Wire:
    """A wire cut at its slots: ``segments[0]``, then per slot its text
    and ``segments[k + 1]``.  A group's slot is its items' texts with
    ``separators[k]`` between them (None: a leaf's slot).  A template
    splices texts in (:meth:`render`); a decode skeleton takes them out
    (:meth:`match`)."""

    __slots__ = ("segments", "separators", "_after", "_leaves")

    def __init__(self, segments: list[str], separators: list[Optional[str]]):
        self.segments = segments
        self.separators = separators
        self._after = tuple(zip(separators, segments[1:]))
        #: the segments after the slots when none is a group's
        self._leaves = None if any(separators) else tuple(segments[1:])

    def render(self, texts: list) -> Optional[str]:
        """The wire with *texts* escaped into its slots; None when a text
        is empty — the serialiser writes that element self-closed."""
        parts = [self.segments[0]]
        if self._leaves:
            for text, segment in zip(texts, self._leaves):
                if not text:
                    return None
                parts.append(escape_text(text))
                parts.append(segment)
            return "".join(parts)
        for text, (separator, segment) in zip(texts, self._after):
            if not text or separator is not None and not all(text):
                return None
            if separator is None:
                text = escape_text(text)
            else:
                # one scan of the whole run (escape_text's characters)
                # rather than one per item: numeric lists need none
                run = "".join(text)
                if "&" in run or "<" in run or ">" in run or "\r" in run:
                    text = map(escape_text, text)
                text = separator.join(text)
            parts.append(text)
            parts.append(segment)
        return "".join(parts)

    def match(self, wire: str) -> Optional[list]:
        """The slot texts when *wire* is this wire with other texts in its
        slots, else None.  A slot ends at the next ``<``, as a text token
        does, so a match implies the parser's tokens; a group's run, split
        at its separator, matches when every ``<`` in it is a separator's."""
        first = self.segments[0]
        if not wire.startswith(first):
            return None
        pos = len(first)
        texts: list = []
        try:
            for separator, segment in self._after:
                if separator is not None:
                    end = wire.find(segment, pos)
                    if end < 0:
                        return None
                    run = wire[pos:end]
                    raw = run.split(separator)
                    if run.count("<") != separator.count("<") * (len(raw) - 1):
                        return None
                    if "&" in run:
                        decode = Tokenizer(wire).decode_entities
                        raw = [decode(item, pos) for item in raw]
                else:
                    end = wire.find("<", pos)
                    if not wire.startswith(segment, end):  # also when no '<' is left
                        return None
                    raw = wire[pos:end]
                    if "&" in raw:
                        raw = Tokenizer(wire).decode_entities(raw, pos)
                texts.append(raw)
                pos = end + len(segment)
        except XmlParseError:
            return None  # the parser raises it
        return texts if pos == len(wire) else None


def split_at_sentinels(wire: str, count_: int) -> Optional[list[str]]:
    """*wire* cut at the sentinels ``\\x00k\\x00``, k < *count_*, each met
    once and in order; None when static text (the only place NUL can
    survive escaping) collided with one."""
    segments = []
    prev = 0
    for k in range(count_):
        marker = f"\x00{k}\x00"
        at = wire.find(marker)
        if at < prev or wire.find(marker, at + 1) >= 0:
            return None
        segments.append(wire[prev:at])
        prev = at + len(marker)
    segments.append(wire[prev:])
    return segments


def template(node: tuple) -> Optional[Wire]:
    """The wire of *node* (a whole document: it is written with the XML
    declaration) cut at its slots, or None when static content collides
    with a sentinel.  Each group is written with two items; the static
    text between them is its separator."""
    kinds = slot_kinds(node)
    markers = (f"\x00{k}\x00" for k in count())
    texts = [[next(markers), next(markers)] if group else next(markers) for group in kinds]
    segments = split_at_sentinels(
        serialize(grow(node, texts), xml_declaration=True), len(kinds) + sum(kinds)
    )
    if segments is None:
        return None
    cut_at, separators = [segments[0]], []
    rest = iter(segments[1:])
    for group in kinds:
        separators.append(next(rest) if group else None)
        cut_at.append(next(rest))
    return Wire(cut_at, separators)


def cut(wire: str, elements: list[Element], depth: int = 2) -> tuple[list[tuple], Wire]:
    """The shapes of *elements* — the parsed *wire*'s elements at *depth*
    in document order, with the namespaces they were read with — and
    *wire* cut at their slots.  A slot is an element's one optional plain
    text run; other content (children, CDATA, comments) is static, so no
    slot value is kept.  Sibling leaves written back to back with the same
    tags fold into a group."""
    start_tag, end_tag, text = TokenType.START_TAG, TokenType.END_TAG, TokenType.TEXT
    tokens = list(Tokenizer(wire).tokens())
    spans = []  # per element at or below depth, in document order
    level = 0
    for i, token in enumerate(tokens):
        if token.type is end_tag:
            level -= 1
        elif token.type is start_tag:
            if level >= depth:
                j = i + 1
                # a TEXT token that starts at '<' is a CDATA section
                if tokens[j].type is text and wire[tokens[j].offset] != "<":
                    j += 1
                slot = not token.self_closing and tokens[j].type is end_tag
                # a slot leaf: where its open tag, text, end tag and successor start
                spans.append(
                    (token.offset, tokens[i + 1].offset, tokens[j].offset, tokens[j + 1].offset)
                    if slot else None
                )
            level += not token.self_closing
    edges = [0]
    separators: dict[int, str] = {}
    at = 0

    def node_of(elem: Element) -> tuple:
        nonlocal at
        span, at = spans[at], at + 1
        static = _static(elem)
        if span is not None:
            edges.extend(span[1:3])
            return static + (SLOT,)
        parts: list = []
        last = None  # the span of the slot leaf just taken
        for item in elem.content:
            span = None if isinstance(item, str) else spans[at]
            if (
                last and span and last[3] == span[0]  # two slot leaves, back to back,
                and wire[last[0]:last[1]] == wire[span[0]:span[1]]  # same open tag
                and wire[last[2]:last[3]] == wire[span[2]:span[3]]  # and end tag
            ):
                at += 1  # the leaf before it becomes (or stays) a group
                if parts[-1].__class__ is not Group:
                    parts[-1] = Group(parts[-1])
                separators[len(edges) // 2 - 1] = wire[last[2]:span[1]]
                edges[-1] = span[2]
            else:
                parts.append(item if isinstance(item, str) else node_of(item))
            last = span
        return static + (tuple(parts),)

    nodes = [node_of(elem) for elem in elements]
    edges.append(len(wire))
    segments = [wire[a:b] for a, b in zip(edges[::2], edges[1::2])]
    return nodes, Wire(segments, [separators.get(k) for k in range(len(segments) - 1)])


def readers(body: tuple) -> Optional[tuple]:
    """``(parameter local name, reader)`` per child of the RPC wrapper
    *body*: ``reader(texts)`` is what ``decode_value`` makes of it.  None
    when one needs the element path: an ``href``, no ``xsi:type`` or one
    the scalar table, Array and Struct do not cover, a group anywhere
    but in an Array."""
    fields = _fields(body, 0)
    if fields is None or any(group for _, _, group in fields):
        return None
    return tuple((name, reader) for name, reader, _ in fields)


def _fields(node: tuple, at: int) -> Optional[list]:
    """``(local name, reader, is a group)`` per child of *node*, whose
    first slot is *at*; None when a child has no reader."""
    fields = []
    for part in () if node[3] is SLOT else node[3]:
        if part.__class__ is str:
            continue
        group = part.__class__ is Group
        item = part.item if group else part
        reader = _reader(item, at, group)
        if reader is None:
            return None
        fields.append((item[0][1], reader, group))
        at += 1 if group else len(slot_kinds(part))
    return fields


def _reader(node: tuple, at: int, group: bool) -> Optional[Callable[[list], Any]]:
    """The reader of *node* (first slot *at*), or of the run of its
    copies that a *group* is."""
    if attribute(node, ns.XSI, "nil") in ("true", "1"):
        return None if group else lambda texts: None
    type_text = attribute(node, ns.XSI, "type")
    if type_text is None or attribute(node, "", "href") is not None:
        return None
    # all decode_value takes from the resolved QName is its local part
    local = type_text.partition(":")[2] or type_text
    row = SCALAR_READERS.get(local)
    if row is not None:
        convert = row[0]
        if group:
            return lambda texts: list(map(convert, texts[at]))
        if node[3] is SLOT:
            return lambda texts: convert(texts[at])
        try:  # static content: convert it once
            value = convert("".join([part for part in node[3] if part.__class__ is str]))
        except ValueError:
            return None
        return lambda texts: value
    fields = None if group or local not in ("Array", "Struct") else _fields(node, at)
    if fields is None or local == "Struct" and any(is_group for _, _, is_group in fields):
        return None
    if local == "Struct":
        return lambda texts: {name: reader(texts) for name, reader, _ in fields}
    if len(fields) == 1 and fields[0][2]:
        return fields[0][1]  # the whole array is one group
    runs = [reader if group else lambda texts, one=reader: [one(texts)] for _, reader, group in fields]
    return lambda texts: [value for run in runs for value in run(texts)]
