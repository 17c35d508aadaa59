"""One shape grammar for both directions of the SOAP codec.

A *shape* is what stays put in an element tree from one message to the
next, the texts that vary cut out as *slots*: a hashable tree of tuples

    node       = (name, attributes, nsdecls, content)
    name       = (uri, local, prefix)      the prefix writes bytes, so it counts;
                                           uri SLOT: that of its prefix's slotted declaration
    attributes = ((name, value), ...)      value SLOT: a slot in the start tag
    nsdecls    = ((prefix, uri), ...)      uri SLOT: a slot in the start tag
    content    = SLOT                       a leaf: its text is the next slot
               | (part, ...)                static text (str), a node or a Group

where ``Group(item)`` is a run of sibling *item* leaves that differ only
in their text (a list of floats): one slot holding a list of texts,
whatever the run's length.  A start tag's slot ends at the next ``"``.
Slots are numbered in document order: per element its declarations, its
attributes, its content.  The one value is cache key, build plan and
reader source; per shape, once:

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

import re
from itertools import count
from typing import Any, Callable, NamedTuple, Optional

from repro.xmlkit import Element, QName, ns
from repro.xmlkit.names import intern_qname
from repro.xmlkit.serializer import escape_attr, escape_text, serialize

#: the content of a leaf: its text is the next slot
SLOT = None
#: a start tag's slot: its kind in :func:`slot_kinds`, its separator in a :class:`Wire`
VALUE = object()
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


#: ``soapenc:arrayType``'s value (SOAP 1.1 §5.4.2): an ``atype`` QName
#: and one size, whose lengths go unchecked; an atype with ranks of its
#: own (``xsd:double[][]``) does not match
_ARRAY_TYPE = re.compile(r"([^\[\]]+)\[[^\[\]]*\]")


def array_item_type(text: Optional[str]) -> Optional[str]:
    """The QName text of an Array's items when its ``arrayType`` is
    *text* and they have no array type of their own, else None."""
    found = None if text is None else _ARRAY_TYPE.fullmatch(text)
    return found and found[1]


def grow(node: tuple, texts) -> Element:
    """A fresh element tree of *node* holding *texts* (consumed in slot
    order, so several nodes can share one iterator).  Every tree has its
    own dicts: trees grown from one shape stay isolated."""
    return _grow(node, iter(texts), {})


def _qname(name: tuple, scope: dict):
    return intern_qname(*name) if name[0] is not SLOT else intern_qname(scope[name[2]], *name[1:])


def _grow(node: tuple, texts, scope: dict) -> Element:
    """*scope*: prefix -> uri of the slotted declarations in scope."""
    name, attributes, nsdecls, content = node
    decls = {prefix: next(texts) if uri is SLOT else uri for prefix, uri in nsdecls}
    scope = {**scope, **{prefix: decls[prefix] for prefix, uri in nsdecls if uri is SLOT}}
    elem = Element(_qname(name, scope), nsdecls=decls)
    for attr, value in attributes:
        elem.attributes[_qname(attr, scope)] = next(texts) if value is SLOT else value
    if content is SLOT:
        elem.append_text(next(texts))
        return elem
    for part in content:
        if part.__class__ is str:
            elem.append_text(part)
        elif part.__class__ is Group:
            for text in next(texts):
                elem.append(_grow(part.item, iter((text,)), scope))
        else:
            elem.append(_grow(part, texts, scope))
    return elem


def slot_kinds(node: tuple, kinds: Optional[list] = None) -> list:
    """Per slot of *node*, in order: ``True`` a group's, :data:`VALUE`
    one in a start tag, ``False`` a leaf's text."""
    kinds = [] if kinds is None else kinds
    kinds += [VALUE for _, text in node[2] + node[1] if text is SLOT]
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


def _static(elem: Element, bound=(), slotted=(), values: bool = False) -> tuple:
    """``(name, attributes, nsdecls)`` of *elem*, as a node has them: slots
    for *slotted* declarations, names they *bound* and, with *values*, attributes."""
    def ref(q: QName) -> tuple:
        return (SLOT if q.prefix in bound else q.uri, q.local, q.prefix)

    return (
        ref(elem.name),
        tuple([(ref(a), SLOT if values else value) for a, value in elem.attributes.items()]),
        tuple([(prefix, SLOT if prefix in slotted else uri) for prefix, uri in elem.nsdecls.items()]),
    )


def shape_of(elem: Element, texts: list, depth: int = 0, values=None, bound=()) -> Optional[tuple]:
    """The shape of *elem*, its leaf texts appended to *texts*; None for
    mixed content (text next to child elements) or a tree deeper than
    :data:`MAX_DEPTH` — those take the serialiser.  With *values* (a set of
    prefixes) every attribute value and those prefixes' declarations are slots."""
    if depth > MAX_DEPTH:
        return None
    if values is None:
        static = _static(elem)
    else:
        slotted = [prefix for prefix in elem.nsdecls if prefix in values]
        texts += [elem.nsdecls[prefix] for prefix in slotted]
        texts += elem.attributes.values()
        bound = (*bound, *slotted)
        static = _static(elem, bound, slotted, True)
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
        part = shape_of(item, texts, depth + 1, values, bound)
        if part is None:
            return None
        parts.append(part)
    return static + (tuple(parts),)


class Wire:
    """A wire cut at its slots: ``segments[0]``, then per slot its text
    and ``segments[k + 1]``.  A group's slot is its items' texts with
    ``separators[k]`` between them (None: a leaf's slot; :data:`VALUE`:
    a start tag's).  A template splices texts in (:meth:`render`); a
    decode skeleton takes them out (:meth:`match`)."""

    __slots__ = ("segments", "separators", "_after", "_groups", "_pattern")

    def __init__(self, segments: list[str], separators: list):
        self.segments = segments
        self.separators = separators
        self._after = tuple(zip(separators, segments[1:]))
        self._groups = [(k, sep) for k, sep in enumerate(separators) if sep.__class__ is str]
        self._pattern = None  # compiled on the first match

    def render(self, texts: list) -> Optional[str]:
        """The wire with *texts* escaped into its slots; None when a text
        is empty — the serialiser writes that element self-closed."""
        parts = [self.segments[0]]
        for text, (separator, segment) in zip(texts, self._after):
            if not text:
                return None
            if separator is None:
                text = escape_text(text)
            elif separator is VALUE:
                text = escape_attr(text)
            elif "" in text:
                return None
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

    def bind(self, texts: list) -> Optional[tuple]:
        """The wire with *texts* in, cut at the :func:`sentinel`\\ s they
        hold for values to come (:func:`splice`): ``(pieces, the value
        between each two)``; None when a text is empty or holds one
        outside a start tag."""
        for text, separator in zip(texts, self.separators):
            if separator is not VALUE and "\x00" in (text if text.__class__ is str else "".join(text)):
                return None
        wire = self.render(texts)
        pieces = None if wire is None else _SENTINEL.split(wire)
        return pieces and (tuple(pieces[0::2]), tuple(map(int, pieces[1::2])))

    def match(self, wire: str) -> Optional[list]:
        """The slot texts when *wire* is this wire with other texts in its
        slots, else None.  A leaf's slot is character data the parser
        takes as it stands, up to the next ``<``; a start tag's ends at
        the next ``"`` holding nothing the parser would decode, and every
        ``<`` in a group's run starts its separator: a match implies the
        parser's reading.  Where the parser would refuse a slot, there is
        no match: the parser raises the one canonical error."""
        if self._pattern is None:
            self._pattern = re.compile(re.escape(self.segments[0]) + "".join(
                (_PATTERNS.get(sep) or f"({_CHAR_DATA}(?:{re.escape(sep)}{_CHAR_DATA})*)") + re.escape(segment)
                for sep, segment in zip(self.separators, self.segments[1:])
            ))
        found = self._pattern.fullmatch(wire)
        if found is None:
            return None
        texts = list(found.groups())
        entities = "&" in wire and "&" in "".join(texts)
        for k, separator in self._groups:
            texts[k] = texts[k].split(separator)
        if entities:
            try:
                for k, text in enumerate(texts):
                    texts[k] = decode_entities(text) if text.__class__ is str else list(map(decode_entities, text))
            except ValueError:
                return None  # the parser refuses it
        return texts


#: what XML 1.0's ``Char`` production leaves out
_NOT_CHAR = "\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"
#: character data the parser reads back as it stands: ``Char``\ s but CR
#: (line ends are normalised), no ``<`` and no ``]]>``.  A class of what
#: it leaves out: one of what it takes tests faster but compiles ~15×
#: slower, once per skeleton
_CHAR_DATA = f"[^<\\]\r{_NOT_CHAR}]*(?:](?!]>)[^<\\]\r{_NOT_CHAR}]*)*"
#: what :meth:`Wire.match` takes for a leaf's slot and a start tag's
#: (a group's run: items between its separators)
_PATTERNS = {None: f"({_CHAR_DATA})", VALUE: f'([^"&<\t\n\r{_NOT_CHAR}]*)'}
_REFERENCE = re.compile(r"&(?:(lt|gt|amp|apos|quot)|#([0-9]{1,8})|#x([0-9a-fA-F]{1,8}));")
_PREDEFINED = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}
_NOT_CHARS = re.compile(f"[{_NOT_CHAR}]")


def _referent(found: re.Match) -> str:
    if found[1]:
        return _PREDEFINED[found[1]]
    return chr(int(found[2]) if found[2] else int(found[3], 16))  # ValueError past U+10FFFF


def decode_entities(text: str) -> str:
    """*text* with its references replaced; ValueError when one is not a
    predefined entity or a ``Char`` (the parser words that refusal)."""
    decoded, found = _REFERENCE.subn(_referent, text)
    if found != text.count("&") or _NOT_CHARS.search(decoded):
        raise ValueError(text)
    return decoded


def sentinel(k: int) -> str:
    """The marker of slot or value *k* in a wire being cut (NUL: no XML character)."""
    return f"\x00{k}\x00"


_SENTINEL = re.compile("\x00(\\d+)\x00")


def splice(bound: tuple, values: list) -> Optional[str]:
    """A :meth:`Wire.bind` wire with *values* in (attribute values); None for an empty one."""
    if "" in values:
        return None
    pieces, which = bound
    values = [escape_attr(value) for value in values]
    parts = [pieces[0]]
    for k, piece in zip(which, pieces[1:]):
        parts.append(values[k])
        parts.append(piece)
    return "".join(parts)


def split_at_sentinels(wire: str, count_: int) -> Optional[list[str]]:
    """*wire* cut at the sentinels of 0 … *count_* − 1, each met once and
    in order; None when static text (the only place NUL can survive
    escaping) collided with one."""
    pieces = _SENTINEL.split(wire)
    return pieces[0::2] if pieces[1::2] == [str(k) for k in range(count_)] else None


def template(node: tuple) -> Optional[Wire]:
    """The wire of *node* (a whole document: it is written with the XML
    declaration) cut at its slots, or None when static content collides
    with a sentinel.  Each group is written with two items; the static
    text between them is its separator."""
    kinds = slot_kinds(node)
    markers = map(sentinel, count())
    texts = [[next(markers), next(markers)] if kind is True else next(markers) for kind in kinds]
    segments = split_at_sentinels(
        serialize(grow(node, texts), xml_declaration=True), len(kinds) + kinds.count(True)
    )
    if segments is None:
        return None
    cut_at, separators = [segments[0]], []
    rest = iter(segments[1:])
    for kind in kinds:
        separators.append(next(rest) if kind is True else kind or None)
        cut_at.append(next(rest))
    return Wire(cut_at, separators)


#: one construct of a wire that has parsed, by its last group: a comment,
#: CDATA section or PI (1), an end tag (2), a start tag (3; group 4 when
#: it closes itself) or, with none, a text run
_CONSTRUCT = re.compile(
    r"(<!--.*?-->|<!\[CDATA\[.*?]]>|<\?.*?\?>)|(</[^>]*>)|(<(?:[^>\"']|\"[^\"]*\"|'[^']*')*?(/)?>)|[^<]+",
    re.S,
)
_END_TAG, _START_TAG, _CLOSED = 2, 3, 4


def cut(
    wire: str, elements: list[Element], depth: int = 2, own_uri: Optional[Element] = None
) -> tuple[list[tuple], Wire]:
    """The shapes of *elements* — the parsed *wire*'s elements at *depth*
    in document order, with the namespaces they were read with — and
    *wire* cut at their slots.  A slot is an element's one optional plain
    text run; other content (children, CDATA, comments) is static, so no
    slot value is kept.  Sibling leaves written back to back with the same
    tags fold into a group.  *own_uri*'s declaration of its own prefix is
    a slot where :func:`own_declaration` finds it."""
    constructs = list(_CONSTRUCT.finditer(wire))
    spans = []  # per element at or below depth, in document order
    level = 0
    for i, construct in enumerate(constructs):
        kind = construct.lastindex
        if kind == _END_TAG:
            level -= 1
        elif kind == _START_TAG:
            closed = construct[_CLOSED] is not None
            if level >= depth:
                j = i + 1 + (constructs[i + 1].lastindex is None)  # past its plain text
                slot = not closed and constructs[j].lastindex == _END_TAG
                # a slot leaf: where its open tag, text, end tag and successor start
                spans.append(
                    (construct.start(), construct.end(), constructs[j].start(), constructs[j].end())
                    if slot else None
                )
            level += not closed
    edges = [0]
    separators: dict[int, str] = {}
    at = 0

    def node_of(elem: Element, bound: tuple = ()) -> tuple:
        nonlocal at
        span, at, slotted = spans[at], at + 1, ()
        start = own_declaration(wire, elem) if elem is own_uri else -1
        if start >= 0:
            edges.extend((start, start + len(elem.nsdecls[elem.name.prefix])))
            separators[len(edges) // 2 - 1], slotted = VALUE, (elem.name.prefix,)
        bound = (*slotted, *[p for p in bound if p not in elem.nsdecls])
        static = _static(elem, bound, slotted)
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
                parts.append(item if isinstance(item, str) else node_of(item, bound))
            last = span
        return static + (tuple(parts),)

    nodes = [node_of(elem) for elem in elements]
    edges.append(len(wire))
    segments = [wire[a:b] for a, b in zip(edges[::2], edges[1::2])]
    return nodes, Wire(segments, [separators.get(k) for k in range(len(segments) - 1)])


def own_declaration(wire: str, elem: Element) -> int:
    """Where the URI of *elem*'s declaration of its own prefix starts in
    *wire* when it can be a slot, else -1: *wire* names that prefix's
    declaration once, verbatim and double-quoted, in the one start tag
    written with *elem*'s name."""
    prefix = elem.name.prefix
    uri = elem.nsdecls.get(prefix) if prefix else None
    decl, tag = f'xmlns:{prefix}="{uri}"', f"<{prefix}:{elem.name.local}"
    start = -1 if uri is None else wire.find(decl)
    if start < 0 or wire.count(decl[:len(prefix) + 6]) != 1 or wire.count(tag) != 1:
        return -1
    # no '<' in a start tag: the last one before the declaration opens its tag
    return start + len(prefix) + 8 if wire.rfind("<", 0, start) == wire.find(tag) else -1


def readers(body: tuple) -> Optional[tuple]:
    """``(parameter local name, reader)`` per child of the RPC wrapper
    *body*: ``reader(texts)`` is what ``decode_value`` makes of it.  None
    when one needs the element path: an ``href``, no ``xsi:type`` (but
    an Array item's, which its scalar ``arrayType`` types) or one the
    scalar table, Array and Struct do not cover, a group anywhere but in
    an Array."""
    fields = _fields(body, len(slot_kinds(body[:3] + ((),))))  # after its start tag's slots
    if fields is None or any(group for _, _, group in fields):
        return None
    return tuple((name, reader) for name, reader, _ in fields)


def _local(type_text: str) -> str:
    # all decode_value takes from a resolved QName is its local part
    return type_text.partition(":")[2] or type_text


def _fields(node: tuple, at: int, item: Optional[str] = None) -> Optional[list]:
    """``(local name, reader, is a group)`` per child of *node*, whose
    first slot is *at*; None when a child has no reader.  *item*: the
    scalar type a child without ``xsi:type`` takes."""
    fields = []
    for part in () if node[3] is SLOT else node[3]:
        if part.__class__ is str:
            continue
        group = part.__class__ is Group
        kid = part.item if group else part
        reader = _reader(kid, at, group, item)
        if reader is None:
            return None
        fields.append((kid[0][1], reader, group))
        at += 1 if group else len(slot_kinds(part))
    return fields


def _reader(
    node: tuple, at: int, group: bool, item: Optional[str] = None
) -> Optional[Callable[[list], Any]]:
    """The reader of *node* (first slot *at*), or of the run of its
    copies that a *group* is; *item* as for :func:`_fields`."""
    if attribute(node, ns.XSI, "nil") in ("true", "1"):
        return None if group else lambda texts: None
    type_text = attribute(node, ns.XSI, "type")
    if type_text is None and item is None or attribute(node, "", "href") is not None:
        return None
    local = item if type_text is None else _local(type_text)
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
    if group or local not in ("Array", "Struct"):
        return None
    atype = array_item_type(attribute(node, ns.SOAP_ENC, "arrayType")) if local == "Array" else None
    item = atype and _local(atype)
    fields = _fields(node, at, item if item in SCALAR_READERS else None)
    if fields is None or local == "Struct" and any(is_group for _, _, is_group in fields):
        return None
    if local == "Struct":
        return lambda texts: {name: reader(texts) for name, reader, _ in fields}
    if len(fields) == 1 and fields[0][2]:
        return fields[0][1]  # the whole array is one group
    runs = [reader if group else lambda texts, one=reader: [one(texts)] for _, reader, group in fields]
    return lambda texts: [value for run in runs for value in run(texts)]
