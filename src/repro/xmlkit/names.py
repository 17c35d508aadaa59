"""Qualified names (QNames) and name validity checks."""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.caching import SoftTable

_NCNAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9._\-]*\Z")

XML_URI = "http://www.w3.org/XML/1998/namespace"
XMLNS_URI = "http://www.w3.org/2000/xmlns/"


def is_ncname(name: str) -> bool:
    """Return True if *name* is a valid NCName (no-colon name).

    We restrict to the ASCII subset of the XML NCName production, which
    is all this stack ever emits.
    """
    return _NCNAME_RE.match(name) is not None


@dataclass(frozen=True, slots=True)
class QName:
    """A namespace-qualified XML name.

    ``uri`` is the namespace URI ('' for no namespace), ``local`` the
    local part, and ``prefix`` a *hint* for serialisation (the
    serialiser may pick a different prefix if the hint collides).
    Equality and hashing ignore the prefix, per XML namespaces
    semantics.
    """

    uri: str
    local: str
    prefix: str = ""

    def __post_init__(self):
        if not is_ncname(self.local):
            raise ValueError(f"invalid local name: {self.local!r}")
        if self.prefix and not is_ncname(self.prefix):
            raise ValueError(f"invalid prefix: {self.prefix!r}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, QName):
            return self.uri == other.uri and self.local == other.local
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.uri, self.local))

    def __str__(self) -> str:
        if self.uri:
            return "{%s}%s" % (self.uri, self.local)
        return self.local

    def clark(self) -> str:
        """Clark notation ``{uri}local`` ('' uri omitted)."""
        return str(self)

    @classmethod
    def from_clark(cls, text: str, prefix: str = "") -> "QName":
        """Parse Clark notation: ``{uri}local`` or bare ``local``."""
        if text.startswith("{"):
            uri, _, local = text[1:].partition("}")
            return cls(uri, local, prefix)
        return cls("", text, prefix)

    def with_prefix(self, prefix: str) -> "QName":
        return QName(self.uri, self.local, prefix)


# ----------------------------------------------------------------------
# interning
# ----------------------------------------------------------------------
# Wire traffic repeats a small vocabulary of names (soapenv:Envelope,
# wsa:To, xsi:type, ...) millions of times; interning skips the
# dataclass construction and NCName re-validation for every repeat and
# makes the ``self is other`` equality fast path hit.  The table is
# capped so adversarial name churn cannot grow memory without limit: a
# new name past the cap pushes out the oldest, and a hit reads the
# table's dict directly — one lookup, no recency bookkeeping.
_INTERN_MAX = 4096
_intern_table = SoftTable(_INTERN_MAX)
_interned: dict[tuple[str, str, str], QName] = _intern_table._data


def intern_qname(uri: str, local: str, prefix: str = "") -> QName:
    """A shared, validated :class:`QName` for ``(uri, local, prefix)``."""
    key = (uri, local, prefix)
    qname = _interned.get(key)
    if qname is None:
        qname = _intern_table.put(key, QName(uri, local, prefix))
    return qname
