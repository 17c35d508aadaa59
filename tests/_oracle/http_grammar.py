"""An HTTP request head read by the ABNF of RFC 9110 / 9112 alone.

    tchar        = "!" / "#" / "$" / "%" / "&" / "'" / "*" / "+" / "-"
                 / "." / "^" / "_" / "`" / "|" / "~" / DIGIT / ALPHA
    token        = 1*tchar                                  ; 9110 §5.6.2
    field-vchar  = VCHAR / obs-text                          ; 9110 §5.5
    field-value  = *field-content
    field-content = field-vchar [ 1*( SP / HTAB / field-vchar ) field-vchar ]
    field-line   = field-name ":" OWS field-value OWS        ; 9112 §5
    HTTP-version = %s"HTTP" "/" DIGIT "." DIGIT              ; 9112 §2.3
    start-line   = request-line                              ; of a request
    request-line = method SP request-target SP HTTP-version  ; 9112 §3

A head is text: a character past U+007F is obs-text; a target is URI (ASCII).
"""

import re

TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_VCHAR = "\x21-\x7e\x80-\U0010ffff"
FIELD_VALUE = re.compile(f"(?:[{_VCHAR}](?:[{_VCHAR} \t]*[{_VCHAR}])?)?")
HTTP_VERSION = re.compile(r"HTTP/[0-9]\.[0-9]")
REQUEST_TARGET = re.compile(r"[\x21-\x7e]+")
OWS = " \t"

#: where the stack reads a head otherwise than the ABNF alone, and why
POLICY = {
    "version": "HTTP/1.0 and 1.1 only: another well-formed version is refused",
    "iri-target": "a target may hold non-ASCII text: service names reach paths unescaped",
    "del": "DEL is text in a field value or a target: printable ASCII written reads back",
    "method-case": "the method is read upper-cased",
    "origin-form": "the target is read as a path: one with no leading '/' gets one",
    "last-wins": "a repeated field name keeps its first spelling and its last value",
}


class GrammarError(ValueError):
    """The head is not a request head by the ABNF."""


def request_head(text: str) -> tuple[str, str, str, list[tuple[str, str]]]:
    """``(method, request-target, HTTP-version, [(name, value), ...])``
    of the request head *text*; raises :class:`GrammarError` where the
    ABNF has no derivation."""
    start, *lines = text.split("\r\n")
    parts = start.split(" ")
    if len(parts) != 3 or not (
        TOKEN.fullmatch(parts[0])
        and REQUEST_TARGET.fullmatch(parts[1])
        and HTTP_VERSION.fullmatch(parts[2])
    ):
        raise GrammarError(f"request-line: {start!r}")
    fields = []
    for line in lines:
        name, colon, rest = line.partition(":")
        value = rest.strip(OWS)
        if not (colon and TOKEN.fullmatch(name) and FIELD_VALUE.fullmatch(value)):
            raise GrammarError(f"field-line: {line!r}")
        fields.append((name, value))
    return parts[0], parts[1], parts[2], fields
