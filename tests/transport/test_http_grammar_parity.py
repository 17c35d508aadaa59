"""``HttpRequest.from_wire`` against the RFC 9110/9112 grammar oracle.

20 000 seeded request heads, mostly well-formed and each with a few
mutations drawn from what the ABNF refuses (controls, DEL, stray
whitespace, bad tokens, other versions) or reads subtly (obs-text,
OWS, repeated names).  The codec must accept exactly what the oracle
accepts and read the same method, target and fields — save where the
oracle's POLICY table says why not.  Stdlib ``http.client.parse_headers``
is a second vote on how accepted fields split into names and values.
"""

import io
import random
from http.client import parse_headers

from repro.transport.http import HttpRequest, TransportError
from tests._oracle.http_grammar import (
    HTTP_VERSION,
    POLICY,
    REQUEST_TARGET,
    GrammarError,
    request_head,
)

HEADS = 20_000
SEED = 20_240_519

SAFE = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-._~"
ODD = [" ", "\t", "\x00", "\x01", "\x0b", "\x0c", "\r", "\n", "\x1f", "\x7f",
       "é", "\xa0", "\x85", " ", "(", ")", ",", ":", ";", "@", "\"", "/", "?"]
METHODS = ["GET", "POST", "PUT", "get", "M-SEARCH", "PATCH!", "X~Y"]
TARGETS = ["/", "/svc/Echo", "/a?b=c", "*", "http://h:80/x", "/Sérvice", "/%41"]
VERSIONS = ["HTTP/1.1"] * 6 + ["HTTP/1.0", "HTTP/2.0", "HTTP/9.1", "http/1.1", "HTTP/1.10"]
NAMES = ["Host", "SOAPAction", "Accept", "X-Trace", "x-a", "Via", "If-None-Match"]


def _word(rng, pool, odd_rate=0.08):
    word = list(rng.choice(pool)) if rng.random() < 0.7 else [
        rng.choice(SAFE) for _ in range(rng.randint(0, 8))]
    for _ in range(len(word) + 1):
        if rng.random() < odd_rate:
            word.insert(rng.randint(0, len(word)), rng.choice(ODD))
    return "".join(word)


def _head(rng):
    start = " ".join([_word(rng, METHODS, 0.03), _word(rng, TARGETS, 0.03),
                      rng.choice(VERSIONS)])
    lines = [start]
    for _ in range(rng.randint(0, 5)):
        name = _word(rng, NAMES, 0.02)
        value = _word(rng, [SAFE[:10], "text/xml; charset=utf-8", "a, b", '"x"'], 0.1)
        lines.append(f"{name}:{rng.choice(['', ' ', '  ', chr(9)])}{value}")
    return "\r\n".join(lines)


def _grammar_accepts(head):
    try:
        request_head(head)
    except GrammarError:
        return False
    return True


def _policy(codec_accepts, head):
    """The POLICY row that explains a verdict only one side reaches."""
    start, sep, fields = head.partition("\r\n")
    words = start.split(" ")
    if len(words) != 3:
        return None
    method, target, version = words
    if not codec_accepts:
        well_formed = HTTP_VERSION.fullmatch(version)
        return "version" if well_formed and version not in ("HTTP/1.0", "HTTP/1.1") else None
    if "\x7f" in head and _grammar_accepts(head.replace("\x7f", "")):
        return "del"
    ascii_target = " ".join([method, "/x", version]) + sep + fields
    if not REQUEST_TARGET.fullmatch(target) and _grammar_accepts(ascii_target.replace("\x7f", "")):
        return "iri-target"
    return None


def test_codec_accepts_what_the_grammar_accepts_and_reads_it_alike():
    rng = random.Random(SEED)
    tally = {"both": 0, "neither": 0, **dict.fromkeys(POLICY, 0)}
    for _ in range(HEADS):
        head = _head(rng)
        wire = (head + "\r\n\r\n").encode("utf-8")
        try:
            ours = HttpRequest.from_wire(wire)
        except TransportError:
            ours = None
        try:
            method, target, version, fields = request_head(head)
        except GrammarError:
            fields = None
        if (ours is None) != (fields is None):
            row = _policy(ours is not None, head)
            assert row is not None, f"codec {'accepts' if ours else 'refuses'} {head!r}"
            tally[row] += 1
            continue
        if ours is None:
            tally["neither"] += 1
            continue
        tally["both"] += 1
        tally["method-case"] += ours.method != method
        assert ours.method == method.upper(), head
        tally["origin-form"] += not target.startswith("/")
        assert ours.path == (target if target.startswith("/") else "/" + target), head
        last = {}
        for name, value in fields:
            last[name.lower()] = (last.get(name.lower(), (name,))[0], value)
        tally["last-wins"] += len(last) < len(fields)
        assert sorted(ours.headers._entries.values()) == sorted(last.values()), head
        # the second vote: the stdlib splits the field lines alike
        block = "".join(f"{line}\r\n" for line in head.split("\r\n")[1:]) + "\r\n"
        stdlib = parse_headers(io.BytesIO(block.encode("utf-8")))  # read as latin-1
        assert [(n, v.rstrip(" \t")) for n, v in stdlib.items()] == [
            (n, v.encode("utf-8").decode("latin-1")) for n, v in fields
        ], head
    # the generator reaches every verdict and every policy row
    assert all(tally.values()), tally
