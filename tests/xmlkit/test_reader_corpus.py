"""A seeded corpus: the reader agrees with expat and with the reference.

Each document is generated well-formed — namespaces, prefixes, both
quote styles, references, CDATA, comments, PIs — and then, two times in
three, mutated at one character (replaced, inserted or deleted).  On
every document production's verdict must be expat's own
(``xml.etree.ElementTree``, an independent consumer of the same
parser), and its reading must agree with the reference's
(``assert_readers_agree``: the same tree where both accept), outside
the oracle's ``POLICY`` rows.

``XML_CORPUS`` sets the number of documents (2 000 by default; CI runs
100 000).
"""

import os
import random
import xml.etree.ElementTree as ElementTree

from repro.xmlkit import XmlParseError, parse
from tests._oracle.reference_codec import policy_rows
from tests.xmlkit.test_codec_parity import assert_readers_agree

SIZE = int(os.environ.get("XML_CORPUS", "2000"))
SEED = 47

URIS = ["urn:a", "urn:b", "http://x.test/ns", ""]
LOCALS = ["a", "b", "item", "Body", "x1", "n.m", "_u", "v-w"]
TEXTS = [
    "t", "two words", " ", "\n  ", "&amp;", "&lt;&gt;", "&#65;", "&#x42;", "&quot;&apos;",
    "é世", "a>b", "]", "]]", "1.5",
]
VALUES = ["", "v", "a b", "&amp;", "&#10;", "&#x9;", "&lt;", "é", ">", "urn:x", "]]>"]
#: what a mutation writes: markup, quotes, references, white space, non-characters
MUTANTS = list("<>&;#\"'=/!?-[]:x1 \t\n\r\x01\x0b\x85\xa0é") + ["\ufffe", "\ud800", "\ufeff"]


def element(rng: random.Random, depth: int, bound: list[str]) -> str:
    decls, bound = [], list(bound)
    for _ in range(rng.choice((0, 0, 1, 2))):
        prefix = rng.choice(("", "p", "q", "ns1"))
        if prefix in [d[0] for d in decls]:
            continue
        uri = rng.choice(URIS if not prefix else URIS[:-1])
        decls.append((prefix, uri))
        if prefix and prefix not in bound:
            bound.append(prefix)
    prefix = rng.choice([""] + bound)
    name = f"{prefix}:{rng.choice(LOCALS)}" if prefix else rng.choice(LOCALS)
    parts = [f"<{name}"]
    for prefix_, uri in decls:
        parts.append(f' xmlns{":" + prefix_ if prefix_ else ""}="{uri}"')
    for local in rng.sample(LOCALS, rng.choice((0, 0, 1, 2))):  # distinct locals: distinct names
        attribute = f"{rng.choice(bound)}:{local}" if bound and rng.random() < 0.3 else local
        quote = rng.choice("\"'")
        value = rng.choice(VALUES).replace(quote, "")
        parts.append(f" {attribute}={quote}{value}{quote}")
    if depth > 3 or rng.random() < 0.25:
        return "".join(parts) + rng.choice(("/>", " />"))
    parts.append(">")
    for _ in range(rng.randint(0, 4)):
        kind = rng.random()
        if kind < 0.4:
            parts.append(rng.choice(TEXTS))
        elif kind < 0.5:
            parts.append(f"<![CDATA[{rng.choice(('x', '<&>', ']', ''))}]]>")
        elif kind < 0.6:
            parts.append(rng.choice(("<!-- c -->", "<!---->", "<?pi data?>", "<?t?>")))
        else:
            parts.append(element(rng, depth + 1, bound))
    return "".join(parts) + f"</{name}>"


def document(rng: random.Random) -> str:
    prolog = rng.choice(("", '<?xml version="1.0"?>', '<?xml version="1.0" encoding="utf-8"?>\n', "<!-- c -->"))
    return prolog + element(rng, 0, []) + rng.choice(("", "\n", "<!--e-->", "<?pi?>"))


def mutated(rng: random.Random, text: str) -> str:
    at = rng.randrange(len(text) + 1)
    how = rng.randrange(3)
    if how == 0:
        return text[:at] + text[at + 1 :]
    return text[:at] + rng.choice(MUTANTS) + text[at + (how == 1) :]


def expat_accepts(text: str) -> bool:
    try:
        ElementTree.fromstring(text)
    except (ElementTree.ParseError, UnicodeEncodeError):
        return False
    return True


def corpus(size: int):
    rng = random.Random(SEED)
    for _ in range(size):
        text = document(rng)
        yield text if rng.random() < 1 / 3 else mutated(rng, text)


def test_the_reader_agrees_with_expat_and_the_reference():
    disagreements, refused = [], 0
    for text in corpus(SIZE):
        try:
            parse(text)
            accepted = True
        except XmlParseError:
            accepted = False
            refused += 1
        if accepted != expat_accepts(text) and not policy_rows(text):
            disagreements.append(("expat", text))
        try:
            assert_readers_agree(text)
        except AssertionError:
            disagreements.append(("reference", text))
    assert not disagreements, disagreements[:10]
    # the corpus exercises both verdicts
    assert SIZE // 4 < refused < SIZE * 3 // 4
