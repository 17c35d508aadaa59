"""Decode skeletons: ``SoapEnvelope.from_wire`` without the parser.

The skeleton path is an optimisation and nothing else: for *every*
input, ``from_wire`` must return a tree identical to, or raise the same
error as, the slow path it shortcuts — ``SoapEnvelope.from_element(
parse(wire))``, called here by name — and that reading in turn is voted
on against the frozen reference parser in
:mod:`tests._oracle.reference_codec` (``assert_readers_agree``).
"Identical" is stricter than ``Element.__eq__`` (which strips
whitespace and ignores prefix hints): names with their prefix hints,
``nsdecls`` and attributes in order, and every content chunk.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching import cache_stats, clear_all_caches, reset_cache_stats
from repro.core import WSPeer
from repro.core.binding import P2psBinding, StandardBinding
from repro.p2ps import PeerGroup
from repro.reliability import ReliabilityPolicy
from repro.reliability.ack import build_ack
from repro.simnet import FixedLatency, Network
from repro.soap.envelope import DecodeSkeletons, SoapEnvelope, decode_skeletons
from repro.soap.faults import FaultCode, ServerBusyFault, SoapFault
from repro.soap.rpc import build_rpc_request
from repro.uddi import UddiRegistryNode
from repro.xmlkit import Element, QName, XmlParseError, parse
from tests.xmlkit.test_codec_parity import assert_readers_agree

STORE, PROBATION = "decode-skeletons", "decode-skeleton-probation"


@pytest.fixture(autouse=True)
def _clean_caches():
    clear_all_caches()
    reset_cache_stats()
    yield
    clear_all_caches()


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def tree(elem):
    """Everything observable about a tree, prefix hints and order included."""
    if elem is None:
        return None

    def name(q):
        return (q.uri, q.local, q.prefix)

    for child in elem.children:
        assert child.parent is elem
    return (
        name(elem.name),
        tuple(elem.nsdecls.items()),
        tuple((name(k), v) for k, v in elem.attributes.items()),
        tuple(c if isinstance(c, str) else tree(c) for c in elem.content),
    )


def outcome(wire, parser=None):
    """What ``from_wire`` makes of *wire*: the exact trees, or the error.
    With *parser*, what the slow path over that parser makes of it."""
    try:
        if parser is None:
            envelope = SoapEnvelope.from_wire(wire)
        else:
            envelope = SoapEnvelope.from_element(parser(wire))
    except Exception as exc:  # noqa: BLE001 - the error *is* the outcome
        return ("error", type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))
    for block in envelope.headers:
        assert block.parent is None
    return ("ok", tuple(tree(b) for b in envelope.headers), tree(envelope.body_content))


def slow_outcome(wire):
    """The slow path, no cache read or written — its reading of the wire
    voted on against the reference parser's."""
    expected = outcome(wire, parse)
    assert_readers_agree(wire)
    return expected


def hits():
    return cache_stats()[STORE]["hits"]


def learn(wire):
    """Two sightings cut the skeleton; returns the slow-path outcome."""
    first, second = outcome(wire), outcome(wire)
    assert first == second
    return first


def assert_parity(wire):
    assert outcome(wire) == slow_outcome(wire)


# ----------------------------------------------------------------------
# (a) exactness on every envelope shape the stack emits
# ----------------------------------------------------------------------
class Service:
    def echo(self, message: str) -> str:
        return message

    def echo_list(self, values: list) -> list:
        return values

    def describe(self, name: str) -> dict:
        return {"name": name, "tags": ["a", "b"], "size": 3, "ratio": 0.5, "ok": True}

    def boom(self) -> int:
        raise RuntimeError("deliberate <failure> & more")

    def notify(self, message: str) -> None:
        return None


def _drive(consumer, provider, handle, net):
    for i in range(3):
        assert consumer.invoke(handle, "echo", message=f"m & <{i}>") == f"m & <{i}>"
        values = [i + 0.25, 2.5, -1e-9]
        assert consumer.invoke(handle, "echo_list", values=values) == values
        assert consumer.invoke(handle, "describe", name=f"n{i}")["name"] == f"n{i}"
        with pytest.raises(SoapFault):
            consumer.invoke(handle, "boom")
        consumer.invoke(handle, "echo", message="")
        consumer.invoke(handle, "echo", message="  \n ")
    admission = provider.server.container.set_admission_control(capacity=1.0, drain_rate=0.01)
    for _ in range(3):
        admission.level = admission.capacity + 5.0
        with pytest.raises(ServerBusyFault):
            consumer.invoke(handle, "echo", {"message": "x"}, timeout=1.0)
    admission.level = 0.0
    net.run()


@pytest.fixture(scope="module")
def stack_wires():
    """Every wire ``from_wire`` is handed while both bindings publish,
    locate, call, fault, shed and acknowledge."""
    seen: list[str] = []
    original = SoapEnvelope.__dict__["from_wire"].__func__

    def spy(cls, text):
        seen.append(text)
        return original(cls, text)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SoapEnvelope, "from_wire", classmethod(spy))

        net = Network(latency=FixedLatency(0.002))
        registry = UddiRegistryNode(net.add_node("registry"))
        provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
        consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
        provider.deploy(Service(), name="Svc")
        provider.publish("Svc")
        _drive(consumer, provider, consumer.locate_one("Svc"), net)

        net = Network(latency=FixedLatency(0.002))
        group = PeerGroup("g")
        provider = WSPeer(net.add_node("prov"), P2psBinding(group), name="prov")
        consumer = WSPeer(net.add_node("cons"), P2psBinding(group), name="cons")
        provider.deploy(Service(), name="Svc")
        provider.publish("Svc")
        net.run()
        handle = consumer.locate_one("Svc", timeout=5.0)
        for i in range(3):
            status = consumer.client.invocation.invoke_oneway(
                handle, "notify", {"message": f"note {i}"}, policy=ReliabilityPolicy.assured(seed=i)
            )
            net.run()
            assert status.acked
        _drive(consumer, provider, handle, net)
    clear_all_caches()
    return list(dict.fromkeys(seen))


HAND_BUILT = [
    build_ack("urn:uuid:1", "p2ps://peer-a").to_wire(),
    build_ack("urn:uuid:2 & co", "p2ps://peer-b/x").to_wire(),
    SoapEnvelope.for_fault(ServerBusyFault("at capacity", retry_after=0.25)).to_wire(),
    SoapEnvelope.for_fault(ServerBusyFault("still at capacity", retry_after=7.5)).to_wire(),
    SoapEnvelope.for_fault(SoapFault(
        FaultCode.CLIENT, "bad <input>", actor="urn:me", subcode="Validation",
        detail=Element(
            QName("urn:app", "Problem", "app"), nsdecls={"app": "urn:app"},
            attributes={"severity": "high"},
        ),
    )).to_wire(),
    SoapEnvelope().to_wire(),
    build_rpc_request("urn:wspeer:Wide", "echo_list", {"values": [0.5] * 64}).to_wire(),
    build_rpc_request("urn:wspeer:Wide", "echo_list", {"values": [1.5] * 48}).to_wire(pretty=True),
]


def test_stack_capture_covers_the_shapes(stack_wires):
    joined = "\n".join(stack_wires)
    for marker in (
        "<wsa:ReplyTo", "<wsa:ReferenceProperties>", "<p2ps:PipeId", "<wsa:RelatesTo",
        "<soapenv:Fault>", "Server.Busy", "rm:Acknowledgement", "rm:AckRequested",
        "soapenc:Array", "soapenc:Struct", "urn:uddi-org:api_v2", "save_service",
        "find_service", "&lt;", "&amp;",
    ):
        assert marker in joined, marker
    assert len(stack_wires) > 60


def test_a_hit_is_exactly_the_slow_path_on_every_stack_shape(stack_wires):
    wires = stack_wires + HAND_BUILT
    for wire in wires:  # first and second sightings: learn
        assert_parity(wire)
        assert_parity(wire)
    for wire in wires:  # now every one of them is a hit
        before = hits()
        assert_parity(wire)
        assert hits() == before + 1, wire


def test_a_sibling_wire_hits_the_skeleton_of_the_first(stack_wires):
    """Same shape, other texts: one skeleton serves the whole family."""
    requests = [
        w for w in stack_wires
        if "<tns:echo " in w and "<wsa:ReplyTo" in w and "</message>" in w  # not <message/>
    ]
    assert len(requests) >= 3
    learn(requests[0])
    size = cache_stats()[STORE]["size"]
    for wire in requests[1:]:
        before = hits()
        assert_parity(wire)
        assert hits() == before + 1
    assert cache_stats()[STORE]["size"] == size == 1


def _static_namespace(uri, written):
    """An echo request of *uri* whose body namespace cannot be a slot."""
    wire = build_rpc_request(uri, "echo", {"message": "hi"}).to_wire()
    decl = f' xmlns:tns="{uri}"'
    if written == "on-the-envelope":
        return wire.replace(decl, "").replace("<soapenv:Envelope ", f"<soapenv:Envelope{decl} ")
    return wire.replace(decl, f" xmlns:tns='{uri}'") if written == "single-quoted" else wire


@pytest.mark.parametrize("written", ["on-the-envelope", "single-quoted", "escaped"])
def test_services_whose_body_namespace_stays_static_each_get_a_skeleton(written):
    """Only a body whose own declaration becomes a slot keys on its class;
    otherwise two services sharing prefix, names and tag count would share
    one key, and the one cut second would miss for good."""
    uris = ["urn:a&1", "urn:b&1"] if written == "escaped" else ["urn:a", "urn:b"]
    wires = [_static_namespace(uri, written) for uri in uris]
    for wire in wires:
        learn(wire)
    for wire in wires:
        before = hits()
        assert_parity(wire)
        assert hits() == before + 1, wire
    assert cache_stats()[STORE]["size"] == 2


def test_services_of_one_class_share_one_skeleton():
    """A body declaring its own prefix once, verbatim: its namespace is a
    slot, and a second service of the class is a hit without a cut."""
    learn(build_rpc_request("urn:a", "echo", {"message": "hi"}).to_wire())
    before = hits()
    assert_parity(build_rpc_request("urn:b", "echo", {"message": "ho"}).to_wire())
    assert hits() == before + 1
    assert cache_stats()[STORE]["size"] == 1


ENVELOPE = (
    '<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/" '
    'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">%s</soapenv:Envelope>'
)
HEADER = '<soapenv:Header><h:Id xmlns:h="urn:h" soapenv:mustUnderstand="1">%s</h:Id></soapenv:Header>'
BODY = "<soapenv:Body><op xmlns='urn:op'><a xsi:type = 'x' >%s</a><b/><c></c></op></soapenv:Body>"


UNUSUAL = {
    "plain": (ENVELOPE % (HEADER % "id-1" + BODY % "text"), True),
    # text between blocks, comments, PIs and CDATA are static text
    "whitespace-between-blocks": (
        "<?xml version='1.0'?>\n"
        + ENVELOPE % ("\n  " + HEADER % "id" + "\n  " + BODY % "t" + "\n") + "\n",
        True,
    ),
    "comment-and-pi": (ENVELOPE % (HEADER % "id" + "<!-- note -->" + BODY % "t" + "<?pi data?>"), True),
    "cdata-leaf": (ENVELOPE % (BODY % "<![CDATA[raw <&> text]]>"), True),
    "text-cdata-text": (ENVELOPE % (BODY % "before<![CDATA[raw]]>after"), True),
    "text-comment-text": (ENVELOPE % (BODY % "before<!-- c -->after"), True),
    "mixed-content-body": (ENVELOPE % (BODY % "mixed <i>content</i> here"), True),
    "mixed-content-header": (ENVELOPE % (HEADER % "mixed <i>x</i> tail" + BODY % ""), True),
    "no-header-empty-body": (ENVELOPE % "<soapenv:Body/>", True),
    "empty-header-blank-body": (ENVELOPE % "<soapenv:Header/><soapenv:Body> </soapenv:Body>", True),
    "entities": (ENVELOPE % (BODY % "&lt;&amp;&#65;&#x42;&quot;&apos;&gt;"), True),
    # not Envelope[Header, Body]: parsed every time, never cut
    "body-before-header": (ENVELOPE % (BODY % "t" + HEADER % "id"), False),
    "stranger-first": (ENVELOPE % ("<x><y>t</y></x>" + BODY % "t"), False),
    "stranger-last": (ENVELOPE % (HEADER % "id" + BODY % "t" + "<x><y>t</y></x>"), False),
    "two-bodies": (ENVELOPE % (BODY % "t" + BODY % "u"), False),
    "two-headers": (ENVELOPE % (HEADER % "a" + HEADER % "b" + BODY % "t"), False),
}


@pytest.mark.parametrize("wire, learnable", UNUSUAL.values(), ids=UNUSUAL.keys())
def test_legal_but_unusual_envelopes(wire, learnable):
    expected = slow_outcome(wire)
    assert expected[0] == "ok"
    for _ in range(3):
        assert outcome(wire) == expected
    assert hits() == (1 if learnable else 0)
    assert cache_stats()[STORE]["size"] == (1 if learnable else 0)


def test_a_shape_that_varies_outside_its_slots_is_cut_once():
    wires = [ENVELOPE % (BODY % "t").replace("'x'", f"'x{i}'") for i in range(6)]
    for wire in wires:
        for _ in range(3):
            assert_parity(wire)
    stats = cache_stats()
    assert stats[STORE]["size"] == 1  # the first variant's; the rest parse
    assert stats[STORE]["hits"] == 1
    assert stats[PROBATION]["size"] == 0


def test_a_childs_xsi_type_is_outside_the_key_so_the_second_type_always_parses(monkeypatch):
    """Pinned as it stands, not as it should be: the store's key names a
    body's prefix, its local names and its tag count, not a child's
    ``xsi:type``.  An ``echo`` of a string and one of an int share that
    key; the shape cut first keeps it, and the other, missing the
    skeleton and finding its key in the store, is parsed on every
    message and never cut."""
    parses = []
    monkeypatch.setattr("repro.soap.envelope.parse", lambda wire: parses.append(1) or parse(wire))
    text, number = (
        build_rpc_request("urn:wspeer:Bench", "echo", {"message": value}).to_wire() for value in ("hi", 5)
    )
    assert 'xsi:type="xsd:string"' in text and 'xsi:type="xsd:int"' in number
    assert text.replace("xsd:string", "xsd:int").replace(">hi<", ">5<") == number
    learn(text)
    for _ in range(5):
        before = hits()
        assert_parity(number)
        assert_parity(text)
        assert hits() == before + 1  # the text echo's, never the int's
    assert cache_stats()[STORE]["size"] == 1
    assert len(parses) == 2 + 5  # two sightings to cut, then every int echo


# ----------------------------------------------------------------------
# (b) mutated wires: same tree or same error as the slow path
# ----------------------------------------------------------------------
SLOT = "SLOT-TEXT"
BASES = [
    build_rpc_request("urn:wspeer:Bench", "echo", {"message": SLOT}).to_wire(),
    ENVELOPE % (HEADER % SLOT + BODY % "other"),
    ENVELOPE % (HEADER % "id" + BODY % SLOT),
    SoapEnvelope.for_fault(SoapFault(FaultCode.SERVER, SLOT, actor="urn:actor")).to_wire(),
]
FRAGMENTS = [
    "", " ", "\n\t ", "plain", "a<b", "<", "<x/>", "<x>y</x>", "</a>", "&amp;", "&lt;tag&gt;",
    "&#x41;", "&#65;", "&#xD800;", "&#1114112;", "&#99999999999999999999;", "&#xZZ;", "&#;",
    "&#0;", "&#1_0;", "&#+65;", "&# 65;", "&#x 41;", "&#X41;",
    "&bogus;", "&unterminated", "&", "a&amp;b&bogus;c", "<![CDATA[", "<![CDATA[x]]>",
    "<![CDATA[a<b]]>", "<!--", "<!-- c -->", "<!-- a -- b -->", "]]>", ">", "<?pi?>", "<?pi",
    "<!DOCTYPE x>", "é中\U0001f600", "'\"", "a\nb\nc",
    # what the reader refuses or reads otherwise than it is written
    "\x01", "\ufffe", "&#x1;", "&#31;", "a]]>b", "a\r\nb\rc",
]
_fragments = st.one_of(
    st.sampled_from(FRAGMENTS),
    st.text(alphabet=string.ascii_letters + "<>&;#! \n[]-/='\"", max_size=12),
    st.lists(st.sampled_from(FRAGMENTS), min_size=2, max_size=3).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BASES), _fragments)
def test_slot_mutations_match_the_slow_path(base, fragment):
    clear_all_caches()
    learn(base)
    before = hits()
    assert_parity(base.replace(SLOT, "fresh text"))
    assert hits() == before + 1  # the skeleton is live: mutants meet it
    mutant = base.replace(SLOT, fragment)
    assert_parity(mutant)
    assert_parity(mutant)
    assert_parity(mutant)  # also once its own shape may have been cut


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(BASES), st.data(),
    st.one_of(st.sampled_from(FRAGMENTS), st.sampled_from(list("<>/&\"'= xX:1"))),
    st.integers(0, 3),
)
def test_static_mutations_match_the_slow_path(base, data, fragment, cut):
    """Overwrite *cut* characters anywhere — tags, attribute values,
    namespace declarations, the prolog — with *fragment*."""
    clear_all_caches()
    base = base.replace(SLOT, "text")
    learn(base)
    at = data.draw(st.integers(0, len(base)))
    mutant = base[:at] + fragment + base[at + cut:]
    for _ in range(3):
        assert_parity(mutant)
    assert_parity(base)


@pytest.mark.parametrize(
    "fragment",
    [
        "&bogus;", "&unterminated", "&#xD800;", "&#xZZ;",
        # what int() would take but a character reference may not be
        "&#1_0;", "&#+65;", "&# 65;", "&#x 41;", "&#x0_041;", "&#X41;", "&#0;",
    ],
)
def test_entity_error_in_a_slot_is_the_canonical_error(fragment):
    base = "<?xml version='1.0'?>\n" + ENVELOPE % ("\n" + HEADER % "id" + "\n" + BODY % SLOT)
    learn(base)
    error = outcome(base.replace(SLOT, "ok\n" + fragment))
    assert error == slow_outcome(base.replace(SLOT, "ok\n" + fragment))
    kind, exc_type, message, line, column = error
    assert kind == "error" and issubclass(exc_type, XmlParseError)
    assert line == 5  # the fragment's line (the text run starts on line 4)


# ----------------------------------------------------------------------
# (c) isolation: decoded envelopes are the caller's to mutate
# ----------------------------------------------------------------------
def test_mutating_a_decoded_envelope_never_shows_in_the_next_decode():
    wire = ENVELOPE % (HEADER % "id-1" + BODY % "text")
    expected = learn(wire)
    for _ in range(2):
        before = hits()
        envelope = SoapEnvelope.from_wire(wire)
        assert hits() == before + 1
        block, body = envelope.headers[0], envelope.body_content
        block.set("extra", "1")
        block.attributes.clear()
        block.nsdecls["h"] = "urn:hijacked"
        block.nsdecls["new"] = "urn:new"
        block.text = "changed"
        body.nsdecls.clear()
        leaf = body.children[0]
        leaf.set(QName("http://www.w3.org/2001/XMLSchema-instance", "type", "xsi"), "y")
        leaf.text = "changed"
        body.append(Element("added", text="child"))
        body.remove(body.children[1])
        envelope.headers.append(Element("another"))
        envelope.body_content = None
        assert outcome(wire) == expected


def test_skeletons_keep_static_text_only():
    secret = "s3cr3t-slot-value"
    learn(ENVELOPE % (HEADER % secret + BODY % secret))
    (skeleton,) = decode_skeletons._store.recent()
    assert secret not in repr(skeleton)


# ----------------------------------------------------------------------
# (d) bounds
# ----------------------------------------------------------------------
def _shape(i: int) -> str:
    return ENVELOPE % (BODY % "t").replace("<op ", f"<op{i} ").replace("</op>", f"</op{i}>")


def test_store_and_probation_stay_within_their_caps():
    peak_store = peak_probation = 0
    for i in range(10_000):
        wire = _shape(i)
        SoapEnvelope.from_wire(wire)
        if i % 3 == 0:  # a third of the shapes recur and are cut
            SoapEnvelope.from_wire(wire)
        stats = cache_stats()
        peak_store = max(peak_store, stats[STORE]["size"])
        peak_probation = max(peak_probation, stats[PROBATION]["size"])
    assert peak_store == DecodeSkeletons.MAX_SKELETONS == 64
    assert peak_probation == DecodeSkeletons.MAX_PROBATION == 256
    assert cache_stats()[STORE]["evictions"] > 3000
    assert_parity(_shape(9_999))


def test_a_shape_seen_once_is_not_learned():
    for i in range(100):
        SoapEnvelope.from_wire(_shape(i))
    stats = cache_stats()
    assert stats[STORE]["size"] == 0 and stats[STORE]["misses"] == 100
    assert stats[PROBATION]["size"] == 100
    SoapEnvelope.from_wire(_shape(7))
    stats = cache_stats()
    assert stats[STORE]["size"] == 1
    assert stats[PROBATION]["size"] == 99


def test_a_shape_that_rotates_out_of_probation_is_never_cut():
    """512 names through a 256-key probation set: the lifecycle pattern."""
    for _ in range(3):
        for i in range(512):
            SoapEnvelope.from_wire(_shape(i))
    assert cache_stats()[STORE]["size"] == 0


def test_a_wire_with_too_much_markup_is_never_cut():
    wire = build_rpc_request(
        "urn:wspeer:Wide", "echo_list", {"values": list(range(DecodeSkeletons.MAX_TAGS // 2))}
    ).to_wire()
    assert wire.count("<") > DecodeSkeletons.MAX_TAGS
    for _ in range(3):
        SoapEnvelope.from_wire(wire)
    stats = cache_stats()
    assert stats[STORE]["size"] == 0 and stats[PROBATION]["size"] == 0


def test_clear_all_caches_empties_both_and_stats_list_them():
    learn(_shape(1))
    SoapEnvelope.from_wire(_shape(2))
    stats = cache_stats()
    assert stats[STORE]["size"] == 1 and stats[STORE]["max_entries"] == 64
    assert stats[PROBATION]["size"] == 1 and stats[PROBATION]["max_entries"] == 256
    clear_all_caches()
    stats = cache_stats()
    assert stats[STORE]["size"] == 0 and stats[PROBATION]["size"] == 0
    before = hits()
    assert_parity(_shape(1))
    assert hits() == before  # forgotten: parsed again
