"""Typed values without an element tree.

An RPC body stays its slot texts on both sides of ``SoapEnvelope``
until someone looks at it; that is an optimisation and nothing else.
For *every* value the deferred paths must give the bytes, the tree and
the values — or the error — of the element paths they shortcut, spelled
out here by name: ``encode_value`` into a wrapper element,
``serialize(envelope.to_element(), xml_declaration=True)``, and
``decode_value`` over ``SoapEnvelope.from_element(parse(wire))``.
"""

import dataclasses
import math
import re

import numpy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.caching import cache_stats, clear_all_caches, reset_cache_stats
from repro.core import WSPeer
from repro.core.binding import StandardBinding
from repro.core.events import RecordingListener
from repro.reliability.ack import build_ack
from repro.simnet import FixedLatency, Network
from repro.soap import Attachment, EncodingError, SoapEnvelope, StructRegistry
from repro.soap.encoding import ARRAY_TYPE, decode_value, encode_value
from repro.soap.envelope import DecodeSkeletons, wire_templates
from repro.soap.faults import FaultCode, ServerBusyFault, SoapFault
from repro.soap.handlers import CallbackHandler, Direction
from repro.soap.rpc import RpcDispatcher, ServiceObject, build_rpc_request, extract_rpc_result
from repro.transport import HttpTransport, Uri
from repro.uddi import UddiRegistryNode
from repro.wsa.headers import MessageAddressingProperties
from repro.xmlkit import Element, QName, parse, serialize
from tests.soap.test_decode_skeleton import FRAGMENTS, tree
from tests.soap.test_decode_skeleton import assert_parity as assert_tree_parity
from tests.soap.test_decode_skeleton import learn as learn_tree

NS = "urn:wspeer:Codec"
STORE, TEMPLATES = "decode-skeletons", "wire-templates"


@pytest.fixture(autouse=True)
def _clean_caches():
    clear_all_caches()
    reset_cache_stats()
    yield
    clear_all_caches()


# ----------------------------------------------------------------------
# the element paths, by name
# ----------------------------------------------------------------------
def element_envelope(local, params, registry=None):
    """What ``build_rpc_request`` built before bodies were deferred."""
    wrapper = Element(QName(NS, local, "tns"), nsdecls={"tns": NS})
    for name, value in params.items():
        wrapper.append(encode_value(QName("", name), value, registry))
    return SoapEnvelope(body_content=wrapper)


def element_wire(envelope):
    return serialize(envelope.to_element(), xml_declaration=True)


def element_values(wire, registry=None):
    body = SoapEnvelope.from_element(parse(wire)).body_content
    return [decode_value(child, registry) for child in body.children]


def attachments_in(value, found=None):
    """Reference walk: the attachments ``_encode_into`` writes an href for."""
    found = [] if found is None else found
    if isinstance(value, Attachment):
        if not any(value is seen for seen in found):
            found.append(value)
    elif isinstance(value, (list, tuple)):
        for item in value:
            attachments_in(item, found)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            attachments_in(getattr(value, field.name), found)
    elif isinstance(value, dict):
        for item in value.values():
            attachments_in(item, found)
    return found


def outcome(fn, *args):
    """``("ok", repr of the result)`` or the error: NaN, -0.0 and
    dataclasses all compare by their repr."""
    try:
        return ("ok", repr(fn(*args)))
    except Exception as exc:  # noqa: BLE001 - the error *is* the outcome
        return ("error", type(exc), str(exc))


def addressed(envelope, n=1):
    MessageAddressingProperties(
        to="http://prov/Codec", action="http://prov/Codec#op", message_id=f"urn:uuid:{n} & co"
    ).apply_to(envelope)
    return envelope


class Capture:
    """An operation that keeps what it was called with."""

    def op(self, *args):
        self.got = args


def dispatched(envelope, registry=None):
    """The arguments ``RpcDispatcher.dispatch`` hands the operation."""
    capture = Capture()
    service = ServiceObject("Codec", NS)
    service.map_operation(envelope.body_name.local, capture, "op")
    RpcDispatcher(service, registry).dispatch(envelope)
    return list(capture.got)


def hits(name=STORE):
    return cache_stats()[name]["hits"]


# ----------------------------------------------------------------------
# the parity check every value goes through
# ----------------------------------------------------------------------
def assert_encode_parity(params, registry=None):
    """``build_rpc_request`` against the element path: same error, or
    same attachments, bytes (template cold and warm, with and without
    headers) and tree.  Returns the bare wire."""
    expected = outcome(lambda: element_wire(element_envelope("op", params, registry)))
    built = outcome(lambda: build_rpc_request(NS, "op", params, registry).to_wire())
    assert built == expected
    if expected[0] == "error":
        return None
    reference = element_envelope("op", params, registry)
    envelope = build_rpc_request(NS, "op", params, registry)
    found = attachments_in(params)
    assert len(envelope.attachments) == len(found)
    assert all(a is b for a, b in zip(envelope.attachments, found))
    wire = element_wire(reference)
    for _ in range(2):  # the template is built, then hit
        assert build_rpc_request(NS, "op", params, registry).to_wire() == wire
        assert addressed(build_rpc_request(NS, "op", params, registry)).to_wire() == (
            element_wire(addressed(element_envelope("op", params, registry)))
        )
    assert envelope.body_name == reference.body_name
    assert tree(envelope.body_content) == tree(reference.body_content)
    assert envelope.to_wire() == wire  # and once the tree has been looked at
    return wire


def assert_decode_parity(wire, registry=None, cuttable=True):
    """``from_wire`` + dispatch / extract against the element path: cold
    (parsed), on probation (parsed, skeleton cut) and warm (sliced)."""
    expected = outcome(element_values, wire, registry)
    slow = SoapEnvelope.from_element(parse(wire))
    for sighting in range(3):
        before = hits()
        assert outcome(dispatched, SoapEnvelope.from_wire(wire), registry) == expected
        assert hits() - before == (1 if sighting == 2 and cuttable else 0)
    decoded = SoapEnvelope.from_wire(wire)
    assert decoded.body_name == slow.body_name
    assert tree(decoded.body_content) == tree(slow.body_content)
    assert outcome(dispatched, decoded, registry) == expected  # now from the tree


def assert_parity(value, registry=None):
    clear_all_caches()
    wire = assert_encode_parity({"a": value, "b": "tail"}, registry)
    if wire is not None:
        cuttable = wire.count("<") <= DecodeSkeletons.MAX_TAGS
        assert_decode_parity(wire, registry, cuttable)
        # the same value as a result
        reply = build_rpc_request(NS, "opResponse", {"return": value}, registry).to_wire()
        expected = outcome(lambda: element_values(reply, registry)[0])
        for _ in range(3):
            got = outcome(extract_rpc_result, SoapEnvelope.from_wire(reply), registry)
            assert got == expected


# ----------------------------------------------------------------------
# values
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Point:
    x: int
    y: float


@dataclasses.dataclass
class Doc:
    title: str
    blob: object


@dataclasses.dataclass
class Stranger:
    n: int


REGISTRY = StructRegistry()
REGISTRY.register(Point)
REGISTRY.register(Doc)

BLOB = Attachment("c1", b"hello world")
STRINGS = [
    "", " ", "x<y", "a&b", "]]>", "\r\n", "\t", "&amp;", "é中", "plain",
    '</item><item xsi:type="xsd:double">',
]
FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 0.1, 1e-320, 1.7976931348623157e308, 2.5]
INTS = [0, -1, 2**63, -(2**63) - 1, 2**70, 10**40]
UDDI_RESULT = {
    "truncated": False,
    "services": [
        {"serviceKey": "uuid:1", "name": "Echo", "bindings": [{"accessPoint": "http://a/x", "tModels": ["t1", "t2"]}]},
        {"serviceKey": "uuid:2", "name": "", "bindings": []},
    ],
    "count": 2,
}
SPECIAL = [
    [1, True], [True, 1], [1, 1.0], ["a", ""], ["", ""], [None, None], [[1.5, 2.5], [3.5]],
    [numpy.float64(0.5), numpy.float64(1.5)], [numpy.float64(0.5), 1.5], numpy.float64(0.5),
    (1.5, 2.5), (), (1, "x", None), UDDI_RESULT, {}, {"k": {}}, {"bad key": 1}, {1: 2},
    {"{urn:x}clark": 1}, Point(1, 2.0), [Point(1, 2.0), Point(3, 4.0)], Stranger(1), [Stranger(1)],
    BLOB, [BLOB, BLOB], {"doc": Doc("t", BLOB)}, Doc("t", [BLOB]), b"bytes", b"", [b"x"],
    object(), [object()], {"k": object()}, range(3), {1, 2},
]

_scalars = st.one_of(
    st.sampled_from(FLOATS), st.floats(), st.sampled_from(INTS), st.integers(-2**70, 2**70),
    st.booleans(), st.sampled_from(STRINGS), st.text(max_size=6), st.none(),
)
_lengths = st.sampled_from([0, 1, 2, 17])
_uniform_lists = st.one_of(*(
    _lengths.flatmap(lambda n, items=items: st.lists(items, min_size=n, max_size=n))
    for items in (
        st.sampled_from(FLOATS) | st.floats(), st.sampled_from(INTS), st.booleans(),
        st.sampled_from(STRINGS), st.sampled_from([s for s in STRINGS if s]),
    )
))
_values = st.recursive(
    st.one_of(_scalars, _uniform_lists, st.sampled_from(SPECIAL)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.sampled_from(["name", "key", "x", "item", "return"]), kids, max_size=3),
    ),
    max_leaves=8,
)


@settings(max_examples=250, deadline=None)
@given(_values)
@example([{"bad key": 1}, "\x1f"])  # the bad name comes first, and wins
def test_every_value_crosses_the_wire_as_the_element_path_would(value):
    assert_parity(value, REGISTRY)


def _stable_id(value):
    """``repr`` without the addresses a bare ``object()`` prints, which change every run."""
    return re.sub(r" at 0x[0-9a-f]+", "", repr(value))


@pytest.mark.parametrize("value", SPECIAL + [STRINGS, FLOATS, INTS], ids=_stable_id)
def test_special_values(value):
    assert_parity(value, REGISTRY)
    assert_parity(value, None)  # nothing registered: dataclasses are errors


@pytest.mark.parametrize("items", [FLOATS, INTS, [True, False], [s for s in STRINGS if s]], ids=repr)
@pytest.mark.parametrize("length", [0, 1, 2, 17, 5000])
def test_uniform_lists_of_every_length(items, length):
    assert_parity([items[i % len(items)] for i in range(length)])


def test_a_group_is_one_shape_whatever_its_length():
    """One template and one skeleton serve every length; a skeleton cut
    at two items matches 1 … 5 000, past ``MAX_TAGS`` (which bounds what
    is cut, not what is matched).  The Array names its items' type once,
    in ``soapenc:arrayType`` with no size (SOAP 1.1 §5.4.2), and no item
    is typed."""
    wires = {
        n: build_rpc_request(NS, "op", {"values": [i + 0.5 for i in range(n)]}).to_wire()
        for n in (2, 3, 1, 17, 64, 65, 5000)
    }
    assert cache_stats()[TEMPLATES]["size"] == 1
    assert wires[5000].count("<") > DecodeSkeletons.MAX_TAGS
    for n, wire in wires.items():
        assert wire == element_wire(element_envelope("op", {"values": [i + 0.5 for i in range(n)]}))
        assert wire.count(ATYPE) == 1 and wire.count("<item>") == n and "<item " not in wire
        before = hits()
        assert dispatched(SoapEnvelope.from_wire(wire)) == [[i + 0.5 for i in range(n)]]
        assert hits() - before == (0 if n in (2, 3) else 1), n
    assert cache_stats()[STORE]["size"] == 1


def test_shaped_values_cross_without_a_tree():
    """The by-pass twin: on shaped values both fast paths *are* taken —
    parity above would hold trivially if they never were."""
    params = {"values": [0.5, 1.5], "n": 3, "s": "x<y", "none": None, "e": "", "d": {"k": [1, "a"]}}
    envelope = build_rpc_request(NS, "op", params)
    wire = addressed(envelope).to_wire()
    assert envelope._body is None and envelope.body_name.local == "op" and not envelope.is_fault
    assert cache_stats()["wire-templates"]["size"] == 1
    for _ in range(2):
        SoapEnvelope.from_wire(wire)
    decoded = SoapEnvelope.from_wire(wire)
    assert decoded.rpc_values() == list(params.items())
    assert dispatched(decoded) == list(params.values())
    assert decoded._body is None and repr(decoded) == "<SoapEnvelope body=op headers=3>"
    reply = build_rpc_request(NS, "opResponse", {"return": params}).to_wire()
    for _ in range(2):
        SoapEnvelope.from_wire(reply)
    decoded = SoapEnvelope.from_wire(reply)
    assert extract_rpc_result(decoded) == params and decoded._body is None


def test_shapes_are_exact_types():
    """``bool`` is not ``int`` and a ``float`` subclass is not ``float``:
    no group, no shared template, and the element path's bytes."""
    for values in ([1, True], [numpy.float64(0.5)] * 3):
        wire = build_rpc_request(NS, "op", {"values": values}).to_wire()
        assert wire == element_wire(element_envelope("op", {"values": values}))
    assert 'xsd:boolean">true<' in build_rpc_request(NS, "op", {"values": [1, True]}).to_wire()


#: what earlier releases (and stacks that type every member) write: each
#: item typed, no arrayType, every Array and Struct declaring soapenc
TYPED_ITEMS = (
    '<?xml version="1.0" encoding="utf-8"?><soapenv:Envelope'
    ' xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"'
    ' xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
    '<soapenv:Header/><soapenv:Body><tns:op xmlns:tns="urn:wspeer:Codec">'
    '<values xmlns:soapenc="http://schemas.xmlsoap.org/soap/encoding/" xsi:type="soapenc:Array">'
    '<item xsi:type="xsd:double">0.5</item><item xsi:type="xsd:double">1.5</item>'
    '<item xsi:type="xsd:double">2.5</item></values>'
    '<s xmlns:soapenc="http://schemas.xmlsoap.org/soap/encoding/" xsi:type="soapenc:Array">'
    '<item xsi:type="xsd:string">a</item><item xsi:type="xsd:string">b&amp;c</item></s>'
    '<n xsi:type="xsd:int">1</n>'
    '<d xmlns:soapenc="http://schemas.xmlsoap.org/soap/encoding/" xsi:type="soapenc:Struct">'
    '<k xmlns:soapenc="http://schemas.xmlsoap.org/soap/encoding/" xsi:type="soapenc:Array">'
    '<item xsi:type="xsd:int">1</item><item xsi:type="xsd:int">2</item></k>'
    '<m xmlns:soapenc="http://schemas.xmlsoap.org/soap/encoding/" xsi:type="soapenc:Array">'
    '<item xsi:type="xsd:boolean">true</item></m></d></tns:op></soapenv:Body></soapenv:Envelope>'
)


def test_the_typed_item_form_still_decodes_cold_and_warm():
    values = [[0.5, 1.5, 2.5], ["a", "b&c"], 1, {"k": [1, 2], "m": [True]}]
    assert element_values(TYPED_ITEMS) == values
    assert_decode_parity(TYPED_ITEMS)  # cold, on probation, off the skeleton
    warm = SoapEnvelope.from_wire(TYPED_ITEMS)
    assert [value for _, value in warm.rpc_values()] == values  # the skeleton's readers
    assert dispatched(warm) == values
    params = dict(zip(["values", "s", "n", "d"], values))
    new = build_rpc_request(NS, "op", params).to_wire()
    assert len(new) < len(TYPED_ITEMS) and dispatched(SoapEnvelope.from_wire(new)) == values


def test_a_uddi_exchange_declares_soapenc_once_per_message():
    """Every Array and Struct used to declare soapenc itself: a registry
    reply carrying a record did so nine times."""
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    wires = []
    net.add_delivery_hook(lambda frame: wires.append(frame.payload) or True)
    provider.deploy(EchoService(), name="Echo")
    provider.publish("Echo")
    assert consumer.invoke(consumer.locate_one("Echo"), "echo", message="hi") == "hi"
    uddi = [w.decode() for w in wires if isinstance(w, bytes) and b"urn:uddi-org:api_v2" in w]
    assert len(uddi) == 4  # publish and locate, each way
    for wire in uddi:
        assert wire.count("xmlns:soapenc=") == 1
    assert max(w.count("soapenc:Struct") + w.count("soapenc:Array") for w in uddi) >= 9


# ----------------------------------------------------------------------
# hostile mutants of a warm group skeleton
# ----------------------------------------------------------------------
#: a group's item: its type is its Array's ``soapenc:arrayType``
ITEM = "<item>%s</item>"
MUTANTS = {
    "markup-in-item": ITEM % "0.2<b/>5",
    "surrogate": ITEM % "&#xD800;",
    "unknown-entity": ITEM % "&bogus;",
    "overflow": ITEM % "1e9999",
    "not-a-number": ITEM % "abc",
    "cdata": ITEM % "<![CDATA[0.25]]>",
    "comment": ITEM % "<!--c-->0.25",
    "int-item": '<item xsi:type="xsd:int">7</item>',
    "nil-item": '<item xsi:nil="true"/>',
    "nil-item-with-text": '<item xsi:nil="true">0.25</item>',
    "empty-item": ITEM % "",
    "self-closed-item": "<item/>",
    "removed-item": "",
    "inserted-items": (ITEM % "0.5") * 500,
    "space-after-item": ITEM % "0.25" + " ",
    "character-reference": ITEM % "&#48;.25",
    "padded": ITEM % " 0.25 ",
    "other-quotes": "<item xsi:type='xsd:double'>0.25</item>",
    "href-item": '<item href="cid:c1"/>',
    "unresolvable-type": '<item xsi:type="nope:double">0.25</item>',
    "unknown-type": '<item xsi:type="xsd:Point">0.25</item>',
    "nested": '<item xsi:type="soapenc:Array">' + ITEM % "0.25" + "</item>",
    "amp": ITEM % "0.25&amp;",
    "typed-item": '<item xsi:type="xsd:double">0.75</item>',  # the form with typed items
}
VICTIM = ITEM % "0.75"
#: the group's item type, said once on the Array
ATYPE = ' soapenc:arrayType="xsd:double[]"'
ATYPE_MUTANTS = {
    "int-array-type": ' soapenc:arrayType="xsd:int[]"',
    "unresolvable-array-type": ' soapenc:arrayType="nope:double[]"',
    "sized-array-type": ' soapenc:arrayType="xsd:double[2]"',
    "ranked-array-type": ' soapenc:arrayType="xsd:double[][]"',
    "removed-array-type": "",
}


class ListService:
    def echo_list(self, values: list) -> list:
        return values


def _mutant_world():
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    deployed = provider.deploy(ListService(), name="Lists", namespace=NS)
    client = HttpTransport(net.add_node("cons"))

    def post(wire):
        got = []
        client.send(
            Uri.parse(deployed.endpoints[0].address), wire,
            on_response=lambda body, error: got.append((body, error)),
        )
        net.run()  # a bare exception out of Kernel.step would surface here
        ((body, error),) = got
        assert error is None
        return body

    return post


@pytest.mark.parametrize(
    "victim, mutant",
    [(VICTIM, mutant) for mutant in MUTANTS.values()] + [(ATYPE, mutant) for mutant in ATYPE_MUTANTS.values()],
    ids=[*MUTANTS, *ATYPE_MUTANTS],
)
def test_a_mutant_of_a_warm_group_meets_the_slow_path_outcome(victim, mutant):
    post = _mutant_world()
    base = build_rpc_request(NS, "echo_list", {"values": [0.25, 0.5, 0.75, 1.0]}).to_wire()
    assert base.count(victim) == 1
    hostile = base.replace(victim, mutant)

    def through_the_provider(wire):
        reply = post(wire)
        return outcome(lambda: extract_rpc_result(SoapEnvelope.from_wire_message(reply)))

    clear_all_caches()
    cold = (outcome(lambda: tree(SoapEnvelope.from_element(parse(hostile)).body_content)),
            outcome(element_values, hostile), through_the_provider(hostile))
    for warm_up in ([0.5, 1.5], [0.5, 1.5, 2.5]):  # two lengths, one shape
        assert post(build_rpc_request(NS, "echo_list", {"values": warm_up}).to_wire())
    before = hits()
    assert through_the_provider(base) == ("ok", "[0.25, 0.5, 0.75, 1.0]")
    assert hits() - before == 1  # the group skeleton is live: the mutant meets it
    for _ in range(3):  # also once its own shape may have been cut
        assert outcome(lambda: tree(SoapEnvelope.from_wire(hostile).body_content)) == cold[0]
        assert outcome(lambda: dispatched(SoapEnvelope.from_wire(hostile))) == cold[1]
        assert through_the_provider(hostile) == cold[2]


GROUP_BASES = [
    build_rpc_request(NS, "op", {"values": [0.5, 1.5, 2.5], "s": ["a", "b&c"], "n": 1}).to_wire(),
    build_rpc_request(
        NS, "opResponse", {"return": {"k": [1, 2, 3, 4], "m": [True, False], "x": [1.5, 2.5, "t"]}}
    ).to_wire(),
]
GROUP_FRAGMENTS = FRAGMENTS + list("<>/&\"'= xX:1") + [
    "</item>", ITEM[:-9], "</item>" + ITEM[:-9], "<item>", "0.5</item>" + ITEM[:-9] + "9",
    '<item xsi:type="xsd:double">', ATYPE, ' soapenc:arrayType="xsd:int[]"', "[2]", "[]",
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GROUP_BASES), st.data(), st.sampled_from(GROUP_FRAGMENTS), st.integers(0, 3))
def test_mutations_anywhere_in_a_wire_with_groups_match_the_slow_path(base, data, fragment, cut):
    """``test_decode_skeleton``'s static-mutation check, on group skeletons:
    same tree and same values, or the same error."""
    clear_all_caches()
    learn_tree(base)
    before = hits()
    assert_tree_parity(base.replace("1.5", "7.25"))
    assert hits() == before + 1  # the skeleton is live: mutants meet it
    at = data.draw(st.integers(0, len(base)))
    mutant = base[:at] + fragment + base[at + cut:]
    expected = outcome(element_values, mutant)
    for _ in range(3):
        assert_tree_parity(mutant)
        if expected[0] == "ok":
            assert outcome(lambda: dispatched(SoapEnvelope.from_wire(mutant))) == expected


# ----------------------------------------------------------------------
# the four rules
# ----------------------------------------------------------------------
class Stateful:
    """The paper's third break: operations over live objects."""

    def __init__(self):
        self.items = [1.0, 2.0]

    def items_now(self) -> list:
        return self.items

    def total(self, values: list) -> float:
        return sum(values)

    def stranger(self) -> object:
        return Stranger(1)


@pytest.fixture
def world():
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    listener = RecordingListener()
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint), listener=listener)
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    service = Stateful()
    deployed = provider.deploy(service, name="State", namespace=NS)
    provider.publish("State")
    handle = consumer.locate_one("State")
    return net, provider, consumer, handle, service, deployed, listener


def test_rule_a_a_request_handler_rewrites_an_argument(world):
    net, provider, consumer, handle, service, deployed, listener = world

    def double_first(context):
        if context.direction is Direction.REQUEST:
            item = context.request.body_content.find("values").children[0]
            item.text = repr(float(item.text) * 2)

    for _ in range(3):  # cold, on probation, warm: the tree is the truth each time
        assert consumer.invoke(handle, "total", values=[1.0, 2.0, 3.0]) == 6.0
    deployed.chain.append(CallbackHandler(double_first))
    for _ in range(3):
        assert consumer.invoke(handle, "total", values=[1.0, 2.0, 3.0]) == 7.0


def test_rule_a_a_response_handler_edits_the_wire(world):
    net, provider, consumer, handle, service, deployed, listener = world

    def append_item(context):
        if context.direction is Direction.RESPONSE:
            ret = context.response.body_content.find("return")
            ret.append(ret.children[0].copy())

    deployed.chain.append(CallbackHandler(append_item))
    for _ in range(3):
        assert consumer.invoke(handle, "items_now") == [1.0, 2.0, 1.0]


def test_rule_b_texts_are_taken_when_the_envelope_is_made(world):
    net, provider, consumer, handle, service, deployed, listener = world
    for _ in range(3):
        assert consumer.invoke(handle, "items_now") == [1.0, 2.0]
    kept = listener.of_kind("response-sent")[-1].detail["envelope"]
    service.items.append(3.0)  # after the reply left
    assert decode_value(kept.body_content.find("return")) == [1.0, 2.0]
    assert "3.0" not in kept.to_wire()
    live = [1.0]
    envelope = build_rpc_request(NS, "op", {"values": live})
    live.append(2.0)
    assert envelope.to_wire() == element_wire(element_envelope("op", {"values": [1.0]}))


def test_rule_c_an_unencodable_value_raises_when_the_envelope_is_made(world):
    net, provider, consumer, handle, service, deployed, listener = world
    with pytest.raises(EncodingError, match="not registered"):
        build_rpc_request(NS, "op", {"a": [1.0], "b": Stranger(1)})
    with pytest.raises(EncodingError, match="cannot encode"):
        build_rpc_request(NS, "op", {"a": object()})
    for _ in range(3):  # a soapenv:Server fault, not an exception out of serve
        with pytest.raises(SoapFault) as info:
            consumer.invoke(handle, "stranger")
        assert info.value.code is FaultCode.SERVER
        assert "EncodingError" in info.value.message


def test_rule_d_a_refusing_reader_raises_the_canonical_error():
    good = build_rpc_request(NS, "op", {"values": [0.5, 1.5]}).to_wire()
    for wire in (good, good.replace("1.5", "2.5<", 1)):  # learn, then meet the skeleton
        outcome(SoapEnvelope.from_wire, wire)
        outcome(SoapEnvelope.from_wire, wire)
    bad = good.replace(">0.5<", ">half<")
    before = hits()
    envelope = SoapEnvelope.from_wire(bad)
    assert hits() == before + 1 and envelope._body is None
    assert envelope.rpc_values() is None  # the reader refused …
    with pytest.raises(EncodingError, match="bad float literal: 'half'"):
        dispatched(envelope)  # … and the element path says why


def test_a_decoded_tree_is_isolated_from_the_next_decode():
    wire = build_rpc_request(NS, "op", {"values": [0.5, 1.5], "name": "n"}).to_wire()
    for _ in range(2):
        SoapEnvelope.from_wire(wire)
    expected = tree(SoapEnvelope.from_element(parse(wire)).body_content)
    for _ in range(2):
        envelope = SoapEnvelope.from_wire(wire)
        assert envelope._body is None  # nobody has looked yet
        body = envelope.body_content
        assert envelope._body is body and envelope.body_content is body
        values = body.find("values")
        values.children[0].text = "9.5"
        del values.attributes[ARRAY_TYPE]  # its items are untyped now
        values.nsdecls["soapenc"] = "urn:hijacked"
        values.append(Element("item", text="extra"))
        body.nsdecls.clear()
        assert dispatched(envelope)[0] == ["9.5", "1.5", "extra"]  # the tree is the truth
        assert tree(SoapEnvelope.from_wire(wire).body_content) == expected
        assert dispatched(SoapEnvelope.from_wire(wire)) == [[0.5, 1.5], "n"]


# ----------------------------------------------------------------------
# by-pass: envelopes that are not RPC values take the element path
# ----------------------------------------------------------------------
def test_envelopes_made_of_elements_take_the_element_path(world):
    net, provider, consumer, handle, service, deployed, listener = world
    detail = Element(QName("urn:app", "Problem", "app"), nsdecls={"app": "urn:app"})
    made = [
        SoapEnvelope.for_fault(SoapFault(FaultCode.CLIENT, "bad <input>", detail=detail)),
        SoapEnvelope.for_fault(ServerBusyFault("at capacity", retry_after=0.25)),
        build_ack("urn:uuid:1", "p2ps://peer-a"),
        SoapEnvelope(body_content=encode_value(QName(NS, "made", "tns"), {"k": [1.5, 2.5]})),
        build_rpc_request(NS, "op", {"blob": BLOB, "values": [1.5, 2.5]}),
    ]
    for envelope in made:
        assert envelope._deferred is None and envelope._body is not None
        for _ in range(2):
            assert envelope.to_wire() == element_wire(envelope)
    assert made[-1].attachments == [BLOB]
    assert made[-1].to_wire_message().startswith(b"--wspeer-part")
    # an interceptor's answer is whatever it built
    provider.server.container.interceptor = lambda name, request: made[0]
    with pytest.raises(SoapFault, match="bad <input>"):
        consumer.invoke(handle, "items_now")


# ----------------------------------------------------------------------
# satellites
# ----------------------------------------------------------------------
class Vault:
    def __init__(self):
        self.got = None

    def put(self, doc) -> int:
        self.got = doc
        return len(doc.blob.materialise())


def test_an_attachment_inside_a_dataclass_travels():
    assert build_rpc_request(NS, "put", {"doc": Doc("t", BLOB)}, REGISTRY).attachments == [BLOB]
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    consumer.client.invocation.registry.register(Doc)
    vault = Vault()
    provider.deploy(vault, name="Vault", registry=REGISTRY)
    provider.publish("Vault")
    handle = consumer.locate_one("Vault")
    wires = []
    net.add_delivery_hook(lambda frame: wires.append(frame.payload) or True)
    assert consumer.invoke(handle, "put", doc=Doc("t", BLOB)) == len(b"hello world")
    assert vault.got.title == "t" and vault.got.blob.materialise() == b"hello world"
    request = next(w for w in wires if isinstance(w, bytes) and b"cid:c1" in w)
    assert b"--wspeer-part" in request and b"Content-Id: c1" in request
    assert b"hello world" in request


class EchoService:
    def echo(self, message: str) -> str:
        return message

    def echo_list(self, values: list) -> list:
        return values


def test_a_list_shape_is_learned_once_whatever_its_lengths():
    net = Network(latency=FixedLatency(0.002))
    registry = UddiRegistryNode(net.add_node("registry"))
    provider = WSPeer(net.add_node("prov"), StandardBinding(registry.endpoint))
    consumer = WSPeer(net.add_node("cons"), StandardBinding(registry.endpoint))
    provider.deploy(EchoService(), name="Echo")
    provider.publish("Echo")
    handle = consumer.locate_one("Echo")
    clear_all_caches()
    assert consumer.invoke(handle, "echo", message="first") == "first"
    wire_templates.invalidate_all()  # the request template's prototype went through it
    reset_cache_stats()
    for i in range(3):
        assert consumer.invoke(handle, "echo", message=f"m{i}") == f"m{i}"
    for _ in range(3):
        for n in range(1, 71):
            values = [i + 0.5 for i in range(n)]
            assert consumer.invoke(handle, "echo_list", values=values) == values
    before = hits()
    assert consumer.invoke(handle, "echo", message="again") == "again"
    assert hits() - before == 2  # the echo skeletons were not pushed out
    stats = cache_stats()
    assert stats[STORE]["size"] <= 4 and stats[STORE]["evictions"] == 0
    assert stats[TEMPLATES]["size"] <= 3 and stats[TEMPLATES]["evictions"] == 0
