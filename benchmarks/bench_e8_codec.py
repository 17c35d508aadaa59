"""E8 — fast-path message codec: before/after in one process.

PR "fast-path message codec" rewrote the XML tokenizer (lazy position
tracking), flattened serializer namespace scopes, added pre-serialised
request-envelope templates and derived-artifact caches (WSDL, stub
specs/classes, URIs).  E8 quantifies each layer against the frozen
pre-change implementation in :mod:`repro.xmlkit.reference`, measured in
the *same process* by flipping :func:`reference_codec` (which swaps the
tokenizer/serializer hooks and disables every cache):

1. tokenizer throughput (token stream fully drained);
2. parse / serialize throughput over a corpus of representative SOAP
   envelopes (small echo, header-heavy P2PS shape, wide 64-parameter
   body);
3. request-encode micro-benchmark — envelope template splice vs full
   build-and-serialise;
4. end-to-end ``invoke`` throughput over simnet for both bindings,
   wall-clock (virtual latency costs nothing, so codec CPU dominates);
5. envelope decode — ``SoapEnvelope.from_wire`` on a decode-skeleton
   hit vs the ordinary parse behind ``fastpath_disabled()`` (E23), with
   the two trees compared exactly and the hit itself asserted, so a
   change that silently stops hitting fails here.

Byte parity is asserted before anything is timed: both codecs must
produce identical wires and identical trees — the fast path is an
optimisation, not a behaviour change.  Results land in BENCH_E8.json.

``E8_SMOKE=1`` shrinks every measurement for CI smoke runs.
"""

import os
import time

from _workloads import build_p2ps_world, build_standard_world, emit_json, print_table

from repro.caching import (
    cache_stats,
    clear_all_caches,
    fastpath_disabled,
    reset_cache_stats,
)
from repro.soap.encoding import StructRegistry
from repro.soap.envelope import SoapEnvelope
from repro.soap.rpc import RpcDispatcher, ServiceObject, build_rpc_request
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageAddressingProperties, request_templates
from repro.xmlkit import Element, QName, ns, parse
from repro.xmlkit.reference import ReferenceTokenizer, reference_codec
from repro.xmlkit.serializer import serialize
from repro.xmlkit.tokenizer import Tokenizer

SMOKE = bool(os.environ.get("E8_SMOKE"))
MIN_SECONDS = 0.02 if SMOKE else 0.25  # per measurement
N_E2E = 15 if SMOKE else 250  # invokes per binding per codec
REPEATS = 1 if SMOKE else 3  # interleaved ref/fast measurement rounds
ECHO_NS = "urn:repro:echo"


# ----------------------------------------------------------------------
# corpus: representative request envelopes built by the real pipeline
# ----------------------------------------------------------------------
def _reply_epr() -> EndpointReference:
    """A P2PS-style reply EPR: three namespaced reference properties."""
    epr = EndpointReference("p2ps://pcons0/reply-echo")
    for pname, text in (
        ("PipeId", "pipe-00000042"),
        ("PipeName", "reply-echo"),
        ("PipeType", "input"),
    ):
        epr.add_property(
            Element(QName(ns.P2PS, pname, "p2ps"), text=text,
                    nsdecls={"p2ps": ns.P2PS})
        )
    return epr


def _request_wire(n_args: int, payload: int, reply: bool) -> str:
    args = {f"arg{i}": f"value-{i:03d}-" + "x" * payload for i in range(n_args)}
    envelope = build_rpc_request(ECHO_NS, "echo", args, StructRegistry())
    target = EndpointReference("http://prov0:80/Echo0")
    maps = MessageAddressingProperties.for_request(
        target, "echo", reply_to=_reply_epr() if reply else None
    )
    maps.apply_to(envelope, target=target)
    return envelope.to_wire()


def build_corpus() -> dict[str, str]:
    return {
        "small-echo": _request_wire(1, 16, reply=False),
        "p2ps-headers": _request_wire(4, 24, reply=True),
        "wide-body-64": _request_wire(64, 48, reply=False),
    }


# ----------------------------------------------------------------------
# parity: both codecs must agree byte-for-byte before anything is timed
# ----------------------------------------------------------------------
def assert_corpus_parity(corpus: dict[str, str]) -> dict[str, bool]:
    checks = {}
    for label, wire in corpus.items():
        fast_tree = parse(wire)
        with reference_codec():
            ref_tree = parse(wire)
            ref_wire = serialize(ref_tree, xml_declaration=True)
        assert fast_tree == ref_tree, f"{label}: parsed trees differ"
        fast_wire = serialize(fast_tree, xml_declaration=True)
        assert fast_wire == ref_wire, f"{label}: serialised wires differ"
        fast_tokens = [
            (t.type, t.value, list(t.attrs), t.line, t.column)
            for t in Tokenizer(wire).tokens()
        ]
        ref_tokens = [
            (t.type, t.value, list(t.attrs), t.line, t.column)
            for t in ReferenceTokenizer(wire).tokens()
        ]
        assert fast_tokens == ref_tokens, f"{label}: token streams differ"
        checks[label] = True
    return checks


def assert_template_parity() -> str:
    """The template splice must reproduce the slow-path wire exactly."""
    target = EndpointReference("http://prov0:80/Echo0")
    args = {"message": "hello <&> world", "count": 7, "ratio": 0.25, "flag": True}
    request_templates.invalidate_all()
    for _ in range(2):  # build pass, then cache-hit pass
        maps = MessageAddressingProperties.for_request(
            target, "echo", reply_to=_reply_epr()
        )
        fast_wire = request_templates.render(
            maps, ECHO_NS, "echo", args, target=target
        )
        assert fast_wire is not None, "template unexpectedly fell back"
        envelope = build_rpc_request(ECHO_NS, "echo", args, StructRegistry())
        maps.apply_to(envelope, target=target)
        assert fast_wire == envelope.to_wire(), "template wire != slow-path wire"
    return fast_wire


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------
def ops_per_second(fn, min_seconds: float = MIN_SECONDS) -> float:
    """Calibrated wall-clock throughput of *fn* (ops/s)."""
    fn()  # warm-up / first-call caches
    n, elapsed = 1, 0.0
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return n / elapsed
        n = max(n * 2, int(n * min_seconds / max(elapsed, 1e-9) * 1.2))


def fast_vs_reference(fn) -> tuple[float, float]:
    """(fast ops/s, reference ops/s) for the same callable, same process.

    Measurements are interleaved (reference, fast, reference, fast, ...)
    and the best of each side is kept, so a slow machine phase hits both
    sides rather than biasing whichever ran during it.
    """
    ref = fast = 0.0
    for _ in range(REPEATS):
        with reference_codec():
            ref = max(ref, ops_per_second(fn))
        fast = max(fast, ops_per_second(fn))
    return fast, ref


# ----------------------------------------------------------------------
# 1+2. tokenize / parse / serialize throughput over the corpus
# ----------------------------------------------------------------------
def measure_codec(corpus: dict[str, str]) -> dict:
    results = {}
    for label, wire in corpus.items():
        tree = parse(wire)
        tok_fast, tok_ref = fast_vs_reference(
            lambda w=wire: sum(1 for _ in _active_tokenizer()(w).tokens())
        )
        parse_fast, parse_ref = fast_vs_reference(lambda w=wire: parse(w))
        ser_fast, ser_ref = fast_vs_reference(lambda t=tree: serialize(t))
        results[label] = {
            "bytes": len(wire),
            "tokenize": {"fast": tok_fast, "reference": tok_ref,
                         "speedup": tok_fast / tok_ref},
            "parse": {"fast": parse_fast, "reference": parse_ref,
                      "speedup": parse_fast / parse_ref},
            "serialize": {"fast": ser_fast, "reference": ser_ref,
                          "speedup": ser_fast / ser_ref},
        }
    return results


def _active_tokenizer():
    from repro.xmlkit import parser as _parser

    return _parser._ACTIVE_TOKENIZER


# ----------------------------------------------------------------------
# 3. request-encode micro-benchmark (template splice vs full build)
# ----------------------------------------------------------------------
def measure_encode() -> dict:
    target = EndpointReference("http://prov0:80/Echo0")
    reply = _reply_epr()
    args = {"message": "hello world, this is a medium payload", "count": 7}
    registry = StructRegistry()
    counter = {"n": 0}

    def encode():
        counter["n"] += 1
        maps = MessageAddressingProperties(
            to=target.address,
            action=f"{target.address}#echo",
            reply_to=reply,
            message_id=f"urn:uuid:repro-{counter['n']:08d}",
        )
        wire = request_templates.render(maps, ECHO_NS, "echo", args, target=target)
        if wire is None:  # slow path (reference run: fastpath disabled)
            envelope = build_rpc_request(ECHO_NS, "echo", args, registry)
            maps.apply_to(envelope, target=target)
            wire = envelope.to_wire()
        return wire

    fast, ref = fast_vs_reference(encode)
    return {"fast": fast, "reference": ref, "speedup": fast / ref}


# ----------------------------------------------------------------------
# 5. envelope decode: skeleton hit vs ordinary parse
# ----------------------------------------------------------------------
class _Echo:
    def echo(self, arg0: str) -> str:
        return arg0


def build_decode_corpus() -> dict[str, str]:
    request = _request_wire(1, 16, reply=False)
    dispatcher = RpcDispatcher(ServiceObject.from_instance("Echo0", _Echo(), ECHO_NS))
    floats = [i / 64 for i in range(64)]
    wide = build_rpc_request(ECHO_NS, "echo_list", {"values": floats}, StructRegistry())
    target = EndpointReference("http://prov0:80/Echo0")
    MessageAddressingProperties.for_request(target, "echo_list").apply_to(wide, target=target)
    return {
        "echo-request": request,
        "echo-response": dispatcher.dispatch(SoapEnvelope.from_wire(request)).to_wire(),
        "floats-64": wide.to_wire(),
    }


def _exact(elem) -> tuple:
    """Everything about a tree: prefix hints, declaration and attribute
    order, every text chunk (``Element.__eq__`` forgives all three)."""
    def name(q):
        return (q.uri, q.local, q.prefix)

    return (
        name(elem.name),
        tuple(elem.nsdecls.items()),
        tuple((name(k), v) for k, v in elem.attributes.items()),
        tuple(c if isinstance(c, str) else _exact(c) for c in elem.content),
    )


def _exact_envelope(envelope: SoapEnvelope) -> tuple:
    body = envelope.body_content
    return (
        tuple(_exact(block) for block in envelope.headers),
        None if body is None else _exact(body),
    )


def skeleton_hits() -> int:
    return cache_stats()["decode-skeletons"]["hits"]


def assert_decode_parity(wire: str, label: str) -> None:
    """Third sighting is a skeleton hit, and the hit is the parse."""
    clear_all_caches()
    with fastpath_disabled():
        expected = _exact_envelope(SoapEnvelope.from_wire(wire))
    for sighting in range(3):
        before = skeleton_hits()
        assert _exact_envelope(SoapEnvelope.from_wire(wire)) == expected, (
            f"{label}: decode differs from the ordinary parse"
        )
        assert skeleton_hits() - before == (sighting == 2), (
            f"{label}: sighting {sighting + 1} hit={skeleton_hits() - before}"
        )


def measure_decode() -> dict:
    results = {}
    for label, wire in build_decode_corpus().items():
        assert_decode_parity(wire, label)
        decode = lambda w=wire: SoapEnvelope.from_wire(w)  # noqa: E731
        hit = parsed = 0.0
        for _ in range(REPEATS):
            with fastpath_disabled():
                parsed = max(parsed, ops_per_second(decode))
            before = skeleton_hits()
            hit = max(hit, ops_per_second(decode))
            assert skeleton_hits() > before, f"{label}: stopped hitting"
        results[label] = {
            "bytes": len(wire), "skeleton": hit, "parse": parsed, "speedup": hit / parsed,
        }
    return results


# ----------------------------------------------------------------------
# 4. end-to-end invoke throughput over simnet, wall-clock
# ----------------------------------------------------------------------
def _e2e_invokes_per_second(binding: str, n: int) -> float:
    """Fresh world; returns wall-clock invokes/s over *n* echo calls."""
    if binding == "standard":
        world = build_standard_world(n_providers=1, n_consumers=1)
    else:
        world = build_p2ps_world(n_providers=1, n_consumers=1)
    consumer = world.consumers[0]
    handle = consumer.locate_one("Echo0", timeout=5.0)
    for i in range(3):  # warm caches / code paths outside the timed region
        assert consumer.invoke(handle, "echo", {"message": f"w{i}"}) == f"w{i}"
    start = time.perf_counter()
    for i in range(n):
        result = consumer.invoke(handle, "echo", {"message": f"m{i}"})
        assert result == f"m{i}"
    return n / (time.perf_counter() - start)


def measure_e2e(binding: str, n: int = N_E2E) -> dict:
    """Interleaved repeats, best of each side (see fast_vs_reference)."""
    ref = fast = 0.0
    for _ in range(REPEATS):
        with reference_codec():
            ref = max(ref, _e2e_invokes_per_second(binding, n))
        clear_all_caches()
        fast = max(fast, _e2e_invokes_per_second(binding, n))
    return {"fast": fast, "reference": ref, "speedup": fast / ref, "invokes": n}


# ----------------------------------------------------------------------
def run_e8_experiment():
    corpus = build_corpus()
    parity = {
        "corpus": assert_corpus_parity(corpus),
        "template_wire": True if assert_template_parity() else False,
    }
    print("parity: fast codec byte-identical to reference on all corpus docs")

    reset_cache_stats()
    codec = measure_codec(corpus)
    rows = []
    for label, r in codec.items():
        for stage in ("tokenize", "parse", "serialize"):
            rows.append([
                label, stage, r["bytes"],
                f"{r[stage]['reference']:.0f}/s",
                f"{r[stage]['fast']:.0f}/s",
                f"{r[stage]['speedup']:.1f}x",
            ])
    print_table(
        "E8a  codec throughput: fast vs reference (same process)",
        ["document", "stage", "bytes", "reference", "fast", "speedup"],
        rows,
        note="lazy-position tokenizer + flattened namespace scopes; parity "
        "asserted on every document before timing",
    )

    encode = measure_encode()
    print_table(
        "E8b  request encode: envelope-template splice vs full build",
        ["reference", "fast", "speedup"],
        [[f"{encode['reference']:.0f}/s", f"{encode['fast']:.0f}/s",
          f"{encode['speedup']:.1f}x"]],
        note="invariant SOAP/WSA skeleton pre-serialised once per shape; "
        "per-call fields (MessageID, params, reply EPR) spliced in",
    )

    e2e = {}
    rows = []
    for binding in ("standard", "p2ps"):
        e2e[binding] = measure_e2e(binding)
        rows.append([
            binding, e2e[binding]["invokes"],
            f"{e2e[binding]['reference']:.0f}/s",
            f"{e2e[binding]['fast']:.0f}/s",
            f"{e2e[binding]['speedup']:.1f}x",
        ])
    print_table(
        f"E8c  end-to-end invoke throughput over simnet (wall-clock)",
        ["binding", "invokes", "reference", "fast", "speedup"],
        rows,
        note="whole stack: template encode, transport framing, server "
        "parse/dispatch/encode, client response parse",
    )

    decode = measure_decode()
    print_table(
        "E8d  envelope decode: skeleton hit vs ordinary parse",
        ["document", "bytes", "parse", "skeleton", "speedup"],
        [
            [label, r["bytes"], f"{r['parse']:.0f}/s", f"{r['skeleton']:.0f}/s",
             f"{r['speedup']:.1f}x"]
            for label, r in decode.items()
        ],
        note="from_wire recognises the envelope's static text and slices out "
        "the leaf texts; exact-tree parity and the hit asserted before timing",
    )

    results = {
        "parity": parity,
        "codec": codec,
        "encode": encode,
        "decode": decode,
        "e2e": e2e,
        "cache_stats": cache_stats(),
        "config": {
            "smoke": SMOKE,
            "n_e2e": N_E2E,
            "min_seconds": MIN_SECONDS,
            "repeats": REPEATS,
        },
    }
    if not SMOKE:
        emit_json("BENCH_E8.json", results)
    return results


# ----------------------------------------------------------------------
# assertions (ride along under pytest benchmarks/; CI runs E8_SMOKE=1)
# ----------------------------------------------------------------------
def test_e8_corpus_parity():
    assert_corpus_parity(build_corpus())


def test_e8_template_matches_slow_path_byte_for_byte():
    assert_template_parity()


def test_e8_parse_speedup():
    wire = build_corpus()["p2ps-headers"]
    fast, ref = fast_vs_reference(lambda: parse(wire))
    # full-run floor is 3x (BENCH_E8.json); loose here to absorb CI noise
    assert fast > ref * 1.5, (fast, ref)


def test_e8_template_encode_speedup():
    encode = measure_encode()
    assert encode["speedup"] > 1.5, encode


def test_e8_decode_skeleton_parity_and_speedup():
    for label, decode in measure_decode().items():
        # full-run figures are 5.7-12.5x (BENCH_E8.json); 2x absorbs CI
        # noise and still fails when an envelope stops hitting (1.0x)
        assert decode["speedup"] >= 2.0, (label, decode)


def test_e8_e2e_invokes_work_under_both_codecs():
    for binding in ("standard", "p2ps"):
        e2e = measure_e2e(binding, n=10 if SMOKE else 25)
        assert e2e["speedup"] > 1.0, (binding, e2e)


if __name__ == "__main__":
    run_e8_experiment()
