"""E16 — streaming large payloads: chunked envelopes, attachments,
zero-copy codec path.

Axis-era SOAP stacks fell over on multi-megabyte payloads: base64
inflation, full-document buffering at every layer, and head-of-line
blocking on the shared connection.  E16 measures what the streamed
path buys at each layer:

1. *container codec* — the multipart attachment container, buffered
   (``message_to_wire``/``message_from_wire``) vs streamed
   (``iter_message_wire`` → ``MultipartFeedParser`` with a hashing
   sink), payload sizes 1 KB → 64 MB.  Reported: throughput and
   tracemalloc peak.  The streamed gate: peak stays O(chunk) while the
   buffered path's peak scales with the payload.
2. *XML codec* — batch ``serialize``/``parse`` vs the streaming twins
   ``iter_serialize``/``FeedParser`` on a multi-MB envelope; byte
   parity is asserted, peaks and throughput reported.
3. *end-to-end invocation* — virtual-time simnet with per-byte
   transmission cost: a large echo plus pipelined small calls on one
   pooled connection, buffered vs streamed (chunk knobs set through
   ``enable_http_keepalive``).  Streaming
   must cut the small calls' worst-case latency (no head-of-line
   blocking) while the big payload round-trips byte-identically.

Results land in BENCH_E16.json.  ``E16_SMOKE=1`` shrinks the run for CI.
"""

import hashlib
import os
import time
import tracemalloc

from _workloads import build_standard_world, emit_json, fmt_ms, print_table

from repro.soap import Attachment
from repro.soap.attachments import (
    MultipartFeedParser,
    iter_message_wire,
    message_from_wire,
    message_to_wire,
)
from repro.transport import PoolConfig
from repro.xmlkit import Element, FeedParser, QName, iter_serialize, serialize

SMOKE = bool(os.environ.get("E16_SMOKE"))
CHUNK = 64 * 1024
KB, MB = 1024, 1024 * 1024
CONTAINER_SIZES = (
    [1 * KB, 256 * KB, 4 * MB] if SMOKE else [1 * KB, 64 * KB, 1 * MB, 16 * MB, 64 * MB]
)
XML_DOC_TARGET = 1 * MB if SMOKE else 8 * MB
E2E_BIG = 512 * KB if SMOKE else 4 * MB
E2E_SMALL_CALLS = 8

#: 64 KiB repeating pattern — payloads are generated from this block so
#: the streamed producer never materialises the full payload
BLOCK = bytes(range(256)) * 256
ENVELOPE = '<?xml version="1.0"?><env>e16</env>'


def _block_chunks(size):
    reps, rem = divmod(size, len(BLOCK))

    def chunks():
        for _ in range(reps):
            yield BLOCK
        if rem:
            yield BLOCK[:rem]

    return chunks


def _expected_digest(size):
    digest = hashlib.sha256()
    for piece in _block_chunks(size)():
        digest.update(piece)
    return digest.hexdigest()


class _HashSink:
    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, data):
        self.digest.update(data)

    def close(self):
        return self.digest.hexdigest()


# ----------------------------------------------------------------------
# E16a — multipart container: buffered vs streamed
# ----------------------------------------------------------------------
def _run_buffered(size):
    payload = b"".join(_block_chunks(size)())
    wire = message_to_wire(ENVELOPE, [Attachment("payload", payload)])
    _, parts = message_from_wire(wire)
    return hashlib.sha256(parts[0].materialise()).hexdigest()


def _run_streamed(size):
    att = Attachment("payload", chunks=_block_chunks(size), size=size)
    parser = MultipartFeedParser(sink_factory=lambda cid, ctype, n: _HashSink())
    for piece in iter_message_wire(ENVELOPE, [att], chunk_size=CHUNK):
        parser.feed(piece)
    _, parts = parser.close()
    return parts[0].delivered


def measure_container(size, mode):
    run = _run_buffered if mode == "buffered" else _run_streamed
    t0 = time.perf_counter()
    digest = run(size)
    elapsed = time.perf_counter() - t0
    assert digest == _expected_digest(size), f"{mode} corrupted {size}B payload"
    tracemalloc.start()
    tracemalloc.reset_peak()
    run(size)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "size_bytes": size,
        "mode": mode,
        "throughput_mb_s": (size / MB) / elapsed if elapsed else float("inf"),
        "peak_bytes": peak,
    }


# ----------------------------------------------------------------------
# E16b — XML codec: batch vs streaming twins
# ----------------------------------------------------------------------
def _build_document(target_bytes):
    text = ("lorem <ipsum> & \"dolor\" sit amet — データ " * 24)[:1000]
    root = Element(QName("urn:e16", "doc", "d"), nsdecls={"d": "urn:e16"})
    i = 0
    while target_bytes > 0:
        root.append(
            Element(QName("urn:e16", "item", "d"), text=text, attributes={"i": str(i)})
        )
        target_bytes -= len(text) + 40
        i += 1
    return root


def measure_xml_codec():
    doc = _build_document(XML_DOC_TARGET)

    t0 = time.perf_counter()
    batch_text = serialize(doc, xml_declaration=True)
    batch_s = time.perf_counter() - t0
    batch_bytes = batch_text.encode("utf-8")
    tracemalloc.start()
    tracemalloc.reset_peak()
    serialize(doc, xml_declaration=True)
    _, batch_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    def stream_once():
        digest = hashlib.sha256()
        for piece in iter_serialize(doc, chunk_size=CHUNK, xml_declaration=True):
            digest.update(piece)
        return digest.hexdigest()

    t0 = time.perf_counter()
    stream_digest = stream_once()
    stream_s = time.perf_counter() - t0
    assert stream_digest == hashlib.sha256(batch_bytes).hexdigest()
    tracemalloc.start()
    tracemalloc.reset_peak()
    stream_once()
    _, stream_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    t0 = time.perf_counter()
    feed = FeedParser()
    for i in range(0, len(batch_bytes), CHUNK):
        feed.feed(batch_bytes[i : i + CHUNK])
    tree = feed.close()
    parse_s = time.perf_counter() - t0
    assert serialize(tree) == serialize(doc)

    size = len(batch_bytes)
    return {
        "doc_bytes": size,
        "batch_serialize_mb_s": (size / MB) / batch_s,
        "stream_serialize_mb_s": (size / MB) / stream_s,
        "batch_serialize_peak_bytes": batch_peak,
        "stream_serialize_peak_bytes": stream_peak,
        "feed_parse_mb_s": (size / MB) / parse_s,
    }


# ----------------------------------------------------------------------
# E16c — end-to-end: head-of-line blocking, buffered vs streamed
# ----------------------------------------------------------------------
def measure_end_to_end(mode):
    from repro.observability.metrics import default_registry
    from repro.simnet import FixedLatency

    world = build_standard_world(
        n_providers=1, n_consumers=1,
        latency=0.0,  # replaced below with a per-byte model
    )
    net = world.net
    net.latency = FixedLatency(0.0005, per_byte=1e-8)
    provider, consumer = world.providers[0], world.consumers[0]
    handle = consumer.locate_one("Echo0")
    if mode == "streamed":  # buffered: the peers' pooled connections as they are
        config = PoolConfig(chunk_threshold=CHUNK, chunk_size=CHUNK, stream_window=8)
        provider.enable_http_keepalive(config)
        consumer.enable_http_keepalive(config)
    chunks_before = default_registry().get("transport.http.chunks_sent")

    big = "B" * E2E_BIG
    done = {}
    t_issue = net.now
    consumer.invoke_async(
        handle, "echo", {"message": big},
        lambda result, error: done.__setitem__(
            "big",
            (net.now - t_issue, error if error else ("mismatch" if result != big else None)),
        ),
    )
    for i in range(E2E_SMALL_CALLS):
        consumer.invoke_async(
            handle, "echo", {"message": f"s{i}"},
            lambda result, error, i=i: done.__setitem__(
                f"s{i}", (net.now - t_issue, error)
            ),
        )
    net.run()
    assert len(done) == 1 + E2E_SMALL_CALLS
    assert all(err is None for _, err in done.values())
    small = sorted(latency for key, (latency, _) in done.items() if key != "big")
    return {
        "mode": mode,
        "big_bytes": E2E_BIG,
        "big_makespan_s": done["big"][0],
        "small_calls": E2E_SMALL_CALLS,
        "small_p50_s": small[len(small) // 2],
        "small_max_s": small[-1],
        "chunks_sent": default_registry().get("transport.http.chunks_sent")
        - chunks_before,
    }


# ----------------------------------------------------------------------
def run_e16_experiment():
    results = {"smoke": SMOKE, "chunk_bytes": CHUNK}

    container = [
        measure_container(size, mode)
        for size in CONTAINER_SIZES
        for mode in ("buffered", "streamed")
    ]
    results["container"] = container
    print_table(
        "E16a multipart container codec (buffered vs streamed)",
        ["payload", "mode", "MB/s", "peak"],
        [
            [
                f"{m['size_bytes'] // KB}KB",
                m["mode"],
                f"{m['throughput_mb_s']:.0f}",
                f"{m['peak_bytes'] // KB}KB",
            ]
            for m in container
        ],
        note="streamed peak is O(chunk) at every size; buffered peak "
        "scales with the payload",
    )

    xml = measure_xml_codec()
    results["xml_codec"] = xml
    print_table(
        "E16b XML codec streaming twins (byte parity asserted)",
        ["doc", "batch MB/s", "stream MB/s", "batch peak", "stream peak",
         "feed-parse MB/s"],
        [[
            f"{xml['doc_bytes'] // KB}KB",
            f"{xml['batch_serialize_mb_s']:.0f}",
            f"{xml['stream_serialize_mb_s']:.0f}",
            f"{xml['batch_serialize_peak_bytes'] // KB}KB",
            f"{xml['stream_serialize_peak_bytes'] // KB}KB",
            f"{xml['feed_parse_mb_s']:.0f}",
        ]],
    )

    e2e = {mode: measure_end_to_end(mode) for mode in ("buffered", "streamed")}
    results["end_to_end"] = e2e
    print_table(
        f"E16c pipelined small calls during a {E2E_BIG // KB}KB echo",
        ["mode", "big makespan", "small p50", "small max", "chunks"],
        [
            [
                mode,
                fmt_ms(m["big_makespan_s"]),
                fmt_ms(m["small_p50_s"]),
                fmt_ms(m["small_max_s"]),
                m["chunks_sent"],
            ]
            for mode, m in e2e.items()
        ],
        note="buffered mode delivers responses in request order behind the "
        "big body; chunked framing lets small replies overtake it",
    )

    emit_json("BENCH_E16.json", results)
    return results


# ----------------------------------------------------------------------
# assertions (run under pytest; the CI smoke uses E16_SMOKE=1)
# ----------------------------------------------------------------------
def test_e16_streamed_container_memory_o_chunk():
    size = CONTAINER_SIZES[-1]
    streamed = measure_container(size, "streamed")
    buffered = measure_container(size, "buffered")
    # zero-copy gate: the streamed path never holds more than a few
    # chunks while the buffered path holds whole-payload copies
    assert streamed["peak_bytes"] < 8 * CHUNK
    assert buffered["peak_bytes"] >= size


def test_e16_xml_streaming_parity_and_memory():
    xml = measure_xml_codec()  # parity asserted inside
    assert xml["stream_serialize_peak_bytes"] < xml["batch_serialize_peak_bytes"] / 4


def test_e16_streaming_avoids_head_of_line_blocking():
    buffered = measure_end_to_end("buffered")
    streamed = measure_end_to_end("streamed")
    assert buffered["chunks_sent"] == 0
    assert streamed["chunks_sent"] > 0
    assert streamed["small_max_s"] < buffered["small_max_s"]


if __name__ == "__main__":
    run_e16_experiment()
