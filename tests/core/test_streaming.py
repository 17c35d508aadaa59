"""E16 integration: binary attachments and streamed large payloads.

Attachments ride both bindings end-to-end (HTTP multipart bodies and
P2PS multipart payloads); a ``PoolConfig`` with a ``chunk_threshold``,
handed to ``enable_http_keepalive``, chunks oversized HTTP exchanges without reordering or head-of-line-blocking pipelined small
calls; the multipart codec path holds O(chunk) memory; dedup replay
retains multipart response wires byte-for-byte.
"""

import hashlib
import tracemalloc

import pytest

from tests.core.conftest import Echo

from repro.core import WSPeer
from repro.core.binding import P2psBinding
from repro.p2ps import PeerGroup
from repro.reliability import ReliabilityPolicy, RetryPolicy
from repro.simnet import FixedLatency, Network
from repro.soap import Attachment
from repro.soap.attachments import MultipartFeedParser, iter_message_wire
from repro.transport import PoolConfig


def _metric(name):
    from repro.observability.metrics import default_registry

    return default_registry().get(name)


NON_ASCII = "héllo — ✓ приве́т 漢字 🚀"


class BlobStore:
    """Test service whose arguments and results are attachments."""

    def __init__(self):
        self.blobs = {}

    def put(self, name: str, blob) -> int:
        data = blob.materialise()
        self.blobs[name] = data
        return len(data)

    def get(self, name: str):
        return Attachment(f"blob-{name}", self.blobs[name])

    def echo_blob(self, blob):
        return blob


PNG_ISH = bytes(range(256)) * 16 + b"\x00\r\n<>&\"'\xff"


class TestAttachmentsOverBindings:
    def _exercise(self, provider, consumer, net):
        provider.deploy(BlobStore(), name="Blobs")
        provider.publish("Blobs")
        handle = consumer.locate_one("Blobs")
        blob = Attachment("upload", PNG_ISH, "image/png")
        assert consumer.invoke(handle, "put", name="pic", blob=blob) == len(PNG_ISH)
        back = consumer.invoke(handle, "get", name="pic")
        assert isinstance(back, Attachment)
        assert back.materialise() == PNG_ISH
        echoed = consumer.invoke(handle, "echo_blob", blob=blob)
        assert echoed.materialise() == PNG_ISH

    def test_http_binding_roundtrip(self, standard_pair, net):
        provider, consumer, _ = standard_pair
        self._exercise(provider, consumer, net)

    def test_p2ps_binding_roundtrip(self, p2ps_pair, net):
        provider, consumer, _ = p2ps_pair
        self._exercise(provider, consumer, net)

    def test_non_ascii_envelope_http(self, standard_pair, net):
        provider, consumer, _ = standard_pair
        provider.deploy(Echo(), name="Echo")
        provider.publish("Echo")
        handle = consumer.locate_one("Echo")
        assert consumer.invoke(handle, "echo", message=NON_ASCII) == NON_ASCII

    def test_non_ascii_envelope_p2ps(self, p2ps_pair, net):
        provider, consumer, _ = p2ps_pair
        provider.deploy(Echo(), name="Echo")
        provider.publish("Echo")
        net.run()
        handle = consumer.locate_one("Echo")
        assert consumer.invoke(handle, "echo", message=NON_ASCII) == NON_ASCII


class TestStreamedInvocation:
    def _streaming_world(self, standard_pair, net):
        provider, consumer, _ = standard_pair
        provider.deploy(Echo(), name="Echo")
        provider.publish("Echo")
        handle = consumer.locate_one("Echo")
        config = PoolConfig(chunk_threshold=32 * 1024, chunk_size=8 * 1024)
        provider.enable_http_keepalive(config)
        consumer.enable_http_keepalive(config)
        return provider, consumer, handle

    def test_large_round_trip_streams_both_directions(self, standard_pair, net):
        provider, consumer, handle = self._streaming_world(standard_pair, net)
        before = _metric("transport.http.streams_completed")
        chunks_before = _metric("transport.http.chunks_sent")
        message = "".join(f"payload-{i:06d} " for i in range(20_000))  # ~300 KB
        assert consumer.invoke(handle, "echo", message=message) == message
        # request and response both exceeded the threshold
        assert _metric("transport.http.streams_completed") == before + 2
        assert _metric("transport.http.chunks_sent") > chunks_before + 10

    def test_small_calls_stay_buffered(self, standard_pair, net):
        provider, consumer, handle = self._streaming_world(standard_pair, net)
        before = _metric("transport.http.streams_started")
        assert consumer.invoke(handle, "echo", message="tiny") == "tiny"
        assert _metric("transport.http.streams_started") == before

    def test_large_stream_does_not_block_small_calls(self, standard_pair, net):
        provider, consumer, handle = self._streaming_world(standard_pair, net)
        done = []
        big = "B" * 400_000
        consumer.invoke_async(
            handle, "echo", {"message": big},
            lambda result, error: done.append(("big", net.now, error)),
        )
        for i in range(3):
            consumer.invoke_async(
                handle, "echo", {"message": f"small-{i}"},
                lambda result, error, i=i: done.append((f"small-{i}", net.now, error)),
            )
        net.run()
        assert len(done) == 4
        assert all(err is None for _, _, err in done)
        finished = {label: at for label, at, _ in done}
        # pipelined small calls complete while the big exchange is
        # still streaming — chunked framing yields the connection
        assert max(finished[f"small-{i}"] for i in range(3)) < finished["big"]

    def test_no_reorder_under_streaming(self, standard_pair, net):
        provider, consumer, handle = self._streaming_world(standard_pair, net)
        results = []
        payloads = ["s0", "M" * 100_000, "s1", "L" * 200_000, "s2"]
        for p in payloads:
            consumer.invoke_async(
                handle, "echo", {"message": p},
                lambda result, error, p=p: results.append((p, result, error)),
            )
        net.run()
        assert len(results) == len(payloads)
        for sent, received, error in results:
            assert error is None
            assert received == sent

    def test_streamed_attachment_upload(self, standard_pair, net):
        provider, consumer, _ = standard_pair
        provider.deploy(BlobStore(), name="Blobs")
        provider.publish("Blobs")
        handle = consumer.locate_one("Blobs")
        config = PoolConfig(chunk_threshold=32 * 1024, chunk_size=8 * 1024)
        provider.enable_http_keepalive(config)
        consumer.enable_http_keepalive(config)
        before = _metric("transport.http.streams_completed")
        blob = Attachment("big", bytes(range(256)) * 1024)  # 256 KB
        assert (
            consumer.invoke(handle, "put", name="big", blob=blob)
            == 256 * 1024
        )
        back = consumer.invoke(handle, "get", name="big")
        assert back.materialise() == bytes(range(256)) * 1024
        assert _metric("transport.http.streams_completed") >= before + 2


class TestStreamedMemoryBound:
    def test_multipart_codec_path_holds_o_chunk_memory(self):
        # an 8 MB attachment flows producer → wire chunks → feed parser
        # → hashing sink without either side materialising the payload
        chunk = b"\x5a" * (32 * 1024)
        n_chunks = 256  # 8 MB total
        size = len(chunk) * n_chunks
        expect = hashlib.sha256()
        for _ in range(n_chunks):
            expect.update(chunk)

        class HashSink:
            def __init__(self):
                self.digest = hashlib.sha256()
                self.seen = 0

            def write(self, data):
                self.digest.update(data)
                self.seen += len(data)

            def close(self):
                return self.digest.hexdigest()

        att = Attachment(
            "huge",
            chunks=lambda: (chunk for _ in range(n_chunks)),
            size=size,
        )
        sinks = {}

        def factory(cid, ctype, length):
            sinks[cid] = HashSink()
            return sinks[cid]

        parser = MultipartFeedParser(sink_factory=factory)
        tracemalloc.start()
        tracemalloc.reset_peak()
        for piece in iter_message_wire("<env/>", [att], chunk_size=32 * 1024):
            parser.feed(piece)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        env, parts = parser.close()
        assert env == "<env/>"
        assert parts[0].delivered == expect.hexdigest()
        assert sinks["huge"].seen == size
        # O(chunk), not O(payload): 8 MB flowed through < 1 MB peak
        assert peak < 1024 * 1024


class TestDedupReplayWithAttachments:
    def test_replayed_response_carries_attachment(self):
        net = Network(latency=FixedLatency(0.002))
        group = PeerGroup("g")

        class CountingBlobs:
            def __init__(self):
                self.executions = 0

            def fetch(self):
                self.executions += 1
                return Attachment("result", PNG_ISH, "image/png")

        service = CountingBlobs()
        provider = WSPeer(net.add_node("prov"), P2psBinding(group), name="prov")
        provider.deploy(service, name="Blobs")
        provider.publish("Blobs")
        net.run()
        consumer = WSPeer(net.add_node("cons"), P2psBinding(group), name="cons")
        consumer.client.invocation.default_policy = ReliabilityPolicy(
            retry=RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0)
        )
        handle = consumer.locate_one("Blobs")

        state = {"responses_dropped": 0}

        def drop_first_response(frame):
            if (
                frame.src == "prov"
                and frame.port.startswith("pipe:")
                and state["responses_dropped"] == 0
            ):
                state["responses_dropped"] += 1
                return False
            return True

        net.add_delivery_hook(drop_first_response)
        result = consumer.invoke(handle, "fetch", timeout=0.5)
        assert state["responses_dropped"] == 1
        # executed once; the retransmit was answered from the dedup
        # window with the retained multipart wire, attachment intact
        assert service.executions == 1
        assert provider.server.container.get("Blobs").duplicates_suppressed == 1
        assert isinstance(result, Attachment)
        assert result.materialise() == PNG_ISH
