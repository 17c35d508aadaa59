"""Tests for the SOAP-with-Attachments-style multipart container (E16)."""

import random

import pytest

from repro.soap import (
    Attachment,
    AttachmentError,
    MULTIPART_CONTENT_TYPE,
    MultipartFeedParser,
    SoapEnvelope,
    attachment_scope,
    is_multipart,
)
from repro.soap.attachments import (
    MULTIPART_BOUNDARY,
    cid_of,
    iter_message_wire,
    message_from_wire,
    message_to_wire,
    resolve_attachment,
)
from repro.soap.encoding import value_shape
from repro.xmlkit import Element, QName

ENVELOPE = '<?xml version="1.0"?><env>héllo</env>'


def op_element(name="echo"):
    return Element(QName("urn:app", name, "app"), nsdecls={"app": "urn:app"})


class TestAttachment:
    def test_materialised_bytes(self):
        att = Attachment("blob-1", b"\x00\x01\xff", "image/png")
        assert att.size == 3
        assert att.href == "cid:blob-1"
        assert not att.is_streamed
        assert att.materialise() == b"\x00\x01\xff"
        assert b"".join(att.iter_chunks(2)) == b"\x00\x01\xff"

    def test_streamed_chunks_factory(self):
        att = Attachment(
            "blob-2", chunks=lambda: (b"ab", b"cd"), size=4
        )
        assert att.is_streamed
        # re-invocable: both iteration and materialise work
        assert b"".join(att.iter_chunks()) == b"abcd"
        assert att.materialise() == b"abcd"

    def test_chunk_size_lie_is_fatal(self):
        att = Attachment("liar", chunks=lambda: (b"abc",), size=99)
        with pytest.raises(AttachmentError):
            list(att.iter_chunks())

    def test_bad_content_ids_rejected(self):
        for cid in ("", "has\r\nnewline", "has:colon"):
            with pytest.raises(AttachmentError):
                Attachment(cid, b"x")

    def test_chunks_require_size(self):
        with pytest.raises(AttachmentError):
            Attachment("x", chunks=lambda: (b"a",))

    def test_cid_of(self):
        assert cid_of("cid:abc") == "abc"
        assert cid_of("cid:") is None
        assert cid_of("http://elsewhere") is None
        assert cid_of(None) is None


class TestContainerRoundTrip:
    def test_roundtrip(self):
        parts = [
            Attachment("a", b"alpha", "text/plain"),
            Attachment("b", b"\x00" * 100),
        ]
        wire = message_to_wire(ENVELOPE, parts)
        assert is_multipart(wire)
        env, back = message_from_wire(wire)
        assert env == ENVELOPE
        assert [a.content_id for a in back] == ["a", "b"]
        assert back[0].materialise() == b"alpha"
        assert back[0].content_type == "text/plain"
        assert back[1].materialise() == b"\x00" * 100

    def test_no_attachments_still_valid(self):
        wire = message_to_wire(ENVELOPE, [])
        env, back = message_from_wire(wire)
        assert env == ENVELOPE
        assert back == []

    def test_boundary_like_bytes_in_content_survive(self):
        # declared-length framing must never scan bodies for boundaries
        evil = (
            f"--{MULTIPART_BOUNDARY}\r\n".encode("ascii")
            + f"--{MULTIPART_BOUNDARY}--\r\n".encode("ascii")
            + b"\r\n\r\nContent-Id: fake\r\n"
        )
        wire = message_to_wire(ENVELOPE, [Attachment("evil", evil)])
        env, back = message_from_wire(wire)
        assert env == ENVELOPE
        assert back[0].materialise() == evil

    def test_iter_wire_equals_batch_wire(self):
        parts = [Attachment("a", bytes(range(256)) * 40)]
        batch = message_to_wire(ENVELOPE, parts)
        streamed = b"".join(iter_message_wire(ENVELOPE, parts, chunk_size=7))
        assert streamed == batch

    def test_streamed_attachment_never_materialised_on_encode(self):
        payload = bytes(500)

        def chunks():
            for i in range(0, len(payload), 64):
                yield payload[i : i + 64]

        att = Attachment("big", chunks=chunks, size=len(payload))
        wire = b"".join(iter_message_wire(ENVELOPE, [att]))
        env, back = message_from_wire(wire)
        assert back[0].materialise() == payload
        # the source attachment stayed deferred
        assert att.is_streamed


class TestFeedParser:
    def _wire(self):
        return message_to_wire(
            ENVELOPE,
            [Attachment("a", b"alpha"), Attachment("b", bytes(range(256)))],
        )

    def test_byte_at_a_time(self):
        wire = self._wire()
        parser = MultipartFeedParser()
        for i in range(len(wire)):
            assert not parser.complete or wire[i:].strip(b"\r\n") == b""
            parser.feed(wire[i : i + 1])
        env, back = parser.close()
        assert env == ENVELOPE
        assert back[1].materialise() == bytes(range(256))

    def test_random_splits(self):
        wire = self._wire()
        rng = random.Random(16)
        for _ in range(25):
            parser = MultipartFeedParser()
            pos = 0
            while pos < len(wire):
                step = rng.randint(1, 64)
                parser.feed(memoryview(wire)[pos : pos + step])
                pos += step
            env, back = parser.close()
            assert env == ENVELOPE
            assert [a.materialise() for a in back] == [
                b"alpha",
                bytes(range(256)),
            ]

    def test_external_sink_receives_body(self):
        wire = self._wire()
        written = {}

        class ListSink:
            def __init__(self, cid):
                self.cid = cid
                written[cid] = bytearray()

            def write(self, data):
                written[self.cid] += data

            def close(self):
                return f"sunk:{self.cid}"

        env, back = message_from_wire(
            wire, sink_factory=lambda cid, ctype, length: ListSink(cid)
        )
        assert env == ENVELOPE
        assert bytes(written["a"]) == b"alpha"
        assert bytes(written["b"]) == bytes(range(256))
        # streamed-to-sink parts retain metadata + sink result, not bytes
        assert back[0].delivered == "sunk:a"
        assert back[0].size == 5
        with pytest.raises(AttachmentError):
            back[0].materialise()

    def test_truncated_wire_rejected(self):
        wire = self._wire()
        parser = MultipartFeedParser()
        parser.feed(wire[: len(wire) // 2])
        with pytest.raises(AttachmentError, match="truncated"):
            parser.close()

    def test_trailing_garbage_rejected(self):
        parser = MultipartFeedParser()
        parser.feed(self._wire() + b"extra")
        with pytest.raises(AttachmentError, match="trailing data"):
            parser.close()

    def test_feed_after_close_rejected(self):
        parser = MultipartFeedParser()
        parser.feed(self._wire())
        parser.close()
        with pytest.raises(AttachmentError):
            parser.feed(b"x")

    @pytest.mark.parametrize(
        "wire",
        [
            b"--not-the-boundary\r\n\r\n",
            # first part must be the envelope
            (
                b"--wspeer-part\r\nContent-Id: other\r\n"
                b"Content-Length: 1\r\n\r\nx\r\n--wspeer-part--\r\n"
            ),
            # missing Content-Length
            (
                b"--wspeer-part\r\nContent-Id: soap-envelope\r\n\r\n"
            ),
            # signed part length
            (
                b"--wspeer-part\r\nContent-Id: soap-envelope\r\n"
                b"Content-Length: +1\r\n\r\nx\r\n--wspeer-part--\r\n"
            ),
            # body longer than declared (no \r\n where expected)
            (
                b"--wspeer-part\r\nContent-Id: soap-envelope\r\n"
                b"Content-Length: 1\r\n\r\nxYZ--wspeer-part--\r\n"
            ),
            # final boundary with no envelope part at all
            b"--wspeer-part--\r\n",
        ],
    )
    def test_malformed_wires_rejected(self, wire):
        parser = MultipartFeedParser()
        with pytest.raises(AttachmentError):
            parser.feed(wire)
            parser.close()


class TestEnvelopeIntegration:
    def test_to_wire_message_plain_stays_text(self):
        env = SoapEnvelope(body_content=op_element())
        wire = env.to_wire_message()
        assert isinstance(wire, str)
        back = SoapEnvelope.from_wire_message(wire)
        assert back.body_content.name == QName("urn:app", "echo")

    def test_to_wire_message_with_attachments_is_multipart(self):
        env = SoapEnvelope(
            body_content=op_element(),
            attachments=[Attachment("blob", b"\xde\xad\xbe\xef")],
        )
        wire = env.to_wire_message()
        assert isinstance(wire, bytes)
        assert is_multipart(wire)
        back = SoapEnvelope.from_wire_message(wire)
        assert back.attachments[0].materialise() == b"\xde\xad\xbe\xef"
        assert back.body_content.name == QName("urn:app", "echo")

    def test_from_wire_message_plain_bytes(self):
        env = SoapEnvelope(body_content=op_element())
        raw = env.to_wire().encode("utf-8")
        back = SoapEnvelope.from_wire_message(raw)
        assert back.body_content.name == QName("urn:app", "echo")

    def test_multipart_content_type_is_binary_safe_prefix(self):
        # the transport keeps multipart/* bodies as raw bytes; the
        # advertised content type must hit that prefix
        assert MULTIPART_CONTENT_TYPE.startswith("multipart/")


class TestResolutionScope:
    def test_scope_resolution(self):
        att = Attachment("x", b"data")
        with attachment_scope([att]):
            assert resolve_attachment("x") is att
        # out of scope: detached placeholder
        placeholder = resolve_attachment("x")
        assert placeholder is not att
        assert placeholder.size == 0

    def test_nested_scopes_inner_wins(self):
        outer = Attachment("x", b"outer")
        inner = Attachment("x", b"inner")
        with attachment_scope([outer]):
            with attachment_scope([inner]):
                assert resolve_attachment("x") is inner
            assert resolve_attachment("x") is outer

    def test_collect_attachments(self):
        a = Attachment("a", b"1")
        b = Attachment("b", b"2")
        value = {"k": [a, ("x", b)], "again": a}
        found: list = []
        assert value_shape(value, [], found) is None  # the element path
        assert found == [a, b]  # deduped by identity, encoding order
        assert value_shape("plain", [], found) == "xsd:string" and found == [a, b]
