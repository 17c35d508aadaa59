"""SOAP-with-Attachments-style binary parts (E16).

Large binary payloads do not belong inside an envelope: base64 inflates
them by a third and the XML codec must escape-scan every byte.  This
module gives envelopes *attachments* — raw ``bytes`` parts carried next
to the envelope in a MIME-multipart-lite container and referenced from
the body by content-id (``href="cid:..."``), the SOAP-with-Attachments
convention the paper's Axis-era stack used.

The container is deliberately stricter than full MIME: every part
declares ``Content-Length``, so the decoder slices parts out by byte
count and never scans payload bytes for boundary strings — binary-safe
by construction, and streamable: :class:`MultipartFeedParser` accepts
the wire in arbitrary fragments and can hand each attachment body to a
caller-supplied sink as it arrives, holding O(chunk) memory.

Wire shape (all header text ASCII, bodies raw bytes)::

    --wspeer-part\\r\\n
    Content-Id: soap-envelope\\r\\n
    Content-Type: text/xml; charset=utf-8\\r\\n
    Content-Length: <n>\\r\\n
    \\r\\n
    <n envelope bytes>\\r\\n
    --wspeer-part\\r\\n
    Content-Id: <cid>\\r\\n
    ...
    --wspeer-part--\\r\\n

The first part is always the envelope (content-id ``soap-envelope``);
the rest are attachments in order.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Union

_BytesLike = Union[bytes, bytearray, memoryview]

MULTIPART_BOUNDARY = "wspeer-part"
MULTIPART_CONTENT_TYPE = (
    f'multipart/related; boundary="{MULTIPART_BOUNDARY}"; type="text/xml"'
)
ROOT_CONTENT_ID = "soap-envelope"
ENVELOPE_CONTENT_TYPE = "text/xml; charset=utf-8"
DEFAULT_CHUNK = 64 * 1024

_DASH_BOUNDARY = f"--{MULTIPART_BOUNDARY}".encode("ascii")
_FINAL_BOUNDARY = f"--{MULTIPART_BOUNDARY}--".encode("ascii")


class AttachmentError(ValueError):
    """Raised for malformed multipart wires or misused attachments."""


class Attachment:
    """One raw binary part.

    ``content`` may be materialised ``bytes``, or deferred: a *chunks*
    factory (a zero-argument callable returning an iterable of byte
    chunks, re-invocable for retransmits) plus an explicit *size*.
    Parts decoded into an external sink have neither — they expose only
    ``content_id``/``content_type``/``size`` and the sink's result.
    """

    __slots__ = ("content_id", "content_type", "size", "_content", "_chunks", "delivered")

    def __init__(
        self,
        content_id: str,
        content: Optional[_BytesLike] = None,
        content_type: str = "application/octet-stream",
        *,
        chunks: Optional[Callable[[], Iterable[bytes]]] = None,
        size: Optional[int] = None,
    ):
        if not content_id or any(c in content_id for c in "\r\n:"):
            raise AttachmentError(f"bad content id: {content_id!r}")
        self.content_id = content_id
        self.content_type = content_type
        self.delivered: object = None  # sink result for streamed decodes
        if content is not None:
            if chunks is not None:
                raise AttachmentError("pass content or chunks, not both")
            self._content: Optional[bytes] = bytes(content)
            self._chunks = None
            self.size = len(self._content)
        else:
            self._content = None
            self._chunks = chunks
            if chunks is not None and size is None:
                raise AttachmentError("chunked attachments need an explicit size")
            self.size = size if size is not None else 0

    @property
    def href(self) -> str:
        return f"cid:{self.content_id}"

    @property
    def is_streamed(self) -> bool:
        return self._content is None and self._chunks is not None

    def materialise(self) -> bytes:
        """The full content as one bytes object (caches the join)."""
        if self._content is None:
            if self._chunks is None:
                raise AttachmentError(
                    f"attachment {self.content_id!r} was streamed to a sink; "
                    "its content is not retained"
                )
            self._content = b"".join(bytes(c) for c in self._chunks())
            if len(self._content) != self.size:
                raise AttachmentError(
                    f"attachment {self.content_id!r} chunks yielded "
                    f"{len(self._content)} bytes, declared {self.size}"
                )
        return self._content

    def iter_chunks(self, chunk_size: int = DEFAULT_CHUNK) -> Iterator[bytes]:
        """Content as byte chunks without materialising streamed parts."""
        if self._content is not None:
            view = memoryview(self._content)
            for i in range(0, len(view), chunk_size):
                yield bytes(view[i : i + chunk_size])
            return
        if self._chunks is None:
            raise AttachmentError(
                f"attachment {self.content_id!r} has no retained content"
            )
        sent = 0
        for chunk in self._chunks():
            chunk = bytes(chunk)
            sent += len(chunk)
            yield chunk
        if sent != self.size:
            raise AttachmentError(
                f"attachment {self.content_id!r} chunks yielded {sent} bytes, "
                f"declared {self.size}"
            )

    def __repr__(self) -> str:
        kind = "streamed" if self.is_streamed else "bytes"
        return f"<Attachment {self.content_id} {self.content_type} {self.size}B {kind}>"


def cid_of(href: str) -> Optional[str]:
    """The content-id of a ``cid:`` href, or None for other hrefs."""
    if isinstance(href, str) and href.startswith("cid:") and len(href) > 4:
        return href[4:]
    return None


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------


def _part_head(content_id: str, content_type: str, length: int) -> bytes:
    return (
        f"--{MULTIPART_BOUNDARY}\r\n"
        f"Content-Id: {content_id}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {length}\r\n"
        "\r\n"
    ).encode("ascii")


def is_multipart(data: Union[str, _BytesLike]) -> bool:
    """True when *data* starts with this module's opening boundary."""
    if isinstance(data, str):
        return data.startswith(f"--{MULTIPART_BOUNDARY}\r\n")
    return bytes(data[: len(_DASH_BOUNDARY) + 2]) == _DASH_BOUNDARY + b"\r\n"


def iter_message_wire(
    envelope_wire: Union[str, bytes],
    attachments: Iterable[Attachment],
    chunk_size: int = DEFAULT_CHUNK,
) -> Iterator[bytes]:
    """The multipart wire as byte chunks; attachment content streams
    through without being materialised."""
    env = envelope_wire.encode("utf-8") if isinstance(envelope_wire, str) else bytes(envelope_wire)
    yield _part_head(ROOT_CONTENT_ID, ENVELOPE_CONTENT_TYPE, len(env))
    view = memoryview(env)
    for i in range(0, len(view), chunk_size):
        yield bytes(view[i : i + chunk_size])
    yield b"\r\n"
    for attachment in attachments:
        yield _part_head(attachment.content_id, attachment.content_type, attachment.size)
        yield from attachment.iter_chunks(chunk_size)
        yield b"\r\n"
    yield _FINAL_BOUNDARY + b"\r\n"


def message_to_wire(
    envelope_wire: Union[str, bytes], attachments: Iterable[Attachment]
) -> bytes:
    """The multipart wire as one bytes object."""
    return b"".join(iter_message_wire(envelope_wire, attachments))


def message_wire_length(
    envelope_wire: Union[str, bytes], attachments: Iterable[Attachment]
) -> int:
    """Total multipart byte count, without materialising streamed parts."""
    env_len = (
        len(envelope_wire.encode("utf-8"))
        if isinstance(envelope_wire, str)
        else len(envelope_wire)
    )
    total = len(_part_head(ROOT_CONTENT_ID, ENVELOPE_CONTENT_TYPE, env_len)) + env_len + 2
    for attachment in attachments:
        total += (
            len(_part_head(attachment.content_id, attachment.content_type, attachment.size))
            + attachment.size
            + 2
        )
    return total + len(_FINAL_BOUNDARY) + 2


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------


class _BufferSink:
    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def write(self, data: bytes) -> None:
        self._buf += data

    def close(self) -> bytes:
        return bytes(self._buf)


#: sink_factory signature: (content_id, content_type, length) -> sink or
#: None to buffer in memory.  A sink has write(bytes) and close().
SinkFactory = Callable[[str, str, int], Optional[object]]


class MultipartFeedParser:
    """Incremental decoder for the multipart container.

    Feed wire fragments of any size; each part's body bytes are pushed
    to a sink as they arrive — by default an in-memory buffer, or
    whatever *sink_factory* returns for that part (the envelope part is
    always buffered internally).  ``close()`` returns the
    ``(envelope_text, attachments)`` pair.
    """

    def __init__(self, sink_factory: Optional[SinkFactory] = None):
        self._sink_factory = sink_factory
        self._buf = bytearray()
        self._state = "boundary"
        self._header_lines: list[str] = []
        self._remaining = 0
        self._sink: Optional[object] = None
        self._external_sink = False
        self._part_meta: Optional[tuple[str, str, int]] = None
        self._envelope: Optional[str] = None
        self._attachments: list[Attachment] = []
        self._closed = False

    # ------------------------------------------------------------------
    def feed(self, data: _BytesLike) -> None:
        if self._closed:
            raise AttachmentError("feed() after close()")
        self._buf += bytes(data)
        self._pump()

    def close(self) -> tuple[str, list[Attachment]]:
        if self._closed:
            raise AttachmentError("close() called twice")
        self._closed = True
        if self._state != "done":
            raise AttachmentError(
                f"truncated multipart message (decoder in state {self._state!r})"
            )
        if self._buf.strip(b"\r\n"):
            raise AttachmentError("trailing data after final boundary")
        assert self._envelope is not None
        return self._envelope, self._attachments

    @property
    def complete(self) -> bool:
        return self._state == "done"

    # ------------------------------------------------------------------
    def _pump(self) -> None:
        buf = self._buf
        while True:
            if self._state == "boundary":
                line = self._take_line()
                if line is None:
                    return
                if line == _DASH_BOUNDARY:
                    self._state = "headers"
                    self._header_lines = []
                elif line == _FINAL_BOUNDARY:
                    if self._envelope is None:
                        raise AttachmentError("multipart message has no envelope part")
                    self._state = "done"
                else:
                    raise AttachmentError(f"bad multipart boundary line: {line!r}")
            elif self._state == "headers":
                line = self._take_line()
                if line is None:
                    return
                if line:
                    try:
                        self._header_lines.append(line.decode("ascii"))
                    except UnicodeDecodeError:
                        raise AttachmentError("non-ASCII part header") from None
                else:
                    self._begin_part()
            elif self._state == "body":
                if self._remaining:
                    take = min(len(buf), self._remaining)
                    if not take:
                        return
                    self._sink.write(bytes(buf[:take]))
                    del buf[:take]
                    self._remaining -= take
                if self._remaining:
                    return
                self._finish_part()
                self._state = "crlf"
            elif self._state == "crlf":
                if len(buf) < 2:
                    return
                if bytes(buf[:2]) != b"\r\n":
                    raise AttachmentError(
                        "part body does not end at its declared Content-Length"
                    )
                del buf[:2]
                self._state = "boundary"
            else:  # done
                return

    def _take_line(self) -> Optional[bytes]:
        idx = self._buf.find(b"\r\n")
        if idx < 0:
            return None
        line = bytes(self._buf[:idx])
        del self._buf[: idx + 2]
        return line

    def _begin_part(self) -> None:
        cid = ctype = None
        length: Optional[int] = None
        for line in self._header_lines:
            name, sep, value = line.partition(":")
            if not sep:
                raise AttachmentError(f"malformed part header: {line!r}")
            name = name.strip().lower()
            value = value.strip()
            if name == "content-id":
                cid = value
            elif name == "content-type":
                ctype = value
            elif name == "content-length":
                if not value.isdigit():
                    raise AttachmentError(f"bad part Content-Length: {value!r}")
                length = int(value)
        if cid is None or length is None:
            raise AttachmentError("part is missing Content-Id or Content-Length")
        ctype = ctype or "application/octet-stream"
        if self._envelope is None and not self._attachments:
            if cid != ROOT_CONTENT_ID:
                raise AttachmentError(
                    f"first multipart part must be the envelope, got {cid!r}"
                )
            self._sink = _BufferSink()
            self._external_sink = False
        else:
            if cid == ROOT_CONTENT_ID:
                raise AttachmentError("duplicate envelope part")
            sink = self._sink_factory(cid, ctype, length) if self._sink_factory else None
            self._external_sink = sink is not None
            self._sink = sink if sink is not None else _BufferSink()
        self._part_meta = (cid, ctype, length)
        self._remaining = length
        self._state = "body"

    def _finish_part(self) -> None:
        cid, ctype, length = self._part_meta
        result = self._sink.close()
        self._sink = None
        if cid == ROOT_CONTENT_ID:
            try:
                self._envelope = bytes(result).decode("utf-8")
            except (TypeError, UnicodeDecodeError):
                raise AttachmentError("envelope part is not valid UTF-8") from None
            return
        if not self._external_sink and isinstance(result, (bytes, bytearray)):
            attachment = Attachment(cid, bytes(result), ctype)
        else:
            attachment = Attachment(cid, content_type=ctype, size=length)
            attachment.delivered = result
        self._attachments.append(attachment)


def message_from_wire(
    data: _BytesLike, sink_factory: Optional[SinkFactory] = None
) -> tuple[str, list[Attachment]]:
    """Decode a complete multipart wire into ``(envelope_text, attachments)``."""
    parser = MultipartFeedParser(sink_factory)
    parser.feed(data)
    return parser.close()


# ----------------------------------------------------------------------
# decode-time attachment resolution
# ----------------------------------------------------------------------

_ACTIVE_ATTACHMENTS: list[dict[str, Attachment]] = []


@contextmanager
def attachment_scope(attachments: Iterable[Attachment]):
    """Make *attachments* resolvable by content-id while decoding.

    The value decoder (:func:`repro.soap.encoding.decode_value`) turns
    ``href="cid:x"`` references into the matching :class:`Attachment`
    from the innermost active scope.
    """
    _ACTIVE_ATTACHMENTS.append({a.content_id: a for a in attachments})
    try:
        yield
    finally:
        _ACTIVE_ATTACHMENTS.pop()


def resolve_attachment(content_id: str) -> Attachment:
    """The in-scope attachment for *content_id*, or a detached
    placeholder (size 0, no content) when nothing matches — liberal
    decoding for foreign stacks that strip parts."""
    for scope in reversed(_ACTIVE_ATTACHMENTS):
        found = scope.get(content_id)
        if found is not None:
            return found
    return Attachment(content_id, content_type="application/octet-stream", size=0)
