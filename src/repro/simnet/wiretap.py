"""Wiretap: capture and render the conversations on the simulated wire.

Attach a :class:`Wiretap` to a network and every frame is recorded and
*classified* — SOAP requests/responses (with operation names), HTTP
requests/responses (with method/path/status), P2PS protocol messages
(advert/query/response), pipe traffic — then rendered as a text
sequence diagram.  The debugging companion to the event model: events
show what components did, the wiretap shows what actually crossed the
wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.simnet.network import Frame, Network


def payload_text(frame_or_payload) -> str:
    """A text view of a frame's payload, whatever its wire type.

    E16 frames carry ``bytes``; older flows carry ``str``.  Predicates
    that grep the wire (crash-harness triggers, frame-cost policies)
    should match through this instead of assuming text.
    """
    payload = getattr(frame_or_payload, "payload", frame_or_payload)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return bytes(payload).decode("utf-8", "replace")
    return payload


@dataclass
class TapRecord:
    time: float
    src: str
    dst: str
    port: str
    size: int
    summary: str


def classify(frame: Frame) -> str:
    """One-line, human-readable description of a frame's payload."""
    payload = frame.payload
    if isinstance(payload, (bytes, bytearray, memoryview)):
        # E16 byte wires: chunk frames are opaque slices; whole byte
        # messages get classified from a best-effort text view
        if frame.meta.get("kind") == "chunk":
            return f"chunk {frame.meta.get('idx')} ({len(payload)}B) on {frame.port}"
        payload = bytes(payload).decode("utf-8", "replace")
    if payload.startswith(("POST ", "GET ", "PUT ", "DELETE ")):
        request_line = payload.split("\r\n", 1)[0]
        parts = request_line.split(" ")
        summary = f"HTTP {parts[0]} {parts[1]}" if len(parts) >= 2 else "HTTP request"
        if "<?xml" in payload and "Envelope" in payload:
            operation = _soap_operation(payload)
            if operation:
                summary += f" [SOAP {operation}]"
        return summary
    if payload.startswith("HTTP/"):
        status_line = payload.split("\r\n", 1)[0]
        parts = status_line.split(" ")
        summary = f"HTTP {parts[1]}" if len(parts) >= 2 else "HTTP response"
        if "Envelope" in payload:
            operation = _soap_operation(payload)
            if operation:
                summary += f" [SOAP {operation}]"
        return summary
    if "Envelope" in payload and ("soap" in payload or "Envelope" in payload):
        operation = _soap_operation(payload)
        if operation:
            return f"SOAP {operation}"
        if frame.port.startswith("pipe:"):
            return "SOAP (header-only)"
    if "<p2ps:Message" in payload or "Message" in payload and "p2ps" in payload:
        for kind in ("advert", "query", "response", "hello"):
            if f'type="{kind}"' in payload:
                return f"P2PS {kind}"
        return "P2PS message"
    if frame.port.startswith("pipe:"):
        if payload.startswith("<?xml") and "definitions" in payload:
            return "WSDL document"
        return "pipe data"
    return f"{len(payload)}B on {frame.port}"


def _soap_operation(payload: str) -> Optional[str]:
    """Best-effort extraction of the RPC operation from envelope text."""
    marker = "Body>"
    at = payload.find(marker)
    if at < 0:
        return None
    rest = payload[at + len(marker):]
    start = rest.find("<")
    if start < 0:
        return None
    end_candidates = [i for i in (rest.find(" ", start), rest.find(">", start)) if i > 0]
    if not end_candidates:
        return None
    tag = rest[start + 1 : min(end_candidates)]
    if tag.startswith("/"):
        return None
    _, _, local = tag.rpartition(":")
    return local or None


class Wiretap:
    """Records (and can pretty-print) every frame the network delivers."""

    def __init__(self, network: Network, max_records: int = 10_000):
        self.network = network
        self.max_records = max_records
        self.records: list[TapRecord] = []
        network.add_delivery_hook(self._hook)

    def _hook(self, frame: Frame) -> bool:
        if len(self.records) < self.max_records:
            self.records.append(
                TapRecord(
                    self.network.kernel.now,
                    frame.src,
                    frame.dst,
                    frame.port,
                    frame.size,
                    classify(frame),
                )
            )
        return True  # observe only, never drop

    def detach(self) -> None:
        self.network.remove_delivery_hook(self._hook)

    # ------------------------------------------------------------------
    def between(self, a: str, b: str) -> list[TapRecord]:
        """Frames exchanged between nodes *a* and *b*, either direction."""
        return [
            r for r in self.records
            if (r.src == a and r.dst == b) or (r.src == b and r.dst == a)
        ]

    def render_sequence(self, limit: int = 40) -> str:
        """An ASCII sequence diagram of the captured conversation."""
        lines = []
        for record in self.records[:limit]:
            arrow = f"{record.src} -> {record.dst}"
            lines.append(
                f"{record.time * 1000:9.2f}ms  {arrow:<28s} {record.summary}"
                f"  ({record.size}B)"
            )
        if len(self.records) > limit:
            lines.append(f"... and {len(self.records) - limit} more frames")
        return "\n".join(lines)

    def summary_counts(self) -> dict[str, int]:
        """Tally of frame classifications."""
        counts: dict[str, int] = {}
        for record in self.records:
            key = record.summary.split(" [")[0]
            counts[key] = counts.get(key, 0) + 1
        return counts

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)
