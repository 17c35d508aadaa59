"""Acknowledgement frames for one-way P2PS pipes (WS-RM-lite).

P2PS pipes are fire-and-forget: a bare ``invoke_oneway`` gives the
sender no delivery signal at all.  This module adds the minimal
WS-ReliableMessaging-style handshake on top of the existing
WS-Addressing headers:

- the sender marks the request with an ``rm:AckRequested`` header and
  supplies a ``wsa:ReplyTo`` naming its ack pipe;
- the provider, *on receipt* (before and independent of execution),
  answers with a tiny ack envelope whose ``wsa:RelatesTo`` carries the
  request's ``wsa:MessageID``;
- an ack-requested request is treated as one-way: the operation result
  is discarded rather than streamed back, so the only return traffic
  is the ack frame.

Duplicate deliveries (retransmissions) are re-acked but not
re-executed — the provider's dedup window guarantees that.
"""

from __future__ import annotations

from typing import Optional

from repro.soap.envelope import SoapEnvelope
from repro.wsa.headers import MessageAddressingProperties
from repro.xmlkit import Element, QName

#: The reliability header/body namespace (stands in for wsrm).
RM_NS = "urn:repro:reliability"
#: wsa:Action of every ack frame.
ACK_ACTION = f"{RM_NS}/ack"

_ACK_REQUESTED = QName(RM_NS, "AckRequested", "rm")
_ACKNOWLEDGEMENT = QName(RM_NS, "Acknowledgement", "rm")


def mark_ack_requested(envelope: SoapEnvelope) -> SoapEnvelope:
    """Ask the receiver to acknowledge receipt of *envelope*."""
    if envelope.header_text(_ACK_REQUESTED) is None:
        envelope.add_header(
            Element(_ACK_REQUESTED, text="1", nsdecls={"rm": RM_NS})
        )
    return envelope


def ack_requested(envelope: SoapEnvelope) -> bool:
    """Did the sender of *envelope* ask for an acknowledgement?"""
    text = envelope.header_text(_ACK_REQUESTED)
    return text is not None and text.strip() in ("1", "true")


def build_ack(message_id: str, to: str) -> SoapEnvelope:
    """The ack frame for the request identified by *message_id*.

    Correlation travels in ``wsa:RelatesTo`` (the paper's §IV-B header
    binding rule 5); the body carries a single ``rm:Acknowledgement``
    block repeating the id for handlers that never see headers.
    """
    ack = SoapEnvelope(
        body_content=Element(
            _ACKNOWLEDGEMENT, text=message_id, nsdecls={"rm": RM_NS}
        )
    )
    maps = MessageAddressingProperties(
        to=to, action=ACK_ACTION, relates_to=message_id
    )
    maps.apply_to(ack)
    return ack


def is_ack(envelope: SoapEnvelope) -> bool:
    """Is *envelope* an acknowledgement frame?"""
    return (
        envelope.body_content is not None
        and envelope.body_content.name == _ACKNOWLEDGEMENT
    )


def ack_relates_to(envelope: SoapEnvelope) -> Optional[str]:
    """The MessageID an ack frame acknowledges (None for non-acks)."""
    if not is_ack(envelope):
        return None
    try:
        maps = MessageAddressingProperties.extract_from(envelope)
    except Exception:  # noqa: BLE001 - malformed ack: fall back to body
        maps = None
    if maps is not None and maps.relates_to:
        return maps.relates_to
    body = envelope.body_content
    return (body.text or None) if body is not None else None
