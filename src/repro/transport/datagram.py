"""One-way datagram transport: fire-and-forget frames on a node port.

P2PS pipes are "generally unidirectional" (§IV-B), and this transport
sends the same kind of frame: one to the addressed node and port, with
no delivery report, so an unreachable node simply never hears the
message.  Pipes themselves do not use it: an
:class:`~repro.p2ps.pipes.OutputPipe` sends through its peer's
:class:`~repro.simnet.network.Node`, and the P2PS binding's invocation
through its :class:`~repro.p2ps.peer.Peer`.
"""

from __future__ import annotations

from typing import Optional

from repro.simnet.network import Node, NodeDownError
from repro.transport.base import ResponseCallback, ServerHandler, Transport, TransportError
from repro.transport.uri import Uri


class DatagramTransport(Transport):
    """Fire-and-forget frames addressed by ``dgram://node/port-name``."""

    scheme = "dgram"

    def __init__(self, node: Node):
        self.node = node

    def send(
        self,
        endpoint: Uri,
        body: str,
        headers: Optional[dict[str, str]] = None,
        on_response: Optional[ResponseCallback] = None,
        timeout: Optional[float] = None,
    ) -> None:
        try:
            self.node.send(endpoint.host, f"dgram:{endpoint.path}", body, **(headers or {}))
        except NodeDownError as exc:
            if on_response is not None:
                on_response(None, exc)
            return
        if on_response is not None:
            # one-way: completion means "it left the node"
            on_response(None, None)

    def listen(self, address: Uri, handler: ServerHandler) -> None:
        if not address.path:
            raise TransportError("datagram listen address needs a path (port name)")

        def on_frame(frame):  # type: ignore[no-untyped-def]
            handler(frame.payload, {str(k): str(v) for k, v in frame.meta.items()})

        self.node.open_port(f"dgram:{address.path}", on_frame)

    def stop_listening(self, address: Uri) -> None:
        self.node.close_port(f"dgram:{address.path}")
