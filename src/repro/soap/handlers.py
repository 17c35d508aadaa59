"""The handler-chain message pipeline (the Axis architecture).

A message travels through an ordered chain of handlers on its way in
(request flow) and again on its way out (response flow).  Handlers see
a shared :class:`MessageContext` and may transform the envelopes, set
properties, or fault out of the pipeline.  WSPeer's "application sees
every request and response either side of the messaging engine" hook is
implemented as handlers at the outermost positions of the chain.
"""

from __future__ import annotations

import abc
from enum import Enum, auto
from typing import Any, Optional

from repro.soap.envelope import SoapEnvelope
from repro.soap.faults import FaultCode, SoapFault


class Direction(Enum):
    REQUEST = auto()
    RESPONSE = auto()


class MessageContext:
    """Mutable state shared by every stage processing one exchange.

    The handler chain reads ``request`` / ``response``; the hosting
    pipeline (:mod:`repro.core.hosting`) additionally carries the
    request's addressing properties — read once — and the one encoded
    answer that is both retained for duplicate suppression and shipped.
    """

    def __init__(
        self,
        request: Optional[SoapEnvelope],
        service_name: str = "",
        operation: str = "",
    ):
        self.request = request
        self.response: Optional[SoapEnvelope] = None
        self.service_name = service_name
        self.operation = operation
        self.direction = Direction.REQUEST
        self.properties: dict[str, Any] = {}
        #: the request's MessageAddressingProperties (None: unaddressed)
        self.maps = None
        self.message_id: Optional[str] = None
        #: addressing properties the binding wants stamped on the answer
        self.reply_maps = None
        #: where the answer is still owed, and the binding's
        #: ``send(epr, wire)`` to get it there; both None when it returns
        #: on the open connection (or nothing returns at all)
        self.reply_to = None
        self.send = None
        #: the encoded answer (text, or multipart bytes) and its fault bit
        self.wire = None
        self.fault = False

    @property
    def current(self) -> Optional[SoapEnvelope]:
        """The envelope relevant to the current direction."""
        return self.request if self.direction is Direction.REQUEST else self.response

    def __repr__(self) -> str:
        return (
            f"<MessageContext {self.service_name}/{self.operation} "
            f"{self.direction.name.lower()}>"
        )


class Handler(abc.ABC):
    """One stage in the pipeline."""

    name = "handler"

    @abc.abstractmethod
    def invoke(self, context: MessageContext) -> None:
        """Process *context* in its current direction.

        Raise :class:`SoapFault` to abort; the chain converts it into a
        fault response and unwinds through already-invoked handlers'
        :meth:`on_fault`.
        """

    def on_fault(self, context: MessageContext, fault: SoapFault) -> None:
        """Called in reverse order when a later handler faulted."""


class MustUnderstandHandler(Handler):
    """Rejects requests carrying mustUnderstand headers nobody claims.

    The understood set is the union of namespaces registered by the
    other pipeline participants (e.g. the WS-Addressing handler
    registers the WSA namespace).
    """

    name = "must-understand"

    def __init__(self, understood_namespaces: Optional[set[str]] = None):
        self.understood: set[str] = set(understood_namespaces or ())

    def add_understood(self, uri: str) -> None:
        self.understood.add(uri)

    def invoke(self, context: MessageContext) -> None:
        if context.direction is not Direction.REQUEST:
            return
        # the marked names come straight off a skeleton's plans: the
        # blocks grow only if someone else reads them
        for name in context.request.must_understand():
            if name.uri not in self.understood:
                raise SoapFault(
                    FaultCode.MUST_UNDERSTAND,
                    f"header {name} carries mustUnderstand "
                    "but is not understood by this node",
                )


class CallbackHandler(Handler):
    """Adapts a plain callable into a Handler (for app-level hooks)."""

    def __init__(self, fn, name: str = "callback"):  # type: ignore[no-untyped-def]
        self.fn = fn
        self.name = name

    def invoke(self, context: MessageContext) -> None:
        self.fn(context)


class HandlerChain:
    """Ordered pipeline executed around a service invocation."""

    def __init__(self, handlers: Optional[list[Handler]] = None):
        self.handlers: list[Handler] = list(handlers or [])

    def append(self, handler: Handler) -> None:
        self.handlers.append(handler)

    def prepend(self, handler: Handler) -> None:
        self.handlers.insert(0, handler)

    def remove(self, handler: Handler) -> None:
        self.handlers.remove(handler)

    def run(self, context: MessageContext, service) -> SoapEnvelope:  # type: ignore[no-untyped-def]
        """Run request flow → *service(context)* → response flow.

        *service* is a callable producing the response
        :class:`SoapEnvelope` from the context.  Any
        :class:`SoapFault` raised anywhere becomes a fault envelope;
        unexpected exceptions become Server faults.
        """
        invoked: list[Handler] = []
        try:
            context.direction = Direction.REQUEST
            for handler in self.handlers:
                handler.invoke(context)
                invoked.append(handler)
            context.response = service(context)
            context.direction = Direction.RESPONSE
            for handler in reversed(self.handlers):
                handler.invoke(context)
            assert context.response is not None
            return context.response
        except Exception as exc:  # noqa: BLE001 - engine boundary
            fault = (
                exc if isinstance(exc, SoapFault)
                else SoapFault(FaultCode.SERVER, f"{type(exc).__name__}: {exc}")
            )
            for handler in reversed(invoked):
                handler.on_fault(context, fault)
            context.response = SoapEnvelope.for_fault(fault)
            return context.response
