"""SOAP faults: the error half of the message model."""

from __future__ import annotations

from enum import Enum
from typing import Optional

from repro.xmlkit import Element, QName, ns


class FaultCode(Enum):
    """SOAP 1.1 fault codes (env namespace qualified on the wire)."""

    VERSION_MISMATCH = "VersionMismatch"
    MUST_UNDERSTAND = "MustUnderstand"
    CLIENT = "Client"
    SERVER = "Server"


class SoapFault(Exception):
    """A SOAP fault, usable as a Python exception and as wire content.

    ``detail`` is an optional :class:`Element` carried verbatim in the
    fault's ``<detail>`` wrapper.  ``subcode`` is a dotted suffix on
    the faultcode QName (SOAP 1.1 style, e.g. ``Server.Busy``).
    """

    def __init__(
        self,
        code: FaultCode,
        message: str,
        actor: str = "",
        detail: Optional[Element] = None,
        subcode: str = "",
    ):
        super().__init__(message)
        self.code = code
        self.message = message
        self.actor = actor
        self.detail = detail
        self.subcode = subcode

    @property
    def code_text(self) -> str:
        return self.code.value + (f".{self.subcode}" if self.subcode else "")

    def to_element(self) -> Element:
        fault = Element(QName(ns.SOAP_ENV, "Fault", "soapenv"))
        # faultcode is an env-qualified QName in text content
        fault.add("faultcode", f"soapenv:{self.code_text}")
        fault.add("faultstring", self.message)
        if self.actor:
            fault.add("faultactor", self.actor)
        if self.detail is not None:
            wrapper = fault.add("detail")
            wrapper.append(self.detail.copy())
        return fault

    @classmethod
    def from_element(cls, elem: Element) -> "SoapFault":
        code_text = elem.find_text("faultcode", "Server")
        _, _, local = code_text.rpartition(":")
        local, _, subcode = local.partition(".")
        try:
            code = FaultCode(local)
        except ValueError:
            code = FaultCode.SERVER
        message = elem.find_text("faultstring", "")
        actor = elem.find_text("faultactor", "")
        detail_wrapper = elem.find("detail")
        detail = None
        if detail_wrapper is not None and detail_wrapper.children:
            detail = detail_wrapper.children[0].copy()
        if code is FaultCode.SERVER and subcode == ServerBusyFault.SUBCODE:
            return ServerBusyFault.from_parts(message, actor, detail)
        if code is FaultCode.SERVER and subcode == ReplicaLagFault.SUBCODE:
            return ReplicaLagFault.from_parts(message, actor, detail)
        return cls(code, message, actor, detail, subcode=subcode)

    def __repr__(self) -> str:
        return f"<SoapFault {self.code_text}: {self.message!r}>"


class ServerBusyFault(SoapFault):
    """``Server.Busy``: the provider shed this request under load.

    Carries a retry-after hint (seconds, virtual time) in the fault
    detail, so a client may back off and retransmit — or fail over to
    another endpoint of the same service.  Crucially the provider did
    *not* execute the operation, which makes a busy answer always safe
    to retry, unlike an ordinary ``Server`` fault.
    """

    SUBCODE = "Busy"
    _RETRY_AFTER = QName(ns.WSPEER, "RetryAfter", "wsp")

    def __init__(
        self,
        message: str = "service is at capacity",
        retry_after: float = 0.0,
        actor: str = "",
    ):
        detail = Element(
            self._RETRY_AFTER,
            text=f"{max(0.0, retry_after):g}",
            nsdecls={"wsp": ns.WSPEER},
        )
        super().__init__(
            FaultCode.SERVER, message, actor, detail, subcode=self.SUBCODE
        )
        self.retry_after = max(0.0, retry_after)

    @classmethod
    def from_parts(
        cls, message: str, actor: str, detail: Optional[Element]
    ) -> "ServerBusyFault":
        retry_after = 0.0
        if detail is not None and detail.name.local == "RetryAfter":
            try:
                retry_after = float(detail.text)
            except (TypeError, ValueError):
                retry_after = 0.0
        return cls(message or "service is at capacity", retry_after, actor)

    def __repr__(self) -> str:
        return f"<ServerBusyFault retry_after={self.retry_after:g}s>"


class ReplicaLagFault(SoapFault):
    """``Server.ReplicaLag``: this replica is behind on the session.

    Answered by a replication member that knows it has a gap in the
    session's delta stream — serving the call would risk a lost update,
    and executing it would fork the sequence numbering.  Like
    ``Server.Busy`` the member did *not* execute, so the fault is
    always safe to retry; unlike Busy it is a *failover* signal first
    (another member holds the missing history) and a backoff signal
    second.  Carries how many deltas behind and a retry-after hint in
    the detail, so both survive the wire round-trip.
    """

    SUBCODE = "ReplicaLag"
    _DETAIL = QName(ns.WSPEER, "ReplicaLag", "wsp")

    def __init__(
        self,
        message: str = "replica is behind on this session",
        behind_by: int = 0,
        retry_after: float = 0.0,
        actor: str = "",
    ):
        detail = Element(self._DETAIL, nsdecls={"wsp": ns.WSPEER})
        detail.add("BehindBy", str(max(0, int(behind_by))))
        detail.add("RetryAfter", f"{max(0.0, retry_after):g}")
        super().__init__(
            FaultCode.SERVER, message, actor, detail, subcode=self.SUBCODE
        )
        self.behind_by = max(0, int(behind_by))
        self.retry_after = max(0.0, retry_after)

    @classmethod
    def from_parts(
        cls, message: str, actor: str, detail: Optional[Element]
    ) -> "ReplicaLagFault":
        behind_by = 0
        retry_after = 0.0
        if detail is not None and detail.name.local == "ReplicaLag":
            try:
                behind_by = int(detail.find_text("BehindBy", "0"))
            except (TypeError, ValueError):
                behind_by = 0
            try:
                retry_after = float(detail.find_text("RetryAfter", "0"))
            except (TypeError, ValueError):
                retry_after = 0.0
        return cls(
            message or "replica is behind on this session",
            behind_by,
            retry_after,
            actor,
        )

    def __repr__(self) -> str:
        return (
            f"<ReplicaLagFault behind_by={self.behind_by} "
            f"retry_after={self.retry_after:g}s>"
        )
