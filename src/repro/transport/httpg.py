"""HTTPG — the authenticated transport.

The paper's standard implementation supports "HTTPG (the transport used
by Globus for authenticated communication)".  Globus HTTPG wraps HTTP
in GSI mutual authentication; we reproduce the *protocol-visible*
behaviour: both ends hold credentials issued by a common
:class:`CertificateAuthority`, every request carries the caller's
credential token, and the listener verifies it (and, for mutual auth,
answers with its own).  Requests with missing/forged/expired
credentials are refused with 401 before any handler runs.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Optional

from repro.simnet.network import Node
from repro.transport.base import TransportError
from repro.transport.http import (
    DEFAULT_HTTPG_PORT,
    HttpRequest,
    HttpResponse,
    HttpTransport,
)


class AuthenticationError(TransportError):
    """Credential missing, unknown, forged or expired."""


@dataclass(frozen=True)
class Credential:
    """An identity signed by a CA.

    ``token`` is the CA's signature over (subject, serial, expiry); the
    verifier recomputes it, so tampering with any field invalidates the
    credential — a faithful miniature of certificate signatures.
    """

    subject: str
    serial: int
    expires_at: float
    token: str

    def header_value(self) -> str:
        return f"{self.subject};{self.serial};{self.expires_at};{self.token}"

    @classmethod
    def from_header_value(cls, text: str) -> "Credential":
        parts = text.split(";")
        if len(parts) != 4:
            raise AuthenticationError("malformed credential header")
        try:
            return cls(parts[0], int(parts[1]), float(parts[2]), parts[3])
        except ValueError:
            raise AuthenticationError("malformed credential fields") from None


class CertificateAuthority:
    """Issues and verifies credentials with an HMAC-like keyed digest."""

    def __init__(self, name: str = "repro-ca", secret: str = "ca-secret"):
        self.name = name
        self._secret = secret
        self._serials = itertools.count(1)
        self._revoked: set[int] = set()

    def _sign(self, subject: str, serial: int, expires_at: float) -> str:
        material = f"{self._secret}|{subject}|{serial}|{expires_at}"
        return hashlib.sha256(material.encode()).hexdigest()[:32]

    def issue(self, subject: str, expires_at: float = float("inf")) -> Credential:
        serial = next(self._serials)
        return Credential(subject, serial, expires_at, self._sign(subject, serial, expires_at))

    def revoke(self, credential: Credential) -> None:
        self._revoked.add(credential.serial)

    def verify(self, credential: Credential, now: float) -> None:
        """Raise :class:`AuthenticationError` unless valid at time *now*."""
        if credential.serial in self._revoked:
            raise AuthenticationError(f"credential {credential.serial} revoked")
        if credential.expires_at < now:
            raise AuthenticationError(f"credential for {credential.subject} expired")
        expected = self._sign(credential.subject, credential.serial, credential.expires_at)
        if expected != credential.token:
            raise AuthenticationError("credential signature mismatch")


class HttpgTransport(HttpTransport):
    """Authenticated request/response transport (Globus HTTPG analogue):
    :class:`~repro.transport.http.HttpTransport` plus a credential on
    every request and — for mutual authentication — on every answer."""

    scheme = "httpg"
    default_port = DEFAULT_HTTPG_PORT

    CRED_HEADER = "X-Globus-Credential"
    PEER_CRED_HEADER = "X-Globus-Peer-Credential"

    def __init__(
        self,
        node: Node,
        ca: CertificateAuthority,
        credential: Credential,
        mutual: bool = True,
        pool=None,
    ):
        super().__init__(node, pool=pool)
        self.ca = ca
        self.credential = credential
        self.mutual = mutual
        self.auth_failures = 0

    def _verify(self, header_value: str) -> None:
        self.ca.verify(
            Credential.from_header_value(header_value), self.node.network.now
        )

    def _outgoing_request(self, request: HttpRequest) -> None:
        request.headers[self.CRED_HEADER] = self.credential.header_value()

    def _refused_response(self, response: HttpResponse) -> Optional[Exception]:
        if response.status == 401:
            return AuthenticationError(response.body)
        if not self.mutual:
            return None
        peer = response.headers.get(self.PEER_CRED_HEADER)
        if peer is None:
            return AuthenticationError("server did not authenticate")
        try:
            self._verify(peer)
        except AuthenticationError as exc:
            return exc
        return None

    def _refused_request(self, request: HttpRequest) -> Optional[HttpResponse]:
        cred_text = request.headers.get(self.CRED_HEADER)
        try:
            if cred_text is None:
                raise AuthenticationError("no credential presented")
            self._verify(cred_text)
        except AuthenticationError as exc:
            self.auth_failures += 1
            return HttpResponse(401, str(exc))
        return None

    def _outgoing_response(self, headers: dict[str, str]) -> None:
        headers[self.PEER_CRED_HEADER] = self.credential.header_value()
