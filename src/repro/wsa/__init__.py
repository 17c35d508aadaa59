"""WS-Addressing (March 2004 submission, as cited by the paper).

The P2PS binding's key trick (§IV-B): P2PS pipes are unidirectional, so
request/response is rebuilt by carrying the consumer's *reply pipe* in
the SOAP header as a WS-Addressing ``ReplyTo`` EndpointReference.

``epr``
    :class:`EndpointReference` — mandatory ``Address`` URI plus
    extensible ``ReferenceProperties``, with XML (de)serialisation.
``headers``
    :class:`MessageAddressingProperties` — To / Action / ReplyTo /
    MessageID / RelatesTo — and the SOAP-binding rules that turn an EPR
    into header blocks and back.
``p2psuri``
    The ``p2ps://<peer-id>/<service>#<pipe>`` URI scheme: build, parse,
    and the component-extraction rules the paper motivates.
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".epr": ("EndpointReference", "WsaError"),
    ".headers": ("MessageAddressingProperties", "new_message_id"),
    ".p2psuri": ("P2psAddress", "make_p2ps_uri", "parse_p2ps_uri"),
})
