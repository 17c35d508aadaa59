"""The PipeAdvertisement ⇄ EndpointReference mapping (§IV-B).

The paper's serialisation rules, implemented verbatim:

1. The EPR ``Address`` is ``p2ps://<peer-id>/<service-name>`` — peer id
   plus the name of the ServiceAdvertisement the pipe belongs to; for a
   pipe with no service (a reply channel) just ``p2ps://<peer-id>``.
2. The EPR ``ReferenceProperties`` carry the other advert fields,
   including the pipe name (and id/type, which the advert needs to be
   reconstructible).
3. On a SOAP invocation, ``To`` ← the Address URI and ``Action`` ← the
   Address URI plus a fragment naming the pipe; the
   ReferenceProperties are copied directly into the SOAP header.
"""

from __future__ import annotations

from repro.p2ps.advertisements import AdvertError, PipeAdvertisement
from repro.wsa.epr import EndpointReference, WsaError
from repro.wsa.p2psuri import make_p2ps_uri, parse_p2ps_uri
from repro.xmlkit import ns

#: the struct of leaves every pipe EPR carries: ``p2ps:PipeId``,
#: ``p2ps:PipeName``, ``p2ps:PipeType``, each declaring its prefix
_PIPE_SHAPE = tuple(
    ((ns.P2PS, local, "p2ps"), (("p2ps", ns.P2PS),))
    for local in ("PipeId", "PipeName", "PipeType")
)


def epr_from_pipe(advert: PipeAdvertisement) -> EndpointReference:
    """Serialise a pipe advertisement to an EndpointReference (value-
    backed: no element is built unless someone reads its properties)."""
    address = make_p2ps_uri(advert.peer_id, advert.service_name)
    return EndpointReference.from_texts(
        address, _PIPE_SHAPE, [advert.pipe_id, advert.name, advert.pipe_type]
    )


def pipe_from_epr(epr: EndpointReference) -> PipeAdvertisement:
    """Reconstruct the pipe advertisement from an EndpointReference;
    a value-backed one is read without growing it."""
    address = parse_p2ps_uri(epr.address)
    pipe_id = epr.property_text("PipeId")
    pipe_name = epr.property_text("PipeName")
    pipe_type = epr.property_text("PipeType", "input")
    if not pipe_id:
        raise WsaError(f"EPR {epr.address} carries no PipeId reference property")
    try:
        return PipeAdvertisement(
            pipe_id, pipe_name, address.peer_id, pipe_type, address.service_name
        )
    except AdvertError as exc:
        raise WsaError(f"EPR does not map to a pipe: {exc}") from exc


def action_for_pipe(advert: PipeAdvertisement) -> str:
    """The wsa:Action for invoking down *advert*: address + #pipe-name."""
    return make_p2ps_uri(advert.peer_id, advert.service_name, advert.name)
