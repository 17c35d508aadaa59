"""UDDI v2 — the standard binding's discovery substrate.

The paper's standard implementation "searches user defined UDDI
registries for services" and its ServicePublisher "publishes services
to UDDI registries" (§IV-A).  This package supplies that registry:

``model``
    The UDDI data structures: businessEntity, businessService,
    bindingTemplate, tModel, keyed references (category bags).
``registry``
    The in-memory registry core with UDDI's publish and inquiry
    operations (``find_service`` name patterns with ``%`` wildcards,
    category matching, detail fetches).
``service`` / ``client``
    The registry exposed as a SOAP service on a network node, and the
    client proxy WSPeer's UDDI-conversant locator/publisher use.

Simplification vs. the UDDI v2 XML API (documented in DESIGN.md): the
inquiry/publish messages ride this stack's own SOAP RPC conventions
rather than the ``urn:uddi-org:api_v2`` message schemas; the data
model, key discipline and query semantics follow UDDI.
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".model": (
        "BindingTemplate", "BusinessEntity", "BusinessService", "KeyedReference",
        "TModel", "UddiError",
    ),
    ".registry": ("UddiRegistry",),
    ".service": ("UDDI_SERVICE_NAME", "UddiRegistryNode"),
    ".client": ("UddiClient",),
})
