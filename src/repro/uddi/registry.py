"""The registry core: UDDI publish + inquiry over in-memory stores.

This is the server brain; :mod:`repro.uddi.service` wraps it in SOAP.
All operations take/return plain dicts so they cross the SOAP struct
encoding unchanged.

E12 turns one registry into a *shard* of the distributed discovery
plane, which needs four things of this core:

- **Collision-free keys.**  Keys are namespaced by the registry's
  ``operator`` id, so two shards never mint the same
  ``uuid:<operator>:svc-...`` key and replicated entries keep their
  identity when copied between registries.
- **Registration leases.**  ``save_service`` accepts an optional *ttl*;
  expired entries drop out of every inquiry (the soft-state model of
  the P2PS advert cache applied to UDDI: the leases are a
  :class:`~repro.caching.SoftTable`), and a re-publish refreshes the
  lease in place.
- **Revisions.**  Every mutation of a service bumps a monotonic
  per-entry revision counter; replication and read-repair compare
  revisions instead of clocks to decide which copy is fresher.
- **Export / import.**  :meth:`export_service` emits one self-contained
  *record* (service + business + tModels + revision + remaining lease)
  that :meth:`import_service` upserts verbatim on another shard.

Exact-name inquiries are O(1) through a name index, so a shard holding
tens of thousands of services answers a keyed lookup without scanning.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.caching import SoftTable
from repro.observability import metrics as obs_metrics
from repro.uddi.model import (
    BindingTemplate,
    BusinessEntity,
    BusinessService,
    KeyedReference,
    TModel,
    UddiError,
    match_name,
)

#: leased services a shard holds; past it the oldest lease lapses early
#: (far above the E12 plane's 10 000 services)
LEASES_CAP = 1 << 16


class UddiRegistry:
    """An in-memory UDDI registry (one shard of the discovery plane).

    *operator* namespaces every minted key; *clock* (a zero-argument
    callable returning seconds) drives registration leases.  Without a
    clock the registry is timeless and leases never expire.
    """

    def __init__(self, operator: str = "repro-registry", clock=None):
        self.operator = operator
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._businesses: dict[str, BusinessEntity] = {}
        self._services: dict[str, BusinessService] = {}
        self._tmodels: dict[str, TModel] = {}
        self._tmodel_by_name: dict[str, str] = {}
        self._by_name: dict[str, set[str]] = {}  # lower name -> service keys
        self._revisions: dict[str, int] = {}  # service key -> revision
        #: service key -> the lease's end; a lapsed lease drops its service
        self._leases = SoftTable(LEASES_CAP, clock=self._now, on_evict=self._lease_lapsed)
        self._key_counter = itertools.count(1)
        self.inquiries = 0
        self.publishes = 0
        self.leases_expired = 0

    def _new_key(self, kind: str) -> str:
        return f"uuid:{self.operator}:{kind}-{next(self._key_counter):06d}"

    def _now(self) -> float:
        return self._clock()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    # each publish or inquiry counts itself and first drops lapsed leases
    def _publishing(self) -> None:
        self.publishes += 1
        obs_metrics.inc("uddi.publishes")
        self._leases.purge()

    def _inquiring(self) -> None:
        self.inquiries += 1
        obs_metrics.inc("uddi.inquiries")
        self._leases.purge()

    def _update_size_gauge(self) -> None:
        obs_metrics.set_gauge("uddi.services", len(self._services))

    def _index_service(self, service: BusinessService) -> None:
        self._by_name.setdefault(service.name.lower(), set()).add(service.key)

    def _drop_service(self, service_key: str) -> Optional[BusinessService]:
        """Remove a service and every index/lease/revision entry for it."""
        service = self._services.pop(service_key, None)
        if service is None:
            return None
        keys = self._by_name.get(service.name.lower())
        if keys is not None:
            keys.discard(service_key)
            if not keys:
                del self._by_name[service.name.lower()]
        self._revisions.pop(service_key, None)
        self._leases.pop(service_key)
        business = self._businesses.get(service.business_key)
        if business is not None and service_key in business.service_keys:
            business.service_keys.remove(service_key)
        self._update_size_gauge()
        return service

    def _lease_lapsed(self, service_key: str, _end: float) -> None:
        self._drop_service(service_key)
        self.leases_expired += 1
        obs_metrics.inc("uddi.leases_expired")

    def _set_lease(self, service_key: str, ttl: Optional[float]) -> None:
        if ttl is not None and ttl > 0:
            self._leases.put(service_key, self._now() + ttl, ttl)
        else:
            self._leases.pop(service_key)

    def _bump_revision(self, service_key: str) -> int:
        revision = self._revisions.get(service_key, 0) + 1
        self._revisions[service_key] = revision
        return revision

    def revision_of(self, service_key: str) -> int:
        return self._revisions.get(service_key, 0)

    # ------------------------------------------------------------------
    # publish API
    # ------------------------------------------------------------------
    def save_business(self, name: str, description: str = "") -> dict[str, Any]:
        self._publishing()
        business = BusinessEntity(self._new_key("biz"), name, description)
        self._businesses[business.key] = business
        return business.to_dict()

    def save_service(
        self,
        business_key: str = "",
        name: str = "",
        description: str = "",
        category_bag: Optional[list[dict]] = None,
        ttl: Optional[float] = None,
        business_name: str = "",
        access_point: str = "",
        wsdl_url: str = "",
    ) -> dict[str, Any]:
        """Create — or refresh — the service *name* of *business_key*.

        A second save of the same (business, name) updates the existing
        entry in place: the key is stable, the revision bumps, and the
        lease (when *ttl* is given) restarts from now.  That is the
        re-publish idiom periodic announcers rely on.

        The *batched* form publishes in one exchange: *business_name*
        names the business (created on first use), *access_point* its
        bindingTemplate and *wsdl_url* its wsdlSpec tModel.  The revision
        bumps once and the answer is the stored record
        (:meth:`export_service`'s form): one delta a replica imports.
        """
        self._publishing()
        categories = [KeyedReference.from_dict(k) for k in (category_bag or [])]
        if business_name and not business_key:
            found = self.find_business(business_name, max_rows=1) or [
                self.save_business(business_name)
            ]
            business_key = found[0]["businessKey"]
        business = self._businesses.get(business_key)
        if business is None:
            raise UddiError(f"unknown businessKey {business_key!r}")
        service = next(
            (self._services[key] for key in self._by_name.get(name.lower(), ())
             if self._services[key].business_key == business_key),
            None,
        )
        if service is None:
            service = BusinessService(
                self._new_key("svc"), business_key, name, description,
                category_bag=categories,
            )
            self._services[service.key] = service
            self._index_service(service)
            business.service_keys.append(service.key)
            self._update_size_gauge()
        else:
            if description:
                service.description = description
            if category_bag is not None:
                service.category_bag = categories
        if access_point:
            tmodel_keys = (
                [self._save_tmodel(f"{name}-wsdlSpec", wsdl_url, "wsdlSpec").key]
                if wsdl_url else []
            )
            self._attach(service, access_point, tmodel_keys)
        self._bump_revision(service.key)
        self._set_lease(service.key, ttl)
        if business_name or access_point:
            return self._record_for(service)
        return service.to_dict()

    def save_binding(
        self,
        service_key: str,
        access_point: str,
        tmodel_keys: Optional[list[str]] = None,
    ) -> dict[str, Any]:
        """Attach (or refresh) the binding at *access_point*.

        Re-publishing the same access point replaces its tModel list
        instead of accumulating duplicate bindingTemplates.
        """
        self._publishing()
        service = self._services.get(service_key)
        if service is None:
            raise UddiError(f"unknown serviceKey {service_key!r}")
        binding = self._attach(service, access_point, list(tmodel_keys or []))
        self._bump_revision(service_key)
        return binding.to_dict()

    def _attach(
        self, service: BusinessService, access_point: str, tmodel_keys: list[str]
    ) -> BindingTemplate:
        for binding in service.binding_templates:
            if binding.access_point == access_point:
                binding.tmodel_keys = tmodel_keys
                return binding
        binding = BindingTemplate(
            self._new_key("bind"), service.key, access_point, tmodel_keys
        )
        service.binding_templates.append(binding)
        return binding

    def save_tmodel(
        self, name: str, overview_url: str = "", description: str = ""
    ) -> dict[str, Any]:
        """Create — or update in place — the tModel called *name*."""
        self._publishing()
        return self._save_tmodel(name, overview_url, description).to_dict()

    def _save_tmodel(self, name: str, overview_url: str, description: str) -> TModel:
        existing_key = self._tmodel_by_name.get(name)
        if existing_key is not None:
            tmodel = self._tmodels[existing_key]
            if overview_url:
                tmodel.overview_url = overview_url
            if description:
                tmodel.description = description
            return tmodel
        tmodel = TModel(self._new_key("tm"), name, overview_url, description)
        self._tmodels[tmodel.key] = tmodel
        self._tmodel_by_name[name] = tmodel.key
        return tmodel

    def delete_service(
        self, service_key: str = "", name: str = "", business_name: str = ""
    ) -> bool:
        """Delete *service_key* — or, keyless, every service called
        *name* (of the businesses called *business_name*, when given).
        True when anything was removed."""
        if service_key:
            return self._drop_service(service_key) is not None
        owners = {k for k, b in self._businesses.items() if match_name(business_name, b.name)}
        doomed = [
            service.key for service in self._service_candidates(name)
            if match_name(name, service.name)
            and (not business_name or service.business_key in owners)
        ]
        for key in doomed:
            self._drop_service(key)
        return bool(doomed)

    def delete_business(self, business_key: str) -> bool:
        business = self._businesses.pop(business_key, None)
        if business is None:
            return False
        for service_key in list(business.service_keys):
            self._drop_service(service_key)
        return True

    # ------------------------------------------------------------------
    # replication API (E12)
    # ------------------------------------------------------------------
    def export_service(self, service_key: str) -> dict[str, Any]:
        """One self-contained replication record for *service_key*."""
        self._inquiring()
        service = self._services.get(service_key)
        if service is None:
            raise UddiError(f"unknown serviceKey {service_key!r}")
        return self._record_for(service)

    def _record_for(self, service: BusinessService) -> dict[str, Any]:
        business = self._businesses.get(service.business_key)
        tmodels: list[dict[str, Any]] = []
        seen: set[str] = set()
        for binding in service.binding_templates:
            for tmodel_key in binding.tmodel_keys:
                tmodel = self._tmodels.get(tmodel_key)
                if tmodel is not None and tmodel_key not in seen:
                    seen.add(tmodel_key)
                    tmodels.append(tmodel.to_dict())
        expires = self._leases.peek(service.key)
        return {
            "service": service.to_dict(),
            "business": (
                {
                    "businessKey": business.key,
                    "name": business.name,
                    "description": business.description,
                }
                if business is not None
                else {}
            ),
            "tModels": tmodels,
            "revision": self._revisions.get(service.key, 1),
            "lease": max(0.0, expires - self._now()) if expires is not None else 0.0,
        }

    def import_service(self, record: dict[str, Any]) -> bool:
        """Upsert a replication *record* verbatim (keys included).

        Freshness is decided by the record's revision counter: stale
        imports (revision lower than what this shard already holds) are
        ignored; an equal revision only refreshes the lease.  Returns
        True when the record was applied.
        """
        self._publishing()
        service = BusinessService.from_dict(record["service"])
        incoming = int(record.get("revision", 1))
        lease = float(record.get("lease", 0.0) or 0.0)
        current = self._revisions.get(service.key)
        if current is not None and service.key in self._services:
            if incoming < current:
                return False
            if incoming == current:
                self._set_lease(service.key, lease if lease > 0 else None)
                return False
        business_info = record.get("business") or {}
        business_key = business_info.get("businessKey") or service.business_key
        if business_key and business_key not in self._businesses:
            self._businesses[business_key] = BusinessEntity(
                business_key,
                business_info.get("name", ""),
                business_info.get("description", ""),
            )
        old = self._services.get(service.key)
        if old is not None:
            keys = self._by_name.get(old.name.lower())
            if keys is not None:
                keys.discard(service.key)
                if not keys:
                    del self._by_name[old.name.lower()]
        self._services[service.key] = service
        self._index_service(service)
        business = self._businesses.get(business_key)
        if business is not None and service.key not in business.service_keys:
            business.service_keys.append(service.key)
        for tmodel_dict in record.get("tModels", []):
            tmodel = TModel.from_dict(tmodel_dict)
            self._tmodels[tmodel.key] = tmodel
            self._tmodel_by_name.setdefault(tmodel.name, tmodel.key)
        self._revisions[service.key] = incoming
        self._set_lease(service.key, lease if lease > 0 else None)
        self._update_size_gauge()
        return True

    # ------------------------------------------------------------------
    # inquiry API
    # ------------------------------------------------------------------
    def find_business(
        self, name_pattern: str, max_rows: int = 0
    ) -> list[dict[str, Any]]:
        self._inquiring()
        out = [
            b.to_dict()
            for b in self._businesses.values()
            if match_name(name_pattern, b.name)
        ]
        return out[:max_rows] if max_rows > 0 else out

    def _service_candidates(self, name_pattern: str) -> list[BusinessService]:
        """Services that can match *name_pattern* (indexed when exact)."""
        if "%" not in name_pattern:
            keys = sorted(self._by_name.get(name_pattern.lower(), ()))
            return [self._services[k] for k in keys]
        return list(self._services.values())

    def find_service(
        self,
        name_pattern: str = "%",
        category_bag: Optional[list[dict]] = None,
        business_key: str = "",
        max_rows: int = 0,
    ) -> list[dict[str, Any]]:
        """Find services by name pattern and (all-of) category matches.

        ``max_rows`` > 0 truncates the result set, per the UDDI v2
        inquiry API's ``maxRows`` attribute.
        """
        return [
            service.to_dict()
            for service in self._find(name_pattern, category_bag, business_key, max_rows)
        ]

    def find_service_records(
        self,
        name_pattern: str = "%",
        category_bag: Optional[list[dict]] = None,
        business_key: str = "",
        max_rows: int = 0,
    ) -> list[dict[str, Any]]:
        """Like :meth:`find_service`, but each hit is a full replication
        record (service + business + tModels + revision + lease), so one
        round trip resolves what the classic chain needed three for."""
        return [
            self._record_for(service)
            for service in self._find(name_pattern, category_bag, business_key, max_rows)
        ]

    def _find(
        self,
        name_pattern: str,
        category_bag: Optional[list[dict]],
        business_key: str,
        max_rows: int,
    ) -> list[BusinessService]:
        self._inquiring()
        exact = "%" not in name_pattern
        wanted = [KeyedReference.from_dict(k) for k in (category_bag or [])]
        out: list[BusinessService] = []
        for service in self._service_candidates(name_pattern):
            if business_key and service.business_key != business_key:
                continue
            if not exact and not match_name(name_pattern, service.name):
                continue
            if wanted and not all(ref in service.category_bag for ref in wanted):
                continue
            out.append(service)
            if max_rows > 0 and len(out) >= max_rows:
                break
        return out

    def get_service_detail(self, service_key: str) -> dict[str, Any]:
        self._inquiring()
        service = self._services.get(service_key)
        if service is None:
            raise UddiError(f"unknown serviceKey {service_key!r}")
        return service.to_dict()

    def get_business_detail(self, business_key: str) -> dict[str, Any]:
        self._inquiring()
        business = self._businesses.get(business_key)
        if business is None:
            raise UddiError(f"unknown businessKey {business_key!r}")
        return business.to_dict()

    def get_tmodel_detail(self, tmodel_key: str) -> dict[str, Any]:
        self._inquiring()
        tmodel = self._tmodels.get(tmodel_key)
        if tmodel is None:
            raise UddiError(f"unknown tModelKey {tmodel_key!r}")
        return tmodel.to_dict()

    def find_tmodel(self, name_pattern: str, max_rows: int = 0) -> list[dict[str, Any]]:
        self._inquiring()
        out = [
            t.to_dict() for t in self._tmodels.values() if match_name(name_pattern, t.name)
        ]
        return out[:max_rows] if max_rows > 0 else out

    # ------------------------------------------------------------------
    @property
    def service_count(self) -> int:
        self._leases.purge()
        return len(self._services)

    @property
    def business_count(self) -> int:
        return len(self._businesses)
