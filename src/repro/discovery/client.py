"""DiscoveryClient — sharded, replicated, cached UDDI access.

One client object per peer.  It owns the consistent-hash ring over the
registry shards, a :class:`~repro.discovery.cache.RendezvousCache`, and
(optionally) the peer's gossip agent, and it implements the plane's
three verbs:

``publish``
    Routes to the service's replica set (primary first, failing over to
    the next replica when the primary is unreachable), replicates the
    resulting record to the remaining replicas, and gossips an
    announcement whose freshness counter is the registry revision.

``resolve``
    Cache first; on a miss, queries all R replicas of the home shard at
    once, merges replies by revision, read-repairs stale or missing
    replicas in the background, fetches WSDL, and caches the result.
    Wildcard patterns scatter to every shard instead (no single shard
    owns a pattern).  One event-driven path, ``resolve_async``; the
    blocking ``resolve`` pumps virtual time over it.

``withdraw``
    Deletes from every replica and gossips a tombstone.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from repro.discovery.cache import RendezvousCache
from repro.discovery.gossip import GossipNode
from repro.discovery.ring import HashRing
from repro.observability import metrics as obs_metrics
from repro.simnet.network import Node
from repro.transport.base import TransportError
from repro.transport.http import HttpClient, HttpRequest
from repro.transport.uri import Uri
from repro.uddi.client import UddiClient

EventHook = Callable[..., None]


class DiscoveryError(Exception):
    """The plane could not serve a request (all replicas unreachable)."""


class ResolvedService:
    """One provider of a service name, fully resolved."""

    __slots__ = ("name", "service_key", "endpoints", "wsdl_text", "revision", "from_cache")

    def __init__(self, name, service_key, endpoints, wsdl_text, revision, from_cache):
        self.name = name
        self.service_key = service_key
        self.endpoints = list(endpoints)
        self.wsdl_text = wsdl_text
        self.revision = revision
        self.from_cache = from_cache

    def __repr__(self) -> str:
        via = "cache" if self.from_cache else "registry"
        return f"<ResolvedService {self.name} rev={self.revision} via {via}>"


class DiscoveryClient:
    """A peer's window onto the discovery plane."""

    def __init__(
        self,
        node: Node,
        registry_uris: dict[str, str],
        replication: int = 2,
        cache: Optional[RendezvousCache] = None,
        gossip: Optional[GossipNode] = None,
        timeout: float = 30.0,
        pool=None,
    ):
        self.node = node
        self.registry_uris = dict(registry_uris)
        self.replication = max(1, replication)
        self.ring = HashRing(self.registry_uris)
        self.cache = cache if cache is not None else RendezvousCache(
            lambda: node.network.kernel.now
        )
        self.gossip = gossip
        if gossip is not None:
            gossip.add_listener(self.cache.on_announcement)
        #: every shard's UDDI client shares this client's pool (*pool*:
        #: see :class:`~repro.transport.http.HttpClient`)
        self.http = HttpClient(node, timeout, pool=pool)
        self._clients: dict[str, UddiClient] = {}
        self._timeout = timeout
        #: set by the locator facade so plane activity lands in the
        #: discovery event stream / trace like every other locator's
        self.on_event: Optional[EventHook] = None

    def _emit(self, kind: str, **fields: Any) -> None:
        if self.on_event is not None:
            self.on_event(kind, **fields)

    def _client(self, shard: str) -> UddiClient:
        client = self._clients.get(shard)
        if client is None:
            client = UddiClient(
                self.node, self.registry_uris[shard], self._timeout, pool=self.http.pool
            )
            self._clients[shard] = client
        return client

    def replicas_for(self, service_name: str) -> list[str]:
        """The replica set (shard ids, primary first) owning *service_name*."""
        return self.ring.nodes_for(service_name, self.replication)

    # ------------------------------------------------------------------
    # publish
    # ------------------------------------------------------------------
    def publish(
        self,
        business_name: str,
        service_name: str,
        access_point: str,
        wsdl_url: str = "",
        description: str = "",
        categories: Optional[list[dict]] = None,
        ttl: Optional[float] = None,
    ) -> dict[str, Any]:
        """Publish to the home shard, replicate, announce.

        The first reachable replica acts as primary (so a dead shard
        never blocks publication); the record its one batched save
        answers with — a single revision — is imported verbatim by the
        surviving replicas.
        """
        replicas = self.replicas_for(service_name)
        obs_metrics.inc("discovery.publishes")
        record: Optional[dict[str, Any]] = None
        acting_primary: Optional[str] = None
        last_error: Optional[Exception] = None
        for shard in replicas:
            try:
                record = self._client(shard).publish_service(
                    business_name,
                    service_name,
                    access_point,
                    wsdl_url=wsdl_url,
                    description=description,
                    categories=categories,
                    ttl=ttl,
                )
                acting_primary = shard
                break
            except TransportError as exc:
                last_error = exc
                obs_metrics.inc("discovery.publish_failovers")
                continue
        if record is None or acting_primary is None:
            raise DiscoveryError(
                f"no replica of {service_name!r} reachable: {last_error}"
            )
        for shard in replicas:
            if shard == acting_primary:
                continue
            try:
                self._client(shard).import_service(record)
            except TransportError:
                pass  # a dead replica catches up via read-repair later
        if self.gossip is not None:
            service = record["service"]
            self.gossip.announce(
                service_name,
                [b["accessPoint"] for b in service.get("bindingTemplates", [])],
                service_key=service["serviceKey"],
                wsdl_url=wsdl_url,
                seq=int(record.get("revision", 1)),
            )
        return record

    def withdraw(self, service_name: str) -> int:
        """Delete *service_name* from every replica (one exchange each);
        gossip a tombstone.  Returns how many replicas held it."""
        removed = 0
        for shard in self.replicas_for(service_name):
            try:
                removed += self._client(shard).call("delete_service", name=service_name)
            except TransportError:
                continue
        self.cache.invalidate(service_name)
        if self.gossip is not None:
            self.gossip.withdraw(service_name)
        return removed

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def lookup_records(
        self,
        name_pattern: str,
        categories: Optional[list[dict]] = None,
        max_rows: int = 0,
    ) -> list[dict[str, Any]]:
        """Replication records for *name_pattern*, replica-merged (a
        blocking :meth:`_lookup_async`)."""
        return self.node.network.kernel.wait(
            lambda done: self._lookup_async(name_pattern, categories, done, max_rows)
        )

    def _lookup_async(
        self,
        name_pattern: str,
        categories: Optional[list[dict]],
        callback: Callable[[Optional[list[dict[str, Any]]], Optional[Exception]], None],
        max_rows: int = 0,
    ) -> None:
        """Ask every shard that may hold *name_pattern* at once; merge.

        Exact names ask the home shard's replica set and read-repair
        divergent replies in the background; wildcard patterns scatter
        to every shard (no single shard owns a pattern).
        """
        obs_metrics.inc("discovery.lookups")
        wildcard = "%" in name_pattern
        shards = self.ring.nodes if wildcard else self.replicas_for(name_pattern)
        replies: dict[str, list[dict[str, Any]]] = {}
        state: dict[str, Any] = {"outstanding": len(shards), "error": None}

        def on_records(shard: str, records, error) -> None:
            if error is None:
                replies[shard] = records
            else:
                state["error"] = error
            state["outstanding"] -= 1
            if state["outstanding"]:
                return
            if not replies:
                callback(None, DiscoveryError(
                    f"no registry shard reachable for {name_pattern!r}" if wildcard
                    else f"no replica of {name_pattern!r} reachable: {state['error']}"
                ))
                return
            merged = self._merge(replies)
            if not wildcard:
                self._read_repair(name_pattern, replies, merged)
            callback(list(merged.values()), None)

        for shard in shards:
            self._client(shard).call_async(
                "find_service_records",
                partial(on_records, shard),
                name_pattern=name_pattern,
                category_bag=categories or [],
                max_rows=max_rows,
            )

    @staticmethod
    def _merge(
        replies: dict[str, list[dict[str, Any]]]
    ) -> dict[str, dict[str, Any]]:
        """serviceKey -> freshest record across all replying shards."""
        merged: dict[str, dict[str, Any]] = {}
        for records in replies.values():
            for record in records:
                key = record["service"]["serviceKey"]
                held = merged.get(key)
                if held is None or int(record.get("revision", 0)) > int(
                    held.get("revision", 0)
                ):
                    merged[key] = record
        return merged

    def _read_repair(
        self,
        service_name: str,
        replies: dict[str, list[dict[str, Any]]],
        merged: dict[str, dict[str, Any]],
    ) -> None:
        """Write the freshest record back to stale or missing replicas,
        in the background: the lookup's answer does not wait on it."""
        for shard, records in replies.items():
            held = {
                r["service"]["serviceKey"]: int(r.get("revision", 0)) for r in records
            }
            for key, record in merged.items():
                if held.get(key, -1) >= int(record.get("revision", 0)):
                    continue
                obs_metrics.inc("discovery.read_repairs")
                self._emit(
                    "read-repair", service=service_name, shard=shard,
                    revision=int(record.get("revision", 0)),
                )
                self._client(shard).call_async(
                    "import_service", lambda result, error: None, record=record
                )

    # ------------------------------------------------------------------
    # resolve (records + WSDL + cache)
    # ------------------------------------------------------------------
    def resolve(
        self, service_name: str, categories: Optional[list[dict]] = None
    ) -> list[ResolvedService]:
        """Blocking :meth:`resolve_async`."""
        return self.node.network.kernel.wait(
            lambda done: self.resolve_async(service_name, done, categories)
        )

    def resolve_async(
        self,
        service_name: str,
        callback: Callable[[list[ResolvedService], Optional[Exception]], None],
        categories: Optional[list[dict]] = None,
    ) -> None:
        """Fully resolve *service_name*: endpoints + WSDL text.

        Exact, uncategorised names are answered from the rendezvous
        cache when possible — zero network frames, completing via
        ``kernel.call_soon`` (never re-entrantly under the caller) — and
        cached once resolved.  Otherwise the records are looked up
        (:meth:`_lookup_async`), and every provider's WSDL is fetched at
        once; a record with no WSDL location resolves with no WSDL text,
        and one whose fetch fails is dropped.
        """
        cacheable = "%" not in service_name and not categories
        cached = self.cache.get(service_name) if cacheable else None
        if cached is not None:
            self._emit("cache-hit", service=service_name, providers=len(cached))
            items = [
                ResolvedService(
                    service_name, c.service_key, c.endpoints, c.wsdl_text,
                    c.revision, True,
                )
                for c in cached
            ]
            self.node.network.kernel.call_soon(callback, items, None)
            return

        def on_records(records, error) -> None:
            if error is not None:
                callback([], error)
                return
            fetches: list[tuple[ResolvedService, str]] = []
            for record in self._dedupe(records):
                service = record["service"]
                endpoints = [b["accessPoint"] for b in service.get("bindingTemplates", [])]
                if endpoints:
                    wsdl_url = next((t["overviewURL"] for t in record.get("tModels", [])
                                     if t.get("overviewURL")), "")
                    fetches.append((ResolvedService(
                        service["name"], service["serviceKey"], endpoints, "",
                        int(record.get("revision", 0)), False,
                    ), wsdl_url))
            state = {"outstanding": len(fetches) + 1}  # +1: this listing

            def settle() -> None:
                state["outstanding"] -= 1
                if state["outstanding"]:
                    return
                items = [item for item, _ in fetches if item.wsdl_text is not None]
                if cacheable:
                    for item in items:
                        self.cache.put(
                            item.name, item.service_key, item.endpoints,
                            item.wsdl_text, item.revision,
                        )
                callback(items, None)

            def fetched(item: ResolvedService, response, error) -> None:
                item.wsdl_text = response.body if error is None and response.ok else None
                settle()

            for item, wsdl_url in fetches:
                if not wsdl_url:
                    settle()  # no WSDL location: resolved with no WSDL text
                    continue
                uri = Uri.parse(wsdl_url)
                self.http.request_async(
                    uri.host, uri.port or 80, HttpRequest("GET", "/" + uri.path),
                    partial(fetched, item),
                )
            settle()

        self._lookup_async(service_name, categories, on_records)

    @staticmethod
    def _dedupe(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """Collapse records that describe the same provider under
        different keys (a publish that failed over mints a new key);
        identity is (name, endpoint set), freshest revision wins."""
        best: dict[tuple, dict[str, Any]] = {}
        for record in records:
            service = record["service"]
            identity = (
                service["name"],
                tuple(sorted(
                    b["accessPoint"] for b in service.get("bindingTemplates", [])
                )),
            )
            held = best.get(identity)
            if held is None or int(record.get("revision", 0)) > int(
                held.get("revision", 0)
            ):
                best[identity] = record
        return [best[k] for k in sorted(best)]
