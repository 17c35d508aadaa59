"""The P2PS peer: pipes + advertisements + discovery in one entity.

Wire protocol (all frames on the ``p2ps`` port, real XML):

``<p2ps:Message type="advert">``
    Carries advertisements being published.  Broadcast to the group.
``<p2ps:Message type="query" id=... ttl=...>``
    Carries an :class:`AdvertQuery`.  Broadcast to the group; rendezvous
    peers forward to their linked rendezvous while TTL lasts.
``<p2ps:Message type="response" id=...>``
    Carries adverts matching a query, unicast straight back to the
    querying peer's node.

Every message embeds the sender's :class:`PeerAdvertisement`, so any
peer that hears from another can thereafter resolve its pipes — the
paper's EndpointResolver in action.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.caching import SoftTable
from repro.p2ps.advertisements import (
    Advertisement,
    PeerAdvertisement,
    PipeAdvertisement,
    ServiceAdvertisement,
    parse_advertisement,
)
from repro.p2ps.group import PeerGroup
from repro.p2ps.ids import new_peer_id, new_pipe_id, new_query_id
from repro.p2ps.pipes import (
    RELAY_PORT,
    InputPipe,
    OutputPipe,
    PipeListener,
    ResolutionError,
    TableEndpointResolver,
)
from repro.simnet.faults import NatGate
from repro.p2ps.query import AdvertQuery, advert_name
from repro.simnet.network import Frame, Network, Node, NodeDownError
from repro.xmlkit import Element, QName, ns, parse, serialize

P2PS_PORT = "p2ps"
DEFAULT_TTL = 4
#: query ids a peer remembers for loop suppression, oldest forgotten
#: first: a flood that loops back does so within a few hops, long
#: before this many later queries have passed through the peer
SEEN_QUERIES_CAP = 4096
#: adverts a peer caches from others (and, in a table of their own, the
#: ones it answers for), oldest forgotten first
ADVERT_CACHE_CAP = 4096


def _q(local: str) -> QName:
    return QName(ns.P2PS, local, "p2ps")


class _AdvertTable(SoftTable):
    """Adverts by key, each also filed under its kind and lower-cased
    name, so that an exact-name query reads its bucket, not the table.
    A bucket holds its keys in table order: a put or a ``get`` hit
    moves a key to the end of both, and a key leaves its bucket when it
    leaves the table (popped, cleared, evicted or expired)."""

    def __init__(self, valid_time: float, clock: Callable[[], float]):
        super().__init__(ADVERT_CACHE_CAP, valid_time, clock, self._evicted)
        #: (kind, lower-cased name) -> keys, in table order
        self._buckets: dict[tuple[str, str], dict[str, None]] = {}
        #: key -> the bucket it is filed under
        self._filed_as: dict[str, tuple[str, str]] = {}

    def put(self, key: str, advert: Advertisement, valid_time: Optional[float] = None):
        if key in self._filed_as:
            self.pop(key)  # refiled under the advert's name, at the end
        filed = self._filed_as[key] = (advert.kind, advert_name(advert).lower())
        self._buckets.setdefault(filed, {})[key] = None
        return super().put(key, advert, valid_time)

    def get(self, key: str, default=None):
        advert = super().get(key)
        if advert is None:
            return default
        bucket = self._buckets[self._filed_as[key]]
        del bucket[key]
        bucket[key] = None
        return advert

    def pop(self, key: str, default=None):
        filed = self._filed_as.pop(key, None)
        if filed is not None:
            bucket = self._buckets[filed]
            del bucket[key]
            if not bucket:
                del self._buckets[filed]
        return super().pop(key, default)

    def clear(self) -> int:
        self._buckets.clear()
        self._filed_as.clear()
        return super().clear()

    def _evicted(self, key: str, advert: Advertisement) -> None:
        self.pop(key)  # the table let it go already: this unfiles it

    def filed(self, kind: str, name: str) -> list[tuple[str, Advertisement]]:
        """Live ``(key, advert)`` pairs filed under *kind* and the
        lower-cased *name*, in table order."""
        live = []
        for key in list(self._buckets.get((kind, name), ())):
            advert = self.peek(key)  # an expired one leaves its bucket here
            if advert is not None:
                live.append((key, advert))
        return live


class QueryHandle:
    """Accumulates discovery results for one outstanding query."""

    def __init__(self, query_id: str, query: AdvertQuery, peer: "Peer"):
        self.query_id = query_id
        self.query = query
        self.peer = peer
        self.results: list[Advertisement] = []
        self._seen_keys: set[str] = set()
        self._callbacks: list[Callable[[Advertisement], None]] = []

    def on_result(self, callback: Callable[[Advertisement], None]) -> None:
        self._callbacks.append(callback)
        for advert in self.results:  # deliver already-known results too
            callback(advert)

    def _offer(self, advert: Advertisement) -> None:
        key = advert.key()
        if key in self._seen_keys:
            return
        self._seen_keys.add(key)
        self.results.append(advert)
        for callback in list(self._callbacks):
            callback(advert)

    def __repr__(self) -> str:
        return f"<QueryHandle {self.query_id} results={len(self.results)}>"


class Peer:
    """A P2PS peer bound to one network node."""

    def __init__(
        self,
        node: Node,
        name: str = "",
        rendezvous: bool = False,
        cache_lifetime: float = 600.0,
        nat: bool = False,
        relay: Optional["Peer"] = None,
    ):
        self.node = node
        self.name = name or node.id
        self.id = new_peer_id(self.name)
        self.rendezvous = rendezvous
        self.network: Network = node.network
        # NAT/firewall support (§IV-B): a NATed peer has no reachable
        # address; inbound traffic must ride sessions it opened itself
        # or go through its relay peer.
        self.nat_gate: Optional[NatGate] = NatGate(self.network, node.id) if nat else None
        self.relay_node_id = relay.node.id if relay is not None else ""
        if nat and relay is None:
            raise ValueError("a NATed peer needs a relay peer to be reachable")
        clock = lambda: self.network.kernel.now  # noqa: E731
        #: advert key -> advert heard from others, forgotten after
        #: *cache_lifetime* unless heard again
        self.cache = _AdvertTable(cache_lifetime, clock)
        #: advert key -> advert this peer published (itself, its pipes,
        #: its services), until withdrawn: what the republisher sends
        self.published: dict[str, Advertisement] = {}
        #: the published adverts this peer answers for: soft state like
        #: a cached advert (a live peer republishes to stay discoverable)
        self._own = _AdvertTable(cache_lifetime, clock)
        self.resolver = TableEndpointResolver(self.id)
        self.group: Optional[PeerGroup] = None
        self._rendezvous_links: dict[str, str] = {}  # peer_id -> node_id
        # Gnutella-style unstructured overlay (§II): when neighbours are
        # configured, broadcasts go to them instead of the whole group,
        # and every peer (not just rendezvous) forwards queries hop by
        # hop while TTL lasts.
        self.neighbors: dict[str, str] = {}  # peer_id -> node_id
        self._input_pipes: dict[str, InputPipe] = {}
        self._queries: dict[str, QueryHandle] = {}
        self._seen_queries = SoftTable(SEEN_QUERIES_CAP)
        self.messages_handled = 0
        self.relayed_frames = 0
        node.open_port(P2PS_PORT, self._on_message)
        # every peer offers relay forwarding; NATed peers pick one
        node.open_port(RELAY_PORT, self._on_relay_frame)
        if relay is not None:
            # an outbound hello opens the NAT session so the relay's
            # forwarded frames can reach us
            self._safe_send(self.relay_node_id, serialize(self._message("hello", [])))
        self._keep(self.advertisement())
        self.resolver.learn(self.id, node.id, self.relay_node_id)

    # ------------------------------------------------------------------
    # identity and membership
    # ------------------------------------------------------------------
    @property
    def relay_node_id(self) -> str:
        return self._origin.get("origin_relay", "")

    @relay_node_id.setter
    def relay_node_id(self, node_id: str) -> None:
        # the origin metadata every pipe frame carries, built once
        self._origin = {"origin_peer": self.id, "origin_node": self.node.id}
        if node_id:
            self._origin["origin_relay"] = node_id

    def advertisement(self) -> PeerAdvertisement:
        return PeerAdvertisement(
            self.id, self.node.id, self.name, self.rendezvous, self.relay_node_id
        )

    def join(self, group: PeerGroup) -> None:
        group.join(self, rendezvous=self.rendezvous)
        self.group = group

    def leave(self) -> None:
        if self.group is not None:
            self.group.leave(self.id)
            self.group = None

    def add_rendezvous_link(self, peer_id: str, node_id: str) -> None:
        self._rendezvous_links[peer_id] = node_id
        self.resolver.learn(peer_id, node_id)

    def add_neighbor(self, peer_id: str, node_id: str) -> None:
        """Join the unstructured overlay: *peer_id* becomes a direct
        neighbour; messages flood along such links."""
        self.neighbors[peer_id] = node_id
        self.resolver.learn(peer_id, node_id)

    # ------------------------------------------------------------------
    # pipes
    # ------------------------------------------------------------------
    def create_input_pipe(
        self,
        name: str,
        service_name: str = "",
        listener: Optional[PipeListener] = None,
    ) -> tuple[InputPipe, PipeAdvertisement]:
        """Create a listening pipe and its advertisement.

        The paper's request flow step 1: "Request input pipe and
        corresponding pipe advertisement from P2PS".
        """
        advert = PipeAdvertisement(
            new_pipe_id(), name, self.id, "input", service_name
        )
        pipe = InputPipe(advert, self.node)
        # learn the sender's location from every frame before user code runs
        pipe.add_listener(self._learn_from_pipe_meta)
        if listener is not None:
            pipe.add_listener(listener)
        self._input_pipes[advert.pipe_id] = pipe
        self._keep(advert)
        return pipe, advert

    def _learn_from_pipe_meta(self, payload: str, meta: dict) -> None:
        origin_peer = meta.get("origin_peer")
        origin_node = meta.get("origin_node")
        if origin_peer and origin_node:
            self.resolver.learn(
                str(origin_peer), str(origin_node), str(meta.get("origin_relay", ""))
            )

    def close_input_pipe(self, pipe_id: str) -> None:
        pipe = self._input_pipes.pop(pipe_id, None)
        if pipe is not None:
            pipe.close()
            self.withdraw(f"pipe:{pipe_id}")

    def open_output_pipe(self, advert: PipeAdvertisement) -> OutputPipe:
        """Resolve *advert* and return the sending end.

        Raises :class:`ResolutionError` for peers never heard from.
        """
        node_id = self.resolver.resolve(advert)
        return OutputPipe(advert, self.node, node_id)

    def send_down_pipe(self, pipe: OutputPipe, payload: str, **meta) -> None:
        """Send with origin metadata so the far side can resolve us back."""
        pipe.send(payload, **({**self._origin, **meta} if meta else self._origin))

    def _on_relay_frame(self, frame: Frame) -> None:
        """Forward a relayed pipe frame to its NATed destination."""
        fwd_dst = frame.meta.get("fwd_dst")
        fwd_port = frame.meta.get("fwd_port")
        if not fwd_dst or not fwd_port:
            return
        meta = {k: v for k, v in frame.meta.items() if k not in ("fwd_dst", "fwd_port")}
        self.relayed_frames += 1
        try:
            self.node.send(str(fwd_dst), str(fwd_port), frame.payload, **meta)
        except NodeDownError:
            pass

    # ------------------------------------------------------------------
    # publish / discover
    # ------------------------------------------------------------------
    def publish(self, advert: Advertisement) -> None:
        """Keep *advert* as our own and broadcast it to the group."""
        self._keep(advert)
        self._learn_from_advert(advert)
        self._broadcast(self._message("advert", [advert.to_element()]))

    def withdraw(self, key: str) -> None:
        """Stop republishing, answering for and caching the advert *key*."""
        self.published.pop(key, None)
        self._own.pop(key)
        self.cache.pop(key)

    def _keep(self, advert: Advertisement) -> None:
        self.published[advert.key()] = advert
        self._own.put(advert.key(), advert)

    def lookup(self, key: str) -> Optional[Advertisement]:
        """The live advert under *key*: our own, else a cached one."""
        advert = self._own.peek(key)
        return advert if advert is not None else self.cache.peek(key)

    def matches(self, query: AdvertQuery) -> list[Advertisement]:
        """Live local adverts matching *query*: ours, then cached ones.
        A name without ``%`` reads only the adverts filed under it."""
        if "%" in query.name_pattern:
            local = dict(self._own.items())
            local.update((key, a) for key, a in self.cache.items() if key not in local)
            candidates = list(local.values())
        else:
            filed = (query.kind, query.name_pattern.lower())
            candidates = [advert for _, advert in self._own.filed(*filed)]
            candidates += [
                advert for key, advert in self.cache.filed(*filed) if key not in self._own
            ]
        return [advert for advert in candidates if query.matches(advert)]

    def publish_service(
        self,
        name: str,
        pipe_names: list[str],
        definition_pipe: str = "",
        attributes: Optional[dict[str, str]] = None,
    ) -> ServiceAdvertisement:
        """Convenience: build + publish a service advert over existing pipes."""
        pipes = []
        for pipe in self._input_pipes.values():
            if pipe.advert.name in pipe_names and pipe.advert.service_name == name:
                pipes.append(pipe.advert)
        advert = ServiceAdvertisement(name, self.id, pipes, definition_pipe, attributes)
        self.publish(advert)
        return advert

    def start_republisher(self, interval: float):
        """Periodically rebroadcast the adverts we published.

        The soft-state remedy (see ablation AB3): cache entries expire
        everywhere after their lifetime, so a live peer must republish
        to stay discoverable.  Returns the kernel's cycle handle; cancel
        it (or call :meth:`stop_republisher`) to stop.
        """
        def republish() -> None:
            if not self.node.up:
                # downed peers stay silent; restart re-schedules nothing
                self.stop_republisher()
                return
            for advert in list(self.published.values()):
                self.publish(advert)

        self._republisher = self.network.kernel.every(interval, republish)
        return self._republisher

    def stop_republisher(self) -> None:
        cycle = getattr(self, "_republisher", None)
        if cycle is not None:
            cycle.cancel()
            self._republisher = None

    def discover(
        self,
        query: AdvertQuery,
        ttl: Optional[int] = None,
    ) -> QueryHandle:
        """Start a discovery: local cache first, then the network."""
        query_id = new_query_id()
        handle = QueryHandle(query_id, query, self)
        self._queries[query_id] = handle
        for advert in self.matches(query):
            handle._offer(advert)
        message = self._message("query", [query.to_element()])
        message.set("id", query_id)
        message.set("ttl", str(ttl if ttl is not None else DEFAULT_TTL))
        self._remember_query(query_id)
        self._broadcast(message)
        return handle

    def end_query(self, query_id: str) -> None:
        """Stop collecting for a query: later responses only feed the
        advert cache.  The handle itself keeps what it has."""
        self._queries.pop(query_id, None)

    # ------------------------------------------------------------------
    # wire protocol
    # ------------------------------------------------------------------
    def _message(self, msg_type: str, payload: list[Element]) -> Element:
        root = Element(_q("Message"), nsdecls={"p2ps": ns.P2PS})
        root.set("type", msg_type)
        origin = root.add(_q("Origin"))
        origin.append(self.advertisement().to_element())
        body = root.add(_q("Payload"))
        for elem in payload:
            body.append(elem)
        return root

    def _broadcast(self, message: Element) -> None:
        text = serialize(message)
        if self.neighbors:
            for node_id in self.neighbors.values():
                self._safe_send(node_id, text)
            return
        if self.group is None:
            return
        for member in self.group.members(exclude=self.id):
            self._safe_send(member.node_id, text)

    def _forward_to_rendezvous(self, message: Element, exclude_node: str) -> None:
        text = serialize(message)
        for node_id in self._rendezvous_links.values():
            if node_id != exclude_node:
                self._safe_send(node_id, text)

    def _safe_send(self, node_id: str, text: str) -> None:
        try:
            self.node.send(node_id, P2PS_PORT, text)
        except NodeDownError:
            pass  # we are down; nothing to do

    def _on_message(self, frame: Frame) -> None:
        self.messages_handled += 1
        try:
            root = parse(frame.payload)
        except Exception:  # noqa: BLE001 - hostile/corrupt frames are dropped
            self.network.trace.emit(
                self.network.kernel.now, "p2ps-malformed", node=self.node.id,
                src=frame.src,
            )
            return
        msg_type = root.get("type", "")
        origin_elem = root.find(_q("Origin"))
        if origin_elem is not None and origin_elem.children:
            try:
                origin = PeerAdvertisement.from_element(origin_elem.children[0])
                self.resolver.learn(origin.peer_id, origin.node_id, origin.relay_node)
                self.cache.put(origin.key(), origin)
            except Exception:
                origin = None
        else:
            origin = None
        payload = root.find(_q("Payload"))
        payload_children = payload.children if payload is not None else []

        if msg_type == "advert":
            for child in payload_children:
                try:
                    advert = parse_advertisement(child)
                except Exception:
                    continue
                self.cache.put(advert.key(), advert)
                self._learn_from_advert(advert)
        elif msg_type == "query":
            self._handle_query(root, payload_children, origin, frame)
        elif msg_type == "response":
            self._handle_response(root, payload_children)

    def _learn_from_advert(self, advert: Advertisement) -> None:
        if isinstance(advert, PeerAdvertisement):
            self.resolver.learn(advert.peer_id, advert.node_id, advert.relay_node)

    def _remember_query(self, query_id: str) -> None:
        self._seen_queries.put(query_id, None)

    def _handle_query(
        self,
        root: Element,
        payload_children: list[Element],
        origin: Optional[PeerAdvertisement],
        frame: Frame,
    ) -> None:
        query_id = root.get("id", "")
        if not query_id or query_id in self._seen_queries:
            return  # loop suppression
        self._remember_query(query_id)
        if not payload_children:
            return
        query = AdvertQuery.from_element(payload_children[0])
        matches = self.matches(query)
        if matches and origin is not None:
            elements = [m.to_element() for m in matches]
            # attach the advertised peers' own adverts so the querier can
            # resolve their pipe endpoints even when we (not they) answer
            attached: set[str] = set()
            for match in matches:
                peer_id = getattr(match, "peer_id", "")
                if peer_id and peer_id not in attached:
                    peer_advert = self.lookup(f"peer:{peer_id}")
                    if peer_advert is not None:
                        elements.append(peer_advert.to_element())
                        attached.add(peer_id)
            response = self._message("response", elements)
            response.set("id", query_id)
            self._safe_send(origin.node_id, serialize(response))
        # propagation: rendezvous bridge groups; in the unstructured
        # overlay every peer floods to its neighbours (Gnutella-style)
        ttl = int(root.get("ttl", "0"))
        if ttl > 1:
            forwarded = root.copy()
            forwarded.set("ttl", str(ttl - 1))
            if self.rendezvous:
                self._forward_to_rendezvous(forwarded, exclude_node=frame.src)
            if self.neighbors:
                text = serialize(forwarded)
                for node_id in self.neighbors.values():
                    if node_id != frame.src:
                        self._safe_send(node_id, text)

    def _handle_response(self, root: Element, payload_children: list[Element]) -> None:
        query_id = root.get("id", "")
        handle = self._queries.get(query_id)
        for child in payload_children:
            try:
                advert = parse_advertisement(child)
            except Exception:
                continue
            self.cache.put(advert.key(), advert)
            self._learn_from_advert(advert)
            if handle is not None and handle.query.matches(advert):
                handle._offer(advert)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        rdv = " rendezvous" if self.rendezvous else ""
        return f"<Peer {self.id}@{self.node.id}{rdv}>"
