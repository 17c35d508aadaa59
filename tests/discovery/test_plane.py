"""The discovery plane end-to-end: publish, replicate, resolve, repair.

These tests drive real WSPeer peers over the simulated network — SOAP
frames, WSDL fetches, gossip frames and all.
"""

import pytest

from repro.core import WSPeer
from repro.core.binding import StandardBinding
from repro.core.errors import DiscoveryError
from repro.core.query import UDDIServiceQuery
from repro.discovery import DiscoveryPlane
from repro.simnet import FixedLatency, Network
from repro.supervision.failover import attach_failover


class Echo:
    def echo(self, message: str) -> str:
        return message


@pytest.fixture
def net():
    return Network(latency=FixedLatency(0.002))


@pytest.fixture
def plane(net):
    return DiscoveryPlane(net, shards=4, replication=2, cache_lifetime=30.0)


def make_peer(net, plane, node_id, **attach_kwargs):
    peer = WSPeer(net.add_node(node_id), StandardBinding(plane.registry_uris["registry-0"]))
    plane.attach(peer, **attach_kwargs)
    return peer


def publish_echo(net, plane, node_id="prov0", name="Echo", **attach_kwargs):
    prov = make_peer(net, plane, node_id, **attach_kwargs)
    prov.deploy(Echo(), name=name)
    prov.publish(name)
    net.run()
    return prov


class TestPublish:
    def test_replicated_r_ways(self, net, plane):
        publish_echo(net, plane)
        holding = [
            sid for sid, reg in plane.registries.items()
            if reg.registry.find_service("Echo")
        ]
        assert len(holding) == plane.replication
        assert set(holding) == set(plane.ring.nodes_for("Echo", plane.replication))

    def test_replica_keys_identical(self, net, plane):
        """Replication copies records verbatim — replicas agree on the key."""
        publish_echo(net, plane)
        keys = {
            reg.registry.find_service("Echo")[0]["serviceKey"]
            for reg in plane.registries.values()
            if reg.registry.find_service("Echo")
        }
        assert len(keys) == 1

    def test_shards_never_mint_colliding_keys(self, net, plane):
        """Two services homed on different shards get distinct keys
        (the operator-namespaced ``_new_key`` regression)."""
        for i in range(12):
            publish_echo(net, plane, node_id=f"p{i}", name=f"Svc{i}")
        keys = [
            s["serviceKey"]
            for reg in plane.registries.values()
            for s in reg.registry.find_service("%")
        ]
        # every occupied shard contributed; replicas share keys but
        # distinct services never collide
        assert len(set(keys)) == 12

    def test_publish_survives_dead_primary(self, net, plane):
        primary = plane.ring.nodes_for("Echo", 2)[0]
        plane.shard_node(primary).go_down()
        prov = publish_echo(net, plane)
        cons = make_peer(net, plane, "cons")
        handles = cons.locate("Echo")
        assert len(handles) == 1

    def test_publish_fails_when_all_replicas_dead(self, net, plane):
        for shard in plane.ring.nodes_for("Echo", plane.replication):
            plane.shard_node(shard).go_down()
        prov = make_peer(net, plane, "prov0")
        prov.deploy(Echo(), name="Echo")
        from repro.core.errors import DeploymentError

        with pytest.raises(DeploymentError):
            prov.publish("Echo")

    def test_withdraw_removes_everywhere(self, net, plane):
        prov = publish_echo(net, plane)
        prov.server.publisher.withdraw(prov._deployed["Echo"])
        net.run()
        for reg in plane.registries.values():
            assert reg.registry.find_service("Echo") == []


class TestResolve:
    def test_locate_and_invoke_transparently(self, net, plane):
        publish_echo(net, plane)
        cons = make_peer(net, plane, "cons")
        handle = cons.locate_one("Echo")
        assert cons.invoke(handle, "echo", {"message": "hi"}) == "hi"

    def test_second_locate_hits_cache_no_frames(self, net, plane):
        publish_echo(net, plane)
        cons = make_peer(net, plane, "cons")
        cons.locate("Echo")
        net.run()
        before = net.sent.get("cons")
        handles = cons.locate("Echo")
        assert handles and net.sent.get("cons") == before
        assert cons.discovery.cache.hits == 1

    def test_cache_expiry_falls_back_to_registry(self, net, plane):
        publish_echo(net, plane)
        cons = make_peer(net, plane, "cons")
        cons.locate("Echo")
        net.kernel.advance(31.0)  # past cache lifetime
        before = net.sent.get("cons")
        cons.locate("Echo")
        assert net.sent.get("cons") > before

    def test_lookup_survives_one_dead_replica(self, net, plane):
        publish_echo(net, plane)
        replicas = plane.ring.nodes_for("Echo", plane.replication)
        plane.shard_node(replicas[0]).go_down()
        cons = make_peer(net, plane, "cons")
        assert len(cons.locate("Echo", timeout=40.0)) == 1

    def test_lookup_fails_when_all_replicas_dead(self, net, plane):
        publish_echo(net, plane)
        for shard in plane.ring.nodes_for("Echo", plane.replication):
            plane.shard_node(shard).go_down()
        cons = make_peer(net, plane, "cons")
        with pytest.raises(DiscoveryError):
            cons.locate("Echo", timeout=40.0)

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_wildcard_scatters_to_all_shards(self, net, plane, mode):
        for i in range(6):
            publish_echo(net, plane, node_id=f"p{i}", name=f"Svc{i}")
        cons = make_peer(net, plane, "cons")
        if mode == "sync":
            handles = cons.locate("Svc%")
        else:
            handles, done = [], []
            cons.locate_async(
                "Svc%", handles.append,
                on_complete=lambda count, error: done.append((count, error)),
            )
            net.run()
            assert done == [(6, None)]
        assert sorted(h.name for h in handles) == [f"Svc{i}" for i in range(6)]

    def test_locate_async_honours_categories(self, net, plane):
        """A category that matches nothing completes empty, and is never
        answered from the rendezvous cache the plain name warmed."""
        publish_echo(net, plane)
        cons = make_peer(net, plane, "cons")
        cons.locate("Echo")
        net.run()
        hits = cons.discovery.cache.hits
        cat = {"tModelKey": "uuid:domain", "keyName": "domain", "keyValue": "math"}
        found, done = [], []
        cons.locate_async(
            UDDIServiceQuery("Echo", categories=[cat]), found.append,
            on_complete=lambda count, error: done.append((count, error)),
        )
        net.run()
        assert found == [] and done == [(0, None)]
        assert cons.discovery.cache.hits == hits

    def test_locate_async_mirrors_sync(self, net, plane):
        publish_echo(net, plane)
        cons = make_peer(net, plane, "cons")
        box = {}
        cons.locate_async(
            "Echo",
            lambda handle: box.setdefault("handle", handle),
            on_complete=lambda count, error: box.setdefault("done", (count, error)),
        )
        net.run()
        assert box["handle"].name == "Echo"
        assert box["done"] == (1, None)

    def test_locate_async_cache_hit_without_frames(self, net, plane):
        publish_echo(net, plane)
        cons = make_peer(net, plane, "cons")
        cons.locate("Echo")
        net.run()
        before = net.sent.get("cons")
        box = {}
        cons.locate_async("Echo", lambda h: box.setdefault("handle", h))
        net.run()
        assert box["handle"].name == "Echo"
        assert net.sent.get("cons") == before


class TestReadRepair:
    def test_stale_replica_repaired_on_lookup(self, net, plane):
        publish_echo(net, plane)
        replicas = plane.ring.nodes_for("Echo", plane.replication)
        primary, secondary = replicas[0], replicas[1]
        # make the secondary diverge: wipe it behind the plane's back
        reg = plane.registries[secondary].registry
        for svc in reg.find_service("Echo"):
            reg.delete_service(svc["serviceKey"])
        assert reg.find_service("Echo") == []
        cons = make_peer(net, plane, "cons")
        cons.locate("Echo")
        net.run()  # let background imports land
        assert reg.find_service("Echo"), "lookup must write the record back"

    def test_repair_propagates_newest_revision(self, net, plane):
        prov = publish_echo(net, plane)
        prov.publish("Echo")  # re-publish bumps the revision on the primary
        net.run()
        replicas = plane.ring.nodes_for("Echo", plane.replication)
        revisions = set()
        for shard in replicas:
            reg = plane.registries[shard].registry
            svc = reg.find_service("Echo")[0]
            revisions.add(reg.revision_of(svc["serviceKey"]))
        assert len(revisions) == 1, "replicas converge on one revision"


class TestGossipFreshness:
    def test_reannounce_updates_consumer_cache(self, net, plane):
        prov = publish_echo(net, plane)
        cons = make_peer(net, plane, "cons")
        cons.locate("Echo")
        net.run()
        rev_before = cons.discovery.cache.get("Echo")[0].revision
        prov.publish("Echo")  # re-publish gossips a fresher announcement
        net.run()
        items = cons.discovery.cache.get("Echo")
        assert items is not None and items[0].revision > rev_before

    def test_withdraw_tombstone_clears_consumer_cache(self, net, plane):
        prov = publish_echo(net, plane)
        cons = make_peer(net, plane, "cons")
        cons.locate("Echo")
        net.run()
        prov.server.publisher.withdraw(prov._deployed["Echo"])
        net.run()
        assert cons.discovery.cache.get("Echo") is None


class TestSupervisionIntegration:
    def test_dead_verdict_invalidates_cache_and_quarantines(self, net, plane):
        publish_echo(net, plane)
        cons = make_peer(net, plane, "cons")
        attach_failover(cons)
        handle = cons.locate_one("Echo")
        address = handle.endpoints[0].address
        assert cons.discovery.cache.get("Echo") is not None
        health = cons.failover.health
        for _ in range(10):
            health.record_failure(address, fatal=True)
        health.mark_dead(address)
        assert cons.discovery.cache.get("Echo") is None
        assert address in cons.client.locator.quarantined

    def test_failover_before_discovery_order_also_wires(self, net, plane):
        publish_echo(net, plane)
        cons = WSPeer(
            net.add_node("cons"), StandardBinding(plane.registry_uris["registry-0"])
        )
        attach_failover(cons)
        plane.attach(cons)
        handle = cons.locate_one("Echo")
        address = handle.endpoints[0].address
        health = cons.failover.health
        for _ in range(10):
            health.record_failure(address, fatal=True)
        health.mark_dead(address)
        assert cons.discovery.cache.get("Echo") is None


class TestLeases:
    def test_expired_lease_drops_out_of_lookups(self, net, plane):
        publish_echo(net, plane, lease_ttl=20.0)
        cons = make_peer(net, plane, "cons")
        assert cons.locate("Echo")
        net.kernel.advance(60.0)  # past lease AND past consumer cache
        assert cons.locate("Echo") == []

    def test_republish_refreshes_lease(self, net, plane):
        prov = publish_echo(net, plane, lease_ttl=20.0)
        cons = make_peer(net, plane, "cons", with_gossip=False)
        net.kernel.advance(15.0)
        prov.publish("Echo")
        net.run()
        net.kernel.advance(15.0)  # 30s after first publish, 15 after refresh
        assert cons.locate("Echo")
