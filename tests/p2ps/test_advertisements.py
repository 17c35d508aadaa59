"""Tests for P2PS advertisements, queries and the cache."""

import pytest

from repro.p2ps import (
    AdvertError,
    AdvertQuery,
    PeerAdvertisement,
    PipeAdvertisement,
    ServiceAdvertisement,
    Peer,
    parse_advertisement,
)
from repro.simnet import Network


def sample_service():
    pipes = [
        PipeAdvertisement("pipe-1", "invoke", "peer-1", "input", "Echo"),
        PipeAdvertisement("pipe-2", "definition", "peer-1", "input", "Echo"),
    ]
    return ServiceAdvertisement(
        "Echo", "peer-1", pipes, definition_pipe="definition",
        attributes={"domain": "test", "version": "1"},
    )


class TestAdvertXml:
    def test_peer_roundtrip(self):
        advert = PeerAdvertisement("peer-1", "n1", "alice", rendezvous=True)
        back = parse_advertisement(advert.to_wire())
        assert back == advert

    def test_pipe_roundtrip(self):
        advert = PipeAdvertisement("pipe-9", "invoke", "peer-1", "input", "Echo")
        back = parse_advertisement(advert.to_wire())
        assert back == advert

    def test_service_roundtrip(self):
        advert = sample_service()
        back = parse_advertisement(advert.to_wire())
        assert back == advert
        assert back.definition_pipe == "definition"
        assert back.attributes == {"domain": "test", "version": "1"}
        assert len(back.pipes) == 2

    def test_service_pipe_named(self):
        advert = sample_service()
        assert advert.pipe_named("invoke").pipe_id == "pipe-1"
        assert advert.pipe_named("nope") is None

    def test_bare_pipe_no_service(self):
        advert = PipeAdvertisement("pipe-5", "reply", "peer-2")
        back = parse_advertisement(advert.to_wire())
        assert back.service_name == ""

    def test_keys(self):
        assert sample_service().key() == "service:peer-1:Echo"
        assert PeerAdvertisement("p", "n").key() == "peer:p"
        assert PipeAdvertisement("x", "n", "p").key() == "pipe:x"

    def test_validation(self):
        with pytest.raises(AdvertError):
            PeerAdvertisement("", "n")
        with pytest.raises(AdvertError):
            PipeAdvertisement("id", "n", "p", pipe_type="sideways")
        with pytest.raises(AdvertError):
            ServiceAdvertisement("", "p")

    def test_parse_rejects_foreign_xml(self):
        with pytest.raises(AdvertError):
            parse_advertisement("<NotAnAdvert/>")

    def test_parse_rejects_wrong_namespace(self):
        with pytest.raises(AdvertError):
            parse_advertisement('<PeerAdvertisement xmlns="urn:other"/>')


class TestQuery:
    def test_service_name_match(self):
        q = AdvertQuery("service", "Echo")
        assert q.matches(sample_service())
        assert not q.matches(PeerAdvertisement("peer-1", "n1"))

    def test_wildcard(self):
        assert AdvertQuery("service", "Ec%").matches(sample_service())
        assert not AdvertQuery("service", "Zz%").matches(sample_service())

    def test_attribute_match(self):
        assert AdvertQuery("service", "%", {"domain": "test"}).matches(sample_service())
        assert not AdvertQuery("service", "%", {"domain": "prod"}).matches(sample_service())

    def test_all_attributes_required(self):
        q = AdvertQuery("service", "%", {"domain": "test", "missing": "x"})
        assert not q.matches(sample_service())

    def test_pipe_query(self):
        pipe = PipeAdvertisement("pipe-1", "invoke", "peer-1")
        assert AdvertQuery("pipe", "invoke").matches(pipe)
        assert not AdvertQuery("pipe", "other").matches(pipe)

    def test_peer_query_matches_name_or_id(self):
        advert = PeerAdvertisement("peer-1", "n1", "alice")
        assert AdvertQuery("peer", "alice").matches(advert)
        anonymous = PeerAdvertisement("peer-2", "n2")
        assert AdvertQuery("peer", "peer-2").matches(anonymous)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            AdvertQuery("galaxy")

    def test_xml_roundtrip(self):
        q = AdvertQuery("service", "Echo%", {"a": "1", "b": "2"})
        back = AdvertQuery.from_element(q.to_element())
        assert back.kind == "service"
        assert back.name_pattern == "Echo%"
        assert back.attributes == {"a": "1", "b": "2"}


class TestCache:
    """A peer's cache of adverts heard from others: newest per key wins,
    entries expire after the peer's ``cache_lifetime``."""

    def make(self, lifetime=10.0):
        net = Network()
        peer = Peer(net.add_node("n"), cache_lifetime=lifetime)
        return peer, net

    @staticmethod
    def heard(peer, advert):
        peer.cache.put(advert.key(), advert)

    @staticmethod
    def at(net, t):
        net.kernel.schedule(t - net.kernel.now, lambda: None)
        net.run()

    def test_put_get(self):
        peer, _ = self.make()
        advert = sample_service()
        self.heard(peer, advert)
        assert peer.cache.get(advert.key()) == advert
        assert advert.key() in peer.cache
        assert peer.lookup(advert.key()) == advert

    def test_newest_wins(self):
        peer, _ = self.make()
        self.heard(peer, PeerAdvertisement("p", "n1"))
        self.heard(peer, PeerAdvertisement("p", "n2"))
        assert peer.cache.get("peer:p").node_id == "n2"
        assert len(peer.cache) == 1

    def test_expiry(self):
        peer, net = self.make(lifetime=5.0)
        self.heard(peer, sample_service())
        self.at(net, 4.9)
        assert len(peer.cache) == 1
        self.at(net, 5.1)
        assert peer.cache.get("service:peer-1:Echo") is None
        assert len(peer.cache) == 0

    def test_match(self):
        peer, _ = self.make()
        self.heard(peer, sample_service())
        self.heard(peer, PeerAdvertisement("peer-1", "n1"))
        assert len(peer.matches(AdvertQuery("service", "%"))) == 1
        # the peer answers with its own advert too
        keys = {advert.key() for advert in peer.matches(AdvertQuery("peer", "%"))}
        assert keys == {"peer:peer-1", peer.advertisement().key()}

    def test_match_excludes_expired(self):
        peer, net = self.make(lifetime=5.0)
        self.heard(peer, sample_service())
        self.at(net, 6.0)
        assert peer.matches(AdvertQuery("service", "%")) == []

    def test_remove(self):
        peer, _ = self.make()
        advert = sample_service()
        self.heard(peer, advert)
        peer.withdraw(advert.key())
        assert advert.key() not in peer.cache
        assert peer.lookup(advert.key()) is None

    def test_purge_count(self):
        peer, net = self.make(lifetime=1.0)
        self.heard(peer, PeerAdvertisement("a", "n"))
        self.heard(peer, PeerAdvertisement("b", "n"))
        self.at(net, 2.0)
        assert peer.cache.purge() == 2
