"""Unit tests for the provider-side duplicate-suppression window."""

import pytest

import repro.reliability.dedup as dedup_module
from repro.reliability import DedupWindow


class TestRememberAndSeen:
    def test_unseen_then_seen(self):
        window = DedupWindow()
        assert not window.seen("urn:uuid:1")
        window.remember("urn:uuid:1", "<response/>")
        assert window.seen("urn:uuid:1")
        assert window.get("urn:uuid:1") == "<response/>"

    def test_none_id_never_seen(self):
        window = DedupWindow()
        assert not window.seen(None)

    def test_duplicate_hits_counted(self):
        window = DedupWindow()
        window.remember("a")
        window.seen("a")
        window.seen("a")
        window.seen("b")  # miss: not counted
        assert window.duplicates == 2

    def test_all_read_paths_count_duplicates(self):
        # regression: the counter's contract is "hits observed via any
        # read path", but only seen() used to increment it
        window = DedupWindow()
        window.remember("a", "<response/>")
        assert window.seen("a")
        assert "a" in window
        assert window.get("a") == "<response/>"
        assert window.duplicates == 3
        # misses never count, whichever path probes
        assert not window.seen("nope")
        assert "nope" not in window
        assert window.get("nope") is None
        assert window.duplicates == 3

    def test_contains_and_iter(self):
        window = DedupWindow()
        window.remember("a")
        window.remember("b")
        assert "a" in window and "c" not in window
        assert list(window) == ["a", "b"]
        window.clear()
        assert len(window) == 0


class TestEviction:
    def test_fifo_eviction_at_capacity(self, monkeypatch):
        monkeypatch.setattr(dedup_module, "DEDUP_CAP", 3)
        window = DedupWindow()
        for mid in ("a", "b", "c", "d"):
            window.remember(mid)
        assert len(window) == 3
        assert "a" not in window  # oldest evicted first
        assert list(window) == ["b", "c", "d"]
        assert window.evicted == 1

    def test_re_remember_keeps_fifo_order(self, monkeypatch):
        # regression: re-remembering used to move_to_end, silently
        # turning the documented FIFO ring into LRU — a retransmitting
        # client could shield its id from eviction forever
        monkeypatch.setattr(dedup_module, "DEDUP_CAP", 2)
        window = DedupWindow()
        window.remember("a")
        window.remember("b")
        window.remember("a", "updated")  # refreshes the value only
        assert window.get("a") == "updated"
        window.remember("c")  # evicts a (oldest first insertion), not b
        assert "a" not in window and "b" in window and "c" in window

    def test_capacity_validation(self, monkeypatch):
        monkeypatch.setattr(dedup_module, "DEDUP_CAP", 0)
        with pytest.raises(ValueError):
            DedupWindow()
