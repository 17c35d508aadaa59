"""Tests for QName and name validity."""

import pytest

from repro.xmlkit import QName
from repro.xmlkit.names import is_ncname


class TestIsNcname:
    def test_simple_names_valid(self):
        for name in ["a", "Envelope", "foo-bar", "x_1", "_hidden", "a.b"]:
            assert is_ncname(name), name

    def test_invalid_names(self):
        for name in ["", "1abc", "-x", ".x", "a b", "a:b", "<", "a<b"]:
            assert not is_ncname(name), name


class TestQName:
    def test_equality_ignores_prefix(self):
        a = QName("urn:x", "name", "p1")
        b = QName("urn:x", "name", "p2")
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_uri(self):
        assert QName("urn:x", "name") != QName("urn:y", "name")

    def test_inequality_on_local(self):
        assert QName("urn:x", "a") != QName("urn:x", "b")

    def test_clark_roundtrip(self):
        q = QName("urn:x", "name")
        assert q.clark() == "{urn:x}name"
        assert QName.from_clark(q.clark()) == q

    def test_clark_no_namespace(self):
        q = QName("", "name")
        assert q.clark() == "name"
        assert QName.from_clark("name") == q

    def test_invalid_local_rejected(self):
        with pytest.raises(ValueError):
            QName("urn:x", "not a name")

    def test_invalid_prefix_rejected(self):
        with pytest.raises(ValueError):
            QName("urn:x", "ok", "bad prefix")

    def test_with_prefix_copies(self):
        q = QName("urn:x", "name")
        q2 = q.with_prefix("p")
        assert q2.prefix == "p"
        assert q2 == q

    def test_str_matches_clark(self):
        assert str(QName("urn:x", "n")) == "{urn:x}n"

    def test_frozen(self):
        q = QName("urn:x", "n")
        with pytest.raises(AttributeError):
            q.local = "other"  # type: ignore[misc]


class TestInternTable:
    def test_interning_works_past_the_cap(self):
        from repro.xmlkit import names

        for i in range(10_000):
            names.intern_qname("urn:churn", f"n{i}")
        assert len(names._interned) <= names._INTERN_MAX
        first = names.intern_qname("urn:churn", "fresh")
        assert names.intern_qname("urn:churn", "fresh") is first
