"""Tests for the Element tree."""

import gc
import weakref

from repro.xmlkit import Element, QName, parse


def make_tree():
    root = Element(QName("urn:a", "root"), nsdecls={"a": "urn:a"})
    child1 = root.add(QName("urn:a", "item"), text="one", idx="1")
    child2 = root.add(QName("urn:a", "item"), text="two", idx="2")
    other = root.add(QName("urn:b", "other"))
    return root, child1, child2, other


class TestContent:
    def test_text_property(self):
        e = Element("x", text="hello")
        assert e.text == "hello"

    def test_text_setter_replaces_text_keeps_children(self):
        e = Element("x", text="old")
        c = e.add("child")
        e.text = "new"
        assert e.text == "new"
        assert e.children == [c]

    def test_append_sets_parent(self):
        root, c1, *_ = make_tree()
        assert c1.parent is root

    def test_remove_clears_parent(self):
        root, c1, *_ = make_tree()
        root.remove(c1)
        assert c1.parent is None
        assert c1 not in root.children

    def test_tree_is_freed_without_the_cycle_collector(self):
        # the parent pointer is a weak back-reference: dropping the root
        # frees the whole tree by reference count alone
        gc.disable()
        try:
            root = parse("<r xmlns:p='urn:p'><a><b xsi='p:t'>x</b></a><c/></r>")
            leaf = root.children[0].children[0]
            assert leaf.parent.parent is root
            assert leaf.namespace_for_prefix("p") == "urn:p"
            gone = [weakref.ref(node) for node in (root, root.children[0], root.children[1])]
            del root
            assert [r() for r in gone] == [None, None, None]
            # a descendant that outlives its root is simply detached
            assert leaf.parent is None
            assert leaf.namespace_for_prefix("p") is None
        finally:
            gc.enable()

    def test_interleaved_text(self):
        e = Element("x")
        e.append_text("a")
        e.add("b")
        e.append_text("c")
        assert e.text == "ac"
        assert len(e.children) == 1

    def test_full_text_recurses(self):
        e = Element("x", text="a")
        e.add("y", text="b")
        e.append_text("c")
        assert e.full_text() == "abc"

    def test_extend(self):
        e = Element("x")
        kids = [Element("a"), Element("b")]
        e.extend(kids)
        assert e.children == kids


class TestQueries:
    def test_find_by_qname(self):
        root, c1, *_ = make_tree()
        assert root.find(QName("urn:a", "item")) is c1

    def test_find_by_local_name(self):
        root, c1, *_ = make_tree()
        assert root.find("item") is c1

    def test_find_missing_returns_none(self):
        root, *_ = make_tree()
        assert root.find("nope") is None

    def test_find_all(self):
        root, c1, c2, _ = make_tree()
        assert root.find_all("item") == [c1, c2]

    def test_find_all_qualified_excludes_other_ns(self):
        root, *_ = make_tree()
        assert root.find_all(QName("urn:b", "item")) == []

    def test_find_text(self):
        root, *_ = make_tree()
        assert root.find_text("item") == "one"
        assert root.find_text("nope", "dflt") == "dflt"

    def test_iter_depth_first(self):
        root, c1, c2, other = make_tree()
        sub = other.add("leaf")
        names = [e.name.local for e in root.iter()]
        assert names == ["root", "item", "item", "other", "leaf"]
        assert sub in list(root.iter())

    def test_descendants(self):
        root, *_ = make_tree()
        root.children[0].add("item")  # nested item
        assert len(root.descendants("item")) == 3


class TestAttributes:
    def test_get_set(self):
        e = Element("x")
        e.set("a", "1")
        assert e.get("a") == "1"

    def test_get_default(self):
        assert Element("x").get("a", "d") == "d"

    def test_qualified_attribute(self):
        e = Element("x")
        e.set(QName("urn:n", "attr"), "v")
        assert e.get(QName("urn:n", "attr")) == "v"
        assert e.get("attr") is None  # unqualified lookup must not match

    def test_set_coerces_to_str(self):
        e = Element("x")
        e.set("n", 42)  # type: ignore[arg-type]
        assert e.get("n") == "42"


class TestNamespaceResolution:
    def test_prefix_resolution_walks_ancestors(self):
        root = Element("r", nsdecls={"p": "urn:p"})
        child = root.add("c")
        assert child.namespace_for_prefix("p") == "urn:p"

    def test_shadowing(self):
        root = Element("r", nsdecls={"p": "urn:outer"})
        child = Element("c", nsdecls={"p": "urn:inner"})
        root.append(child)
        assert child.namespace_for_prefix("p") == "urn:inner"
        assert root.namespace_for_prefix("p") == "urn:outer"

    def test_unknown_prefix(self):
        assert Element("r").namespace_for_prefix("zz") is None

    def test_prefix_for_namespace(self):
        root = Element("r", nsdecls={"p": "urn:p"})
        child = root.add("c")
        assert child.prefix_for_namespace("urn:p") == "p"

    def test_prefix_for_namespace_respects_shadowing(self):
        root = Element("r", nsdecls={"p": "urn:outer"})
        child = Element("c", nsdecls={"p": "urn:inner"})
        root.append(child)
        # 'p' is rebound on child, so urn:outer has no usable prefix there
        assert child.prefix_for_namespace("urn:outer") is None

    def test_resolve_qname_text(self):
        root = Element("r", nsdecls={"tns": "urn:tns", "": "urn:dflt"})
        assert root.resolve_qname_text("tns:msg") == QName("urn:tns", "msg")
        assert root.resolve_qname_text("bare") == QName("urn:dflt", "bare")

    def test_resolve_qname_text_undeclared(self):
        import pytest

        with pytest.raises(ValueError):
            Element("r").resolve_qname_text("zz:msg")


class TestCopyAndEquality:
    def test_copy_is_deep(self):
        root, c1, *_ = make_tree()
        dup = root.copy()
        assert dup == root
        dup.children[0].set("idx", "99")
        assert c1.get("idx") == "1"

    def test_copy_has_no_parent(self):
        root, *_ = make_tree()
        assert root.copy().parent is None

    def test_equality_ignores_insignificant_whitespace(self):
        a = Element("x")
        a.append_text("  ")
        a.add("y")
        b = Element("x")
        b.add("y")
        assert a == b

    def test_inequality_on_attr(self):
        a = Element("x", attributes={"k": "1"})
        b = Element("x", attributes={"k": "2"})
        assert a != b

    def test_inequality_on_child_count(self):
        a = Element("x")
        a.add("y")
        assert a != Element("x")
