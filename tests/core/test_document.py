"""Tests for the LabeledDocument facade and §3.3 fragment reconstruction."""

import pytest

from repro.core import (
    LabeledDocument,
    Ruid2Labeling,
    SizeCapPartitioner,
    reconstruct_fragment,
)
from repro.errors import UnknownLabelError
from repro.xmltree import element, parse, serialize

DOC = """
<site>
 <people>
  <person id="p1"><name>Alice</name><age>31</age></person>
  <person id="p2"><name>Bob</name><age>17</age></person>
 </people>
 <items><item id="i1"><name>Lamp</name></item></items>
</site>
"""


@pytest.fixture
def document():
    return LabeledDocument(parse(DOC), partitioner=SizeCapPartitioner(4))


class TestFragmentReconstruction:
    def test_single_leaf_yields_root_path(self, document):
        age = document.tree.find_by_tag("age")[0]
        fragment = document.fragment([document.label_of(age)])
        assert [n.tag for n in fragment.preorder()] == ["site", "people", "person", "age"]

    def test_multiple_selections_share_skeleton(self, document):
        names = document.tree.find_by_tag("name")
        labels = [document.label_of(n) for n in names]
        fragment = document.fragment(labels)
        tags = [n.tag for n in fragment.preorder()]
        # one site, one people, two persons, one items/item, three names
        assert tags.count("site") == 1
        assert tags.count("people") == 1
        assert tags.count("person") == 2
        assert tags.count("name") == 3
        assert tags.count("item") == 1

    def test_document_order_preserved(self, document):
        # select in reverse order; the fragment must come out in
        # source document order (the §3.3 requirement)
        persons = document.tree.find_by_tag("person")
        labels = [document.label_of(p) for p in reversed(persons)]
        fragment = document.fragment(labels)
        ids = [n.attributes.get("id") for n in fragment.preorder() if n.tag == "person"]
        assert ids == ["p1", "p2"]

    def test_include_descendants(self, document):
        person = document.tree.find_by_tag("person")[0]
        fragment = document.fragment(
            [document.label_of(person)], include_descendants=True
        )
        tags = [n.tag for n in fragment.preorder()]
        assert "name" in tags and "age" in tags and "#text" in tags

    def test_content_copied(self, document):
        person = document.tree.find_by_tag("person")[1]
        fragment = document.fragment(
            [document.label_of(person)], include_descendants=True
        )
        assert 'id="p2"' in serialize(fragment)
        assert "Bob" in serialize(fragment)

    def test_source_untouched(self, document):
        size_before = document.tree.size()
        document.fragment([document.label_of(document.tree.find_by_tag("age")[0])])
        assert document.tree.size() == size_before

    def test_unknown_label_rejected(self, document):
        from repro.core import Ruid2Label

        with pytest.raises(UnknownLabelError):
            document.fragment([Ruid2Label(99, 99, False)])

    def test_standalone_function(self):
        tree = parse(DOC)
        labeling = Ruid2Labeling(tree, partitioner=SizeCapPartitioner(4))
        item = tree.find_by_tag("item")[0]
        fragment = reconstruct_fragment(labeling, [labeling.label_of(item)])
        assert [n.tag for n in fragment.preorder()] == ["site", "items", "item"]


class TestFacade:
    def test_select_both_strategies(self, document):
        assert len(document.select("//person", "ruid")) == 2
        assert len(document.select("//person", "navigational")) == 2

    def test_select_labels(self, document):
        labels = document.select_labels("//name")
        assert len(labels) == 3
        assert all(document.node_of(label).tag == "name" for label in labels)

    def test_fragment_for(self, document):
        fragment = document.fragment_for("//person[@id='p1']/name")
        assert [n.tag for n in fragment.preorder()] == ["site", "people", "person", "name"]

    def test_parent_label(self, document):
        name = document.tree.find_by_tag("name")[0]
        parent = document.parent_label(document.label_of(name))
        assert document.node_of(parent).tag == "person"

    def test_update_then_query(self, document):
        people = document.tree.find_by_tag("people")[0]
        report = document.insert(people, 2, element("person"))
        assert report.inserted_count == 1
        assert len(document.select("//person", "ruid")) == 3
        assert len(document.select("//person", "navigational")) == 3

    def test_delete_then_query(self, document):
        victim = document.tree.find_by_tag("person")[1]
        report = document.delete(victim)
        assert report.deleted_count == 5  # person, name, #text, age, #text
        assert len(document.select("//person", "ruid")) == 1

    def test_axes_refresh_after_update(self, document):
        people = document.tree.find_by_tag("people")[0]
        label_before = document.label_of(people)
        kids_before = document.axes.children(label_before)
        document.insert(people, 0, element("person"))
        kids_after = document.axes.children(document.label_of(people))
        assert len(kids_after) == len(kids_before) + 1

    def test_axes_and_order_follow_overflow_insert(self):
        """K changes in place on an overflow; every derived axis and
        order object must notice through the labeling generation."""
        from repro.core import Relation, Ruid2SchemeLabeling

        tree = parse("<a><b><c/><c/><c/></b><d><e/><e/></d><f/></a>")
        document = LabeledDocument(tree, partitioner=SizeCapPartitioner(4))
        adapter = Ruid2SchemeLabeling.from_core(document.labeling, document.updater)
        b = tree.root.children[0]
        nodes = list(tree.preorder())
        for node in nodes:  # warm every derived cache on the old state
            document.axes.descendants(document.label_of(node))
            adapter.axes.children(document.label_of(node))
            adapter.relation(document.label_of(tree.root), document.label_of(node))
        assert [n.tag for n in document.select("/a/b/*")] == ["c", "c", "c"]

        report = document.insert(b, 1, element("n4"))  # b's area held k = 3
        assert report.overflow
        nodes = list(tree.preorder())
        for node in nodes:
            label = document.label_of(node)
            assert document.axes.descendants(label) == [
                document.label_of(d) for d in node.descendants()
            ]
            assert adapter.axes.children(label) == [
                document.label_of(c) for c in node.children
            ]
        for first in nodes:
            for second in nodes:
                got = adapter.relation(document.label_of(first), document.label_of(second))
                if first is second:
                    assert got is Relation.SELF
                elif first.is_ancestor_of(second):
                    assert got is Relation.ANCESTOR
                elif second.is_ancestor_of(first):
                    assert got is Relation.DESCENDANT
                else:
                    preceding = tree.compare_document_order(first, second) < 0
                    assert got is (Relation.PRECEDING if preceding else Relation.FOLLOWING)
        assert [n.tag for n in document.select("/a/b/*")] == ["c", "n4", "c", "c"]

    def test_repr(self, document):
        assert "LabeledDocument" in repr(document)
