"""Shared machinery for the cross-scheme differential harness.

One corpus = one document plus the query set exercised against it.
For every corpus the navigational evaluator (plain DOM walking, no
labels anywhere) is the ground truth; each numbering scheme answers
the same queries through a :class:`StructuralView` built from *its
own* rank index and parent arithmetic, so a wrong scheme produces
divergent results rather than a crash.

Everything expensive (trees, baselines, per-scheme views) is built
once per session and memoised here.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro.baselines.registry import get_scheme
from repro.concurrent import StructuralView
from repro.errors import UnknownLabelError
from repro.storage.database import XmlDatabase, label_key
from repro.store import PagedNodeStore, SqliteNodeStore, StoreEvaluator
from repro.generator import (
    DBLP_QUERIES,
    RandomTreeConfig,
    TREEBANK_QUERIES,
    XMARK_QUERIES,
    generate_dblp,
    generate_treebank,
    generate_tree,
    generate_xmark,
)
from repro.query.engine import XPathEngine
from repro.query.parser import parse_xpath
from repro.xmltree import parse
from repro.xmltree.tree import XmlTree

SITE_DOC = """<site>
 <people>
  <person id="p1"><name>Alice</name><age>31</age></person>
  <person id="p2"><name>Bob</name><age>17</age></person>
  <person id="p3"><name>Cara</name><age>44</age></person>
 </people>
 <items>
  <item id="i1"><name>Lamp</name><price>19</price></item>
  <item id="i2"><name>Desk</name><price>140</price></item>
 </items>
</site>"""

#: the former tests/query ad-hoc agreement queries, kept verbatim so
#: the coverage that lived there moves here rather than disappearing
SITE_QUERIES = (
    "/site/people/person",
    "//name",
    "//person[age > 20]/name",
    "//item/following-sibling::*",
    "//price/ancestor::item",
    "//person[2]/preceding::*",
    "//people/descendant::name[2]",
    "//*[name() != 'site']",
    "//person[@id = 'p2']/name",
    "//item/name/text()",
)

RANDOM_QUERIES = (
    "//*",
    "/*/*",
    "//item",
    "//entry/ancestor::*",
    "//group/descendant-or-self::*",
    "//*[2]/following-sibling::*",
    "//record/..",
)

#: corpus name → (tree factory, query tuple)
CORPORA = {
    "site": (lambda: parse(SITE_DOC), SITE_QUERIES),
    "random": (
        lambda: generate_tree(RandomTreeConfig(node_count=400), seed=11),
        RANDOM_QUERIES,
    ),
    "xmark": (lambda: generate_xmark(scale=0.08, seed=3), XMARK_QUERIES),
    "dblp": (lambda: generate_dblp(entries=60, seed=7), DBLP_QUERIES),
    "treebank": (
        lambda: generate_treebank(sentences=6, max_depth=10, seed=5),
        TREEBANK_QUERIES,
    ),
}

_trees: Dict[str, XmlTree] = {}
_engines: Dict[str, XPathEngine] = {}
_baselines: Dict[Tuple[str, str], List] = {}
_views: Dict[Tuple[str, str], StructuralView] = {}


def corpus_tree(name: str) -> XmlTree:
    tree = _trees.get(name)
    if tree is None:
        _trees[name] = tree = CORPORA[name][0]()
    return tree


def corpus_engine(name: str) -> XPathEngine:
    engine = _engines.get(name)
    if engine is None:
        _engines[name] = engine = XPathEngine(corpus_tree(name))
    return engine


def result_keys(nodes, tree: XmlTree) -> List:
    """Comparable identities for a result node-set.

    Real document nodes compare by ``node_id``. Transient attribute
    nodes (synthesized per evaluation, so ids differ between
    evaluators) compare by (owner id, name, value).
    """
    order = tree.document_order_index()
    keys = []
    for node in nodes:
        if node.node_id in order:
            keys.append(node.node_id)
        else:
            owner = node.parent.node_id if node.parent is not None else None
            keys.append(("attr", owner, node.tag, node.text))
    return keys


def baseline_keys(corpus: str, query: str) -> List:
    key = (corpus, query)
    cached = _baselines.get(key)
    if cached is None:
        engine = corpus_engine(corpus)
        result = engine.select(query, strategy="navigational")
        _baselines[key] = cached = result_keys(result, corpus_tree(corpus))
    return cached


def scheme_view(corpus: str, scheme: str) -> StructuralView:
    key = (corpus, scheme)
    view = _views.get(key)
    if view is None:
        labeling = get_scheme(scheme).build(corpus_tree(corpus))
        _views[key] = view = StructuralView.from_labeling(labeling)
    return view


def snapshot_select(corpus: str, scheme: str, query: str) -> List:
    evaluator = StoreEvaluator(scheme_view(corpus, scheme))
    return evaluator.select(parse_xpath(query))


#: corpus → (paged store, evaluator, flattened label key → source node_id)
_paged: Dict[str, Tuple[PagedNodeStore, StoreEvaluator, Dict]] = {}


def build_paged(tree, labeling, name: str = "doc", pool_pages: int = 32):
    """Shred (tree, labeling) and return (store, evaluator, key map).

    The key map ties paged labels (flattened storage key tuples) back
    to the source tree's node ids, so paged results are comparable to
    the navigational baseline.
    """
    database = XmlDatabase(page_size=1024, pool_pages=pool_pages)
    document = database.store_document(name, tree, labeling)
    store = PagedNodeStore(document)
    key_map = {
        label_key(labeling.label_of(node)): node.node_id
        for node in tree.preorder()
    }
    return store, StoreEvaluator(store), key_map


def paged_stack(corpus: str):
    stack = _paged.get(corpus)
    if stack is None:
        labeling = get_scheme("ruid2").build(corpus_tree(corpus))
        _paged[corpus] = stack = build_paged(corpus_tree(corpus), labeling, corpus)
    return stack


def paged_result_keys(store, key_map, nodes) -> List:
    """:func:`result_keys` semantics for a paged result set: stored
    nodes map through their label to the source ``node_id``; transient
    attribute nodes compare by (owner id, name, value)."""
    keys = []
    for node in nodes:
        try:
            label = store.label_for(node)
        except UnknownLabelError:
            owner = (
                key_map.get(store.label_for(node.parent))
                if node.parent is not None
                else None
            )
            keys.append(("attr", owner, node.tag, node.text))
            continue
        keys.append(key_map[label])
    return keys


def paged_select_keys(corpus: str, query: str) -> List:
    store, evaluator, key_map = paged_stack(corpus)
    return paged_result_keys(store, key_map, evaluator.select(parse_xpath(query)))


#: (corpus, scheme) → (sqlite store, evaluator, preorder rank → node_id)
_sqlite: Dict[Tuple[str, str], Tuple[SqliteNodeStore, StoreEvaluator, Dict]] = {}


def build_sqlite(tree, labeling, name: str = "doc"):
    """Shred (tree, labeling) into an in-memory accel table and return
    (store, evaluator, key map).

    The key map ties sqlite labels (preorder ranks) back to the source
    tree's node ids — the shred runs off *labeling*'s own rank index
    and parent arithmetic, so a buggy scheme diverges here exactly as
    it would in the snapshot battery.
    """
    store = SqliteNodeStore.shred(name, labeling)
    index = labeling.rank_index()
    key_map = {
        rank: labeling.node_of(label).node_id
        for label, rank in index.rank.items()
    }
    return store, StoreEvaluator(store), key_map


def sqlite_stack(corpus: str, scheme: str = "ruid2"):
    key = (corpus, scheme)
    stack = _sqlite.get(key)
    if stack is None:
        labeling = get_scheme(scheme).build(corpus_tree(corpus))
        _sqlite[key] = stack = build_sqlite(
            corpus_tree(corpus), labeling, corpus
        )
    return stack


def sqlite_result_keys(store, key_map, nodes) -> List:
    """:func:`result_keys` semantics for a sqlite result set."""
    keys = []
    for node in nodes:
        try:
            label = store.label_for(node)
        except UnknownLabelError:
            owner = (
                key_map.get(store.label_for(node.parent))
                if node.parent is not None
                else None
            )
            keys.append(("attr", owner, node.tag, node.text))
            continue
        keys.append(key_map[label])
    return keys


def sqlite_select_keys(corpus: str, query: str, scheme: str = "ruid2") -> List:
    store, evaluator, key_map = sqlite_stack(corpus, scheme)
    return sqlite_result_keys(store, key_map, evaluator.select(parse_xpath(query)))


@pytest.fixture(autouse=True, scope="session")
def _clear_caches_at_exit():
    yield
    _trees.clear()
    _engines.clear()
    _baselines.clear()
    _views.clear()
    _paged.clear()
    _sqlite.clear()
