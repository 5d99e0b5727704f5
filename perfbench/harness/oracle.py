"""Result identities for node-for-node comparison with the oracle.

The oracle is ``XPathEngine.select(..., strategy="navigational")`` on
the live tree. Answers from the same tree compare by ``node_id``;
answers from a stored backend compare by the flattened scheme label
(``label_key``), SQLite's rank labels being translated back to scheme
labels first. Transient attribute nodes key on their owner, name and
value.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.query.engine import XPathEngine
from repro.storage.database import label_key


def node_ids(nodes: Sequence) -> Tuple:
    """Identity of an answer drawn from the oracle's own tree (or a
    view of it, which keeps the tree's node ids)."""
    key = []
    for node in nodes:
        node_id = getattr(node, "node_id", None)
        if node_id is not None:
            key.append(node_id)
        else:
            parent = node.parent
            key.append(("attr", getattr(parent, "node_id", None), node.tag, node.text))
    return tuple(key)


class NavigationalOracle:
    """Navigational answers of one tree, cached per expression.

    ``invalidate()`` after the tree changes; the next lookup evaluates
    afresh on the live tree."""

    def __init__(self, tree):
        self.tree = tree
        self._engine = XPathEngine(tree)
        self._answers: Dict[str, Tuple] = {}

    def ids(self, expression: str) -> Tuple:
        """:func:`node_ids` of the navigational answer."""
        ids = self._answers.get(expression)
        if ids is None:
            ids = node_ids(self._engine.select(expression, strategy="navigational"))
            self._answers[expression] = ids
        return ids

    def invalidate(self) -> None:
        self._answers.clear()
        self._engine = XPathEngine(self.tree)


class StoredIdentity:
    """Flattened-label identities for answers of a stored backend."""

    def __init__(self, labeling):
        self.labeling = labeling
        self.rank_label = {rank: label for label, rank in labeling.rank_index().rank.items()}

    def oracle_key(self, nodes: Sequence) -> Tuple:
        """Identity of a navigational answer on the shredded tree."""
        return tuple(label_key(self.labeling.label_of(node)) for node in nodes)

    def paged_key(self, store, nodes: Sequence) -> Tuple:
        return tuple(label_key(store.label_for(node)) for node in nodes)

    def sqlite_key(self, store, nodes: Sequence) -> Tuple:
        return tuple(label_key(self.rank_label[store.label_for(node)]) for node in nodes)
