"""The fixed corpus and the seeded input streams.

Documents are generated from a fixed generator seed (:data:`CORPUS_SEED`),
so every run measures the same data; ``--seed`` varies only what is
asked of it: query order and predicate literals, edit plans, arrival
schedules. Streams are dealt from shuffled decks rather than drawn
independently, so each query's share of a stream is the same for every
seed and medians do not move with the mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.generator import (
    DBLP_QUERIES,
    TREEBANK_QUERIES,
    XMARK_QUERIES,
    generate_dblp,
    generate_treebank,
    generate_xmark,
)
from repro.xmltree import serialize

#: generator seed of every corpus document (the seed the repository's
#: own benchmarks use); ``--seed`` never changes the data
CORPUS_SEED = 2002

#: (name, generator, query set) of the three memory-resident documents
DOCUMENTS = {
    "xmark": (lambda: generate_xmark(scale=1.0, seed=CORPUS_SEED), XMARK_QUERIES),
    "dblp": (lambda: generate_dblp(entries=600, seed=CORPUS_SEED), DBLP_QUERIES),
    "treebank": (
        lambda: generate_treebank(sentences=20, seed=CORPUS_SEED),
        TREEBANK_QUERIES,
    ),
}

#: the smaller XMark document the stored backends attach to
COLD_XMARK_SCALE = 0.3

#: predicate-literal templates: (doc, template, low, high, divisor);
#: the literal is ``randrange(low, high) / divisor``, spanning the
#: data's value range with thousands of distinct strings, far more than
#: the 128-entry plan cache holds, so these queries keep the XPath
#: parser on the path
VARIANT_TEMPLATES: Tuple[Tuple[str, str, int, int, int], ...] = (
    ("xmark", "//item[quantity > {n}]/name", 0, 6000, 1000),
    ("xmark", "/site/closed_auctions/closed_auction[price > {n}]", 0, 50000, 100),
    ("dblp", "//inproceedings[year > {n}]/title", 1989000, 2003000, 1000),
    ("dblp", "//article[volume > {n}]/journal", 0, 41000, 1000),
    ("dblp", "/dblp/*[year < {n}]", 1989000, 2003000, 1000),
)

#: per query-mix block, each base query appears BASE_REPEATS times and
#: each template VARIANTS_PER_TEMPLATE times (fresh literals): 92 base
#: queries and 25 variants, ~21% of the stream
BASE_REPEATS = 4
VARIANTS_PER_TEMPLATE = 5


def document_text(name: str) -> str:
    """Serialized text of corpus document *name* (generated afresh)."""
    generate, _queries = DOCUMENTS[name]
    return serialize(generate())


def cold_xmark_text() -> str:
    return serialize(generate_xmark(scale=COLD_XMARK_SCALE, seed=CORPUS_SEED))


def base_queries() -> List[Tuple[str, str]]:
    """Every (doc, expression) of the three query sets."""
    return [(doc, q) for doc, (_gen, queries) in DOCUMENTS.items() for q in queries]


def query_mix_block(rng: random.Random) -> List[Tuple[str, str]]:
    """One shuffled block of the query-mix stream: every base query
    :data:`BASE_REPEATS` times plus :data:`VARIANTS_PER_TEMPLATE` fresh
    literals per template, one from each equal slice of the template's
    range, so every block spans the same spread of result sizes."""
    block = base_queries() * BASE_REPEATS
    for doc, template, low, high, divisor in VARIANT_TEMPLATES:
        width = (high - low) // VARIANTS_PER_TEMPLATE
        for stratum in range(VARIANTS_PER_TEMPLATE):
            start = low + stratum * width
            literal = rng.randrange(start, start + width) / divisor
            block.append((doc, template.format(n=literal)))
    rng.shuffle(block)
    return block


def query_mix_stream(seed: int, blocks: int) -> List[Tuple[str, str]]:
    rng = random.Random(seed)
    stream: List[Tuple[str, str]] = []
    for _ in range(blocks):
        stream.extend(query_mix_block(rng))
    return stream


class Deck:
    """Deal items in shuffled rounds: every item once per round."""

    def __init__(self, items: Sequence, rng: random.Random):
        self._items = list(items)
        self._rng = rng
        self._hand: List = []

    def deal(self):
        if not self._hand:
            self._hand = list(self._items)
            self._rng.shuffle(self._hand)
        return self._hand.pop()


def session_orders(seed: int, sessions: int, queries: Sequence[str]) -> List[List[str]]:
    """Per cold-store session, the query pass: the first query is fixed
    (so the open latency always measures the same first answer), the
    rest are shuffled by the seed."""
    rng = random.Random(seed)
    first, rest = queries[0], list(queries[1:])
    orders = []
    for _ in range(sessions):
        rng.shuffle(rest)
        orders.append([first] + list(rest))
    return orders


@dataclass(frozen=True)
class ScheduledRequest:
    offset_s: float
    doc: str
    expression: str


def balanced_schedule(
    rate_hz: float, count: int, workload: Sequence[Tuple[str, str]], seed: int
) -> List[ScheduledRequest]:
    """``poisson_schedule`` arrival times with the requests dealt from
    a :class:`Deck`, so every query has the same share for every seed."""
    from repro.serving import poisson_schedule

    arrivals = poisson_schedule(rate_hz, count, workload, seed=seed)
    deck = Deck(workload, random.Random(seed ^ 0x5EED))
    out = []
    for arrival in arrivals:
        doc, expression = deck.deal()
        out.append(ScheduledRequest(arrival.offset_s, doc, expression))
    return out


def read_deck(seed: int) -> Deck:
    """The deck edit-mix reads are dealt from."""
    return Deck(XMARK_QUERIES, random.Random(seed ^ 0xEAD))
