"""Sharded serving cluster: sites, placement, and routing state.

:class:`ShardedCluster` owns the deployment shape the scatter-gather
executor runs against: a :class:`~repro.serving.ring.ConsistentHashRing`
placing every shard on a replica chain of sites, one frozen
:class:`~repro.concurrent.snapshot.StructuralView` per document (the
structural index each site evaluates against — the "Indices in XML
Databases" pattern of distributing the index, not the raw document),
and an **epoch-stamped routing synopsis** per document mapping a tag
to the shards that contain it.

A site answers a scatter call by evaluating the query against the
shared structural index and returning only the result nodes whose
ranks fall in the shards it was asked for. Shards partition the rank
space, so the union over contacted shards is exactly the single-site
answer — that identity is what the sharded differential suite pins.

Failure simulation mirrors the federation layer: sites can be taken
down directly or through a seeded
:class:`~repro.storage.faults.FaultInjector`, per-message transient
faults and latency spikes come from a seeded RNG, and the simulated
network latency is an *async* sleep so thousands of in-flight queries
overlap their waits on one event loop.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.concurrent.snapshot import StructuralView
from repro.errors import (
    QueryError,
    SiteUnavailableError,
    StorageError,
    TransientFetchError,
)
from repro.query.ast import LocationPath, NodeTest, Union_
from repro.serving.ring import ConsistentHashRing
from repro.serving.shards import RankOwnership, Shard
from repro.store.evaluator import StoreEvaluator
from repro.xmltree.node import NodeKind, XmlNode

__all__ = ["MergeKey", "RoutingSynopsis", "ServingSite", "ShardedCluster"]

#: (rank, transient flag, tag) — the exact sort key the single-site
#: evaluators use, so a merged scatter result reproduces their order
MergeKey = Tuple[int, int, str]


async def _no_sleep(_seconds: float) -> None:
    return None


class RoutingSynopsis:
    """tag → shards that contain at least one element with that tag.

    Epoch-stamped like the federation's
    :class:`~repro.query.synopsis.TagAreaSynopsis` replica: a
    structural update bumps the document epoch, and a synopsis whose
    epoch lags answers no routing question — the executor broadcasts
    instead (counted as a stale fallback) until :meth:`refresh` runs.
    """

    __slots__ = ("epoch", "_tag_shards")

    def __init__(
        self, view: StructuralView, ownership: RankOwnership, epoch: int
    ):
        self.epoch = epoch
        tag_shards: Dict[str, FrozenSet[str]] = {}
        for tag in view.tag_ids:
            owners = {
                ownership.owner_of(rank) for rank in view.tag_ranks(tag)
            }
            tag_shards[tag] = frozenset(owners)
        self._tag_shards = tag_shards

    def shards_for(self, tag: str) -> FrozenSet[str]:
        return self._tag_shards.get(tag, frozenset())


class ServingSite:
    """One serving site: the shards it hosts and their evaluators."""

    __slots__ = (
        "name",
        "latency_s",
        "down",
        "messages_received",
        "_views",
        "_evaluators",
        "_shards",
    )

    def __init__(self, name: str, latency_s: float = 0.0):
        self.name = name
        self.latency_s = latency_s
        self.down = False
        self.messages_received = 0
        self._views: Dict[str, StructuralView] = {}
        self._evaluators: Dict[str, StoreEvaluator] = {}
        self._shards: Dict[str, Shard] = {}

    def attach(self, doc: str, view: StructuralView, shard: Shard) -> None:
        self._views[doc] = view
        if doc not in self._evaluators:
            self._evaluators[doc] = StoreEvaluator(view)
        self._shards[shard.shard_id] = shard

    def detach(self, shard_id: str) -> Optional[Shard]:
        return self._shards.pop(shard_id, None)

    def hosted_shards(self) -> List[str]:
        return sorted(self._shards)

    def evaluator_for(self, doc: str) -> StoreEvaluator:
        try:
            return self._evaluators[doc]
        except KeyError:
            raise StorageError(
                f"site {self.name} hosts no shards of {doc!r}"
            ) from None

    def execute(
        self,
        doc: str,
        compiled,
        shard_ids: Sequence[str],
        keyed: Callable[[str, XmlNode], Tuple[MergeKey, str]],
        deadline=None,
        tracer=None,
    ) -> List[Tuple[MergeKey, XmlNode]]:
        """Evaluate *compiled* and keep nodes owned by *shard_ids*.

        Synchronous CPU work — the async wrapper in the cluster applies
        latency/fault simulation around it. The full evaluation runs
        against the shared structural index; the per-shard filter is
        what makes scatter results disjoint and their union complete.
        """
        evaluator = self.evaluator_for(doc)
        wanted = set(shard_ids)
        for shard_id in wanted:
            if shard_id not in self._shards:
                raise StorageError(
                    f"site {self.name} does not host shard {shard_id}"
                )
        if deadline is not None:
            evaluator.set_deadline(deadline)
        try:
            if tracer is not None:
                with tracer.span(
                    "serving.site_call", site=self.name, doc=doc
                ) as span:
                    result = evaluator.select(compiled)
                    span.set(results=len(result))
            else:
                result = evaluator.select(compiled)
        finally:
            if deadline is not None:
                evaluator.set_deadline(None)
        owned: List[Tuple[MergeKey, XmlNode]] = []
        for node in result:
            key, owner = keyed(doc, node)
            if owner in wanted:
                owned.append((key, node))
        return owned


class ShardedCluster:
    """Placement + routing state for the scatter-gather executor.

    Parameters
    ----------
    site_count / site_names:
        The serving fleet; names default to ``site0 .. siteN-1``.
    replication_factor:
        Distinct sites per shard chain (primary + failover replicas),
        straight off the hash ring.
    vnode_count:
        Virtual points per site on the ring.
    site_latency_s:
        Simulated one-way latency per message, awaited on the event
        loop (injectable ``sleep`` for deterministic tests).
    faults:
        Optional :class:`~repro.storage.faults.FaultInjector`; its site
        outages apply here exactly as in the federation layer, and its
        seed drives the per-message chaos RNG.
    """

    def __init__(
        self,
        site_count: int = 4,
        replication_factor: int = 1,
        site_names: Optional[Sequence[str]] = None,
        vnode_count: int = 64,
        site_latency_s: float = 0.0,
        faults=None,
        sleep=None,
    ):
        names = (
            list(site_names)
            if site_names is not None
            else [f"site{index}" for index in range(site_count)]
        )
        if not names:
            raise StorageError("need at least one site")
        if replication_factor < 1:
            raise StorageError("replication factor must be >= 1")
        if replication_factor > len(names):
            raise StorageError(
                f"replication factor {replication_factor} exceeds "
                f"{len(names)} sites"
            )
        self.replication_factor = replication_factor
        self.ring = ConsistentHashRing(names, vnode_count=vnode_count)
        self.sites: Dict[str, ServingSite] = {
            name: ServingSite(name, latency_s=site_latency_s) for name in names
        }
        self.faults = faults
        self.sleep = sleep if sleep is not None else _no_sleep
        #: per-message chaos: transient failure / latency-spike rates
        self._chaos_rng = random.Random(
            faults.seed if faults is not None else 0
        )
        self._transient_rate = 0.0
        self._spike_rate = 0.0
        self._spike_s = 0.0
        #: shard_id → Shard / replica chain (site names, primary first)
        self.shards: Dict[str, Shard] = {}
        self.chains: Dict[str, List[str]] = {}
        #: doc → view / ownership / synopsis / epoch
        self._views: Dict[str, StructuralView] = {}
        self._ownership: Dict[str, RankOwnership] = {}
        self._synopses: Dict[str, RoutingSynopsis] = {}
        self._epochs: Dict[str, int] = {}
        self._doc_shards: Dict[str, List[str]] = {}
        self.injected = {"transients": 0, "spikes": 0}

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def add_document(
        self, doc: str, view: StructuralView, shards: Sequence[Shard]
    ) -> None:
        """Place *shards* (a full partition of *view*) on the ring."""
        if doc in self._views:
            raise StorageError(f"document {doc!r} is already deployed")
        ownership = RankOwnership(shards, size=len(view.ids_by_rank))
        self._views[doc] = view
        self._ownership[doc] = ownership
        self._epochs[doc] = 0
        self._doc_shards[doc] = [shard.shard_id for shard in shards]
        for shard in shards:
            chain = self.ring.chain_for(shard.shard_id, self.replication_factor)
            self.shards[shard.shard_id] = shard
            self.chains[shard.shard_id] = chain
            for site_name in chain:
                self.sites[site_name].attach(doc, view, shard)
        self._synopses[doc] = RoutingSynopsis(view, ownership, epoch=0)

    def documents(self) -> List[str]:
        return sorted(self._views)

    def view_of(self, doc: str) -> StructuralView:
        try:
            return self._views[doc]
        except KeyError:
            raise StorageError(f"unknown document {doc!r}") from None

    def shard_ids(self, doc: str) -> List[str]:
        try:
            return list(self._doc_shards[doc])
        except KeyError:
            raise StorageError(f"unknown document {doc!r}") from None

    # ------------------------------------------------------------------
    # Epoch / synopsis lifecycle
    # ------------------------------------------------------------------
    def bump_epoch(self, doc: str) -> int:
        """Record a structural change; routing goes stale until resync."""
        self._epochs[doc] = self._epochs.get(doc, 0) + 1
        return self._epochs[doc]

    def resync(self, doc: str) -> None:
        """Rebuild the routing synopsis at the current epoch."""
        self._synopses[doc] = RoutingSynopsis(
            self._views[doc], self._ownership[doc], epoch=self._epochs[doc]
        )

    def synopsis_is_stale(self, doc: str) -> bool:
        return self._synopses[doc].epoch != self._epochs[doc]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, doc: str, compiled) -> Tuple[List[str], bool]:
        """Shards that can contain result nodes of *compiled*.

        Returns ``(shard_ids, routed)``. Routing prunes on the last
        location step's name test: every result node of a location path
        matches its final node test, so the synopsis' shard set for
        that tag is a sound superset of the result's owners. Anything
        else — kind tests, parent/ancestor final steps, scalar
        expressions, a stale synopsis — broadcasts to the full plan.
        """
        all_shards = self.shard_ids(doc)
        if self.synopsis_is_stale(doc):
            return all_shards, False
        tags = self._result_tags(compiled)
        if tags is None:
            return all_shards, False
        synopsis = self._synopses[doc]
        admitted: set = set()
        for tag in tags:
            admitted.update(synopsis.shards_for(tag))
        return sorted(admitted), True

    @staticmethod
    def _result_tags(compiled) -> Optional[List[str]]:
        """Concrete result tags of *compiled*, or None if unprunable."""
        if isinstance(compiled, Union_):
            paths = list(compiled.paths)
        elif isinstance(compiled, LocationPath):
            paths = [compiled]
        else:
            return None
        tags: List[str] = []
        for path in paths:
            if not path.steps:
                return None
            last = path.steps[-1]
            test = last.test
            if last.axis == "attribute":
                return None
            if (
                not isinstance(test, NodeTest)
                or test.node_type is not None
                or test.name in (None, "*")
            ):
                return None
            tags.append(test.name)
        return tags

    # ------------------------------------------------------------------
    # Result identity (merge keys + shard ownership)
    # ------------------------------------------------------------------
    def keyed(self, doc: str, node: XmlNode) -> Tuple[MergeKey, str]:
        """(merge key, owning shard) of one result node.

        Real view nodes key on their own rank. Transient attribute
        nodes (synthesized per evaluation) key just after their owner
        element, exactly like the single-site evaluators'
        ``sort_nodes``; the document node belongs with rank 0.
        """
        view = self._views[doc]
        ownership = self._ownership[doc]
        rank = view.rank.get(node.node_id)
        if rank is not None:
            return (rank, 0, ""), ownership.owner_of(rank)
        if node.kind is NodeKind.DOCUMENT:
            return (-1, 0, ""), ownership.owner_of(0)
        parent = node.parent
        if parent is None or parent.node_id not in view.rank:
            raise QueryError(
                f"result node {node!r} has no rank in document {doc!r}"
            )
        parent_rank = view.rank[parent.node_id]
        return (parent_rank, 1, node.tag or ""), ownership.owner_of(parent_rank)

    # ------------------------------------------------------------------
    # Fault control (mirrors the federation layer)
    # ------------------------------------------------------------------
    def take_site_down(self, name: str) -> None:
        self._site(name).down = True

    def restore_site(self, name: str) -> None:
        self._site(name).down = False

    def site_is_down(self, name: str) -> bool:
        site = self._site(name)
        if site.down:
            return True
        return self.faults is not None and self.faults.site_is_down(name)

    def arm_message_faults(
        self,
        transient_rate: float = 0.0,
        spike_rate: float = 0.0,
        spike_s: float = 0.0,
    ) -> None:
        """Give every scatter message a seeded chance of misbehaving."""
        for label, rate in (
            ("transient_rate", transient_rate),
            ("spike_rate", spike_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise StorageError(f"{label} must be in [0, 1], got {rate}")
        if spike_rate and spike_s <= 0:
            raise StorageError("latency spikes need a positive spike_s")
        self._transient_rate = transient_rate
        self._spike_rate = spike_rate
        self._spike_s = spike_s

    def disarm_message_faults(self) -> None:
        self._transient_rate = 0.0
        self._spike_rate = 0.0
        self._spike_s = 0.0

    def _site(self, name: str) -> ServingSite:
        try:
            return self.sites[name]
        except KeyError:
            raise StorageError(f"no site named {name!r}") from None

    # ------------------------------------------------------------------
    # The one message primitive the executor scatters with
    # ------------------------------------------------------------------
    async def call_site(
        self,
        site_name: str,
        doc: str,
        compiled,
        shard_ids: Sequence[str],
        deadline=None,
        tracer=None,
    ) -> List[Tuple[MergeKey, XmlNode]]:
        """One scatter message: latency, chaos, then local evaluation.

        Raises :class:`SiteUnavailableError` for a down site and
        :class:`TransientFetchError` for an injected per-message fault
        — both typed and retryable along the shard's replica chain.
        """
        site = self._site(site_name)
        if self.site_is_down(site_name):
            raise SiteUnavailableError(f"site {site_name} is down")
        site.messages_received += 1
        if self._transient_rate and self._chaos_rng.random() < self._transient_rate:
            self.injected["transients"] += 1
            seed = self.faults.seed if self.faults is not None else 0
            raise TransientFetchError(
                f"injected transient fault on message to {site_name} "
                f"(seed {seed})"
            )
        if self._spike_rate and self._chaos_rng.random() < self._spike_rate:
            self.injected["spikes"] += 1
            await self.sleep(self._spike_s)
        if site.latency_s:
            await self.sleep(site.latency_s)
        if deadline is not None:
            deadline.check()
        return site.execute(
            doc, compiled, shard_ids, self.keyed, deadline=deadline,
            tracer=tracer,
        )

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def total_messages(self) -> int:
        return sum(site.messages_received for site in self.sites.values())

    def site_loads(self) -> List[Tuple[str, int, int, str]]:
        """(site, hosted shards, messages, up/down) distribution."""
        return [
            (
                site.name,
                len(site.hosted_shards()),
                site.messages_received,
                "down" if self.site_is_down(site.name) else "up",
            )
            for site in self.sites.values()
        ]

    def stats_snapshot(self) -> Dict[str, float]:
        snapshot: Dict[str, float] = {
            "sites": len(self.sites),
            "sites_down": sum(
                1 for name in self.sites if self.site_is_down(name)
            ),
            "shards": len(self.shards),
            "messages": self.total_messages(),
            "injected_transients": self.injected["transients"],
            "injected_spikes": self.injected["spikes"],
        }
        return snapshot

    def bind(self, registry, prefix: str = "serving.cluster") -> None:
        registry.register_source(prefix, self.stats_snapshot)

    def __repr__(self) -> str:
        return (
            f"<ShardedCluster sites={len(self.sites)} "
            f"shards={len(self.shards)} rf={self.replication_factor}>"
        )
