"""Service evaluation over a TQ-tree (paper Algorithms 1 and 2).

:func:`evaluate_service` is the divide-and-conquer Algorithm 1: starting
from the root, the facility component is recursively divided over the
child quadrants (children the component cannot serve are pruned), and
each visited node's own entry list is scored by
:func:`evaluate_node_trajectories` (Algorithm 2).

Algorithm 2 is where the two-phase pruning happens:

* on a TQ(Z) node, ``zReduce`` narrows the entry list through the
  z-ordered structure (:meth:`ZOrderedList.candidates_*`);
* on a TQ(B) node the list is scanned linearly with only a cheap
  per-entry envelope check (this *is* the paper's TQ(B): no ordering to
  exploit);
* surviving candidates get exact ``psi``-distance scoring against the
  component's stops.

Every step works on the node's :class:`~repro.index.block.NodeBlock`:
candidates are an array of block rows, their probe points one CSR
gather, the distance check one call, and the scoring rule a few vector
operations over the resulting mask — no Python loop over entries.

A :class:`MatchCollector` can ride along to record *which* points of
which users were served — MaxkCovRST needs these per-facility match sets
to price combined coverage.

Acceleration plugs in through one object without changing any result: a
:class:`~repro.runtime.QueryRuntime` passed as ``runtime`` owns the
whole probe path — every exact distance check goes through
:meth:`~repro.runtime.QueryRuntime.probe_mask`, which dresses the
component's stops for the runtime's backend and execution policy (dense
broadcast, stop grid, or cellstrings; grid shards fanned out serially,
over threads, or over a shared-memory process pool) — memoises each
(facility, q-node) candidate list and coverage mask in the runtime's
cache so a re-walk in the same mode — a repeated query for the same
facility, ancestor scans across kMaxRRST relax rounds, solver ensembles
sharing match sets — skips the geometric work, and accrues this
evaluation's work counters into the runtime's grand total.  (Collecting
and non-collecting walks select different candidate sets, so the cache
keys them apart rather than sharing across them.)  No backend, grid, or
cache type is plumbed through this module directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.config import IndexVariant
from ..core.errors import QueryError
from ..core.service import MatchSet, ServiceModel, ServiceSpec, in_order_sum
from ..core.stats import QueryStats
from ..core.trajectory import FacilityRoute, UserPointTable, ranges
from ..index.block import NodeBlock
from ..index.tqtree import QNode, TQTree
from ..runtime import QueryRuntime, coerce_runtime
from .components import FacilityComponent, intersecting_components

__all__ = [
    "QueryStats",
    "MatchCollector",
    "evaluate_core",
    "evaluate_service",
    "evaluate_node_trajectories",
    "needs_ancestor_scan",
]


class MatchCollector:
    """Accumulates the served point slots of one tree's user table
    across an evaluation."""

    def __init__(self) -> None:
        self.table: Optional[UserPointTable] = None
        self._chunks: List[np.ndarray] = []

    def record_slots(self, table: UserPointTable, slots: np.ndarray) -> None:
        if self.table is None:
            self.table = table
        elif self.table is not table:
            raise QueryError("a MatchCollector serves one user table at a time")
        if slots.size:
            self._chunks.append(slots)

    def match_set(self) -> MatchSet:
        """Everything recorded so far, as sorted unique slots."""
        table = self.table if self.table is not None else UserPointTable(())
        slots = (
            np.unique(np.concatenate(self._chunks))
            if self._chunks else np.zeros(0, dtype=np.int64)
        )
        return MatchSet(table, slots)

    def as_dict(self) -> Dict[int, Tuple[int, ...]]:
        return self.match_set().as_dict()


def needs_ancestor_scan(spec: ServiceSpec, variant: IndexVariant) -> bool:
    """Can entries stored *above* the facility's containing q-node score?

    For ENDPOINT service (and LENGTH on two-point entries) a contributing
    entry needs both governing points inside the serving envelope, which
    is contained in a single child of every proper ancestor — impossible
    for an inter-node entry stored there.  For COUNT, or LENGTH on
    full-trajectory entries, a single point/segment inside the envelope
    suffices, so ancestors must be scanned.
    """
    if spec.model is ServiceModel.COUNT:
        return True
    return spec.model is ServiceModel.LENGTH and variant is IndexVariant.FULL


def _requires_both_endpoints(spec: ServiceSpec, variant: IndexVariant) -> bool:
    """Is an entry only able to score when *both* governing points are
    inside the serving envelope?  (Mirror of :func:`needs_ancestor_scan`
    at entry granularity.)"""
    if spec.model is ServiceModel.ENDPOINT:
        return True
    return spec.model is ServiceModel.LENGTH and variant is not IndexVariant.FULL


#: Node lists shorter than this are scanned linearly even on TQ(Z): the
#: z-machinery's per-query overhead (two grid selections plus range
#: lookups) only pays for itself once a list is a few buckets long.
_Z_MIN_LIST = 192


#: The empty candidate set (shared, read-only).
_NO_ROWS = np.zeros(0, dtype=np.int64)
_NO_ROWS.setflags(write=False)


def _zreduce_candidates(
    tree: TQTree,
    node: QNode,
    component: FacilityComponent,
    spec: ServiceSpec,
    collecting: bool,
) -> Optional[np.ndarray]:
    """Apply zReduce on a TQ(Z) node: the surviving block rows in
    z-sorted order; None means "no z-structure, scan".

    ``collecting`` switches to partial-tolerant candidate modes: combined
    (MaxkCovRST) coverage needs *every* served point recorded, including
    entries only one of whose endpoints is near the facility, so the
    both-endpoints zReduce would silently drop cross-facility matches.
    """
    if len(node.entries) < _Z_MIN_LIST:
        return None
    zlist = tree.node_zlist(node)
    if zlist is None:
        return None
    embr = component.embr
    if embr is None:
        return _NO_ROWS
    variant = tree.config.variant
    if variant is IndexVariant.FULL and (
        collecting or spec.model is not ServiceModel.ENDPOINT
    ):
        picked = zlist.candidates_bbox(embr)
    elif not collecting and _requires_both_endpoints(spec, variant):
        picked = zlist.candidates_both(embr, component.stops.coords, component.psi)
    else:
        picked = zlist.candidates_any(embr, component.stops.coords, component.psi)
    return zlist.order[picked]


def _linear_candidates(
    block: NodeBlock,
    component: FacilityComponent,
    spec: ServiceSpec,
    variant: IndexVariant,
    collecting: bool,
) -> np.ndarray:
    """TQ(B) path: linear scan of the whole node list with a vectorised
    envelope check (the scan is what distinguishes TQ(B) from TQ(Z) —
    no z-order ranges to jump to)."""
    embr = component.embr
    if embr is None:
        return _NO_ROWS
    gov = block.gov
    if not collecting and _requires_both_endpoints(spec, variant):
        mask = (
            (gov[:, 0] >= embr.xmin)
            & (gov[:, 0] <= embr.xmax)
            & (gov[:, 1] >= embr.ymin)
            & (gov[:, 1] <= embr.ymax)
            & (gov[:, 2] >= embr.xmin)
            & (gov[:, 2] <= embr.xmax)
            & (gov[:, 3] >= embr.ymin)
            & (gov[:, 3] <= embr.ymax)
        )
    else:
        mask = (
            (gov[:, 4] <= embr.xmax)
            & (gov[:, 6] >= embr.xmin)
            & (gov[:, 5] <= embr.ymax)
            & (gov[:, 7] >= embr.ymin)
        )
    return np.flatnonzero(mask)


def _aggregate_candidates(
    tree: TQTree,
    block: NodeBlock,
    rows: np.ndarray,
    mask: np.ndarray,
    spec: ServiceSpec,
    collector: Optional[MatchCollector],
) -> float:
    """Apply the service model's scoring rule over ``mask``, the
    coverage of the candidates' probe points laid end to end in ``rows``
    order."""
    counts = block.probe_cnt[rows]
    ends = np.cumsum(counts)
    starts = ends - counts  # where each candidate's probes begin in mask
    if collector is not None:
        gather = ranges(block.probe_off[rows], counts)
        collector.record_slots(tree.table, block.probe_slot[gather[mask]])
    if spec.model is ServiceModel.ENDPOINT:
        # Every candidate is a whole-trajectory entry whose sorted
        # probe list starts at index 0 and ends at index n-1, so the
        # score is simply "first and last probe covered".
        return float(np.count_nonzero(mask[starts] & mask[ends - 1]))
    if spec.model is ServiceModel.COUNT:
        own = block.own_cnt[rows]
        hit = mask[ranges(starts, own)].astype(np.float64)
        if collector is None:
            if not spec.normalize:
                return float(np.count_nonzero(hit))
            return float(np.dot(hit, np.repeat(block.inv_points[rows], own)))
        # collecting walks score entry by entry, then add up in list order
        owner = np.repeat(np.arange(rows.size), own)
        raw = np.bincount(owner, weights=hit, minlength=rows.size)
        return in_order_sum(raw / block.n_points[rows] if spec.normalize else raw)
    # LENGTH: a segment contributes its length when both endpoint probes
    # are covered; normalisation divides by the owning trajectory's length
    segs = block.seg_cnt[rows]
    a = ranges(starts, segs)
    served = (mask[a] & mask[a + 1]).astype(np.float64)
    which = ranges(block.seg_off[rows], segs)
    if collector is None:
        lengths = block.seg_len_norm if spec.normalize else block.seg_len
        return float(np.dot(served, lengths[which]))
    owner = np.repeat(np.arange(rows.size), segs)
    raw = np.bincount(owner, weights=block.seg_len[which] * served, minlength=rows.size)
    if spec.normalize:
        total = block.traj_len[rows]
        raw = np.divide(raw, total, out=np.zeros(rows.size), where=total > 0)
    return in_order_sum(raw)


def evaluate_node_trajectories(
    tree: TQTree,
    node: QNode,
    component: FacilityComponent,
    spec: ServiceSpec,
    collector: Optional[MatchCollector] = None,
    stats: Optional[QueryStats] = None,
    runtime: Optional[QueryRuntime] = None,
) -> float:
    """Algorithm 2: score the entries stored *at* ``node`` against the
    facility component.  Returns the service value gained.

    ``runtime`` owns the probe path (how the exact distance pass
    executes) and memoises the (candidate rows, mask) pair per (facility,
    q-node, psi, mode) in its cache: the component a facility induces at
    a node is the same whichever algorithm walked there (stops within
    the node's box expanded by ``psi``), so a later walk in the same
    mode — a repeated query, an ancestor re-scan — reuses the geometric
    work and only re-runs the cheap aggregation.  Mode (collecting flag
    plus service model) is part of the key because it changes which
    candidates survive zReduce.
    """
    runtime = coerce_runtime(runtime)
    cache = runtime.cache if runtime is not None else None
    if component.is_empty or not node.entries:
        return 0.0
    block = tree.node_block(node)
    collecting = collector is not None
    key = None
    if cache is not None:
        key = (
            component.facility_id,
            id(node),
            spec.psi,
            collecting,
            spec.model.value,
        )
        # anchored on the block, not the node: an insert rebuilds the
        # block, so rows cached against the old one can never be served
        hit = cache.lookup_node(key, block, component.stops.coords)
        if hit is not None:
            rows, mask = hit
            if stats is not None:
                stats.entries_considered += len(node.entries)
                stats.entries_scored += rows.size
                stats.cache_hits += 1
            if not rows.size:
                return 0.0
            return _aggregate_candidates(tree, block, rows, mask, spec, collector)
    rows = _zreduce_candidates(tree, node, component, spec, collecting)
    if rows is None:
        rows = _linear_candidates(
            block, component, spec, tree.config.variant, collecting
        )
    if stats is not None:
        stats.entries_considered += len(node.entries)
        stats.entries_scored += rows.size
    if not rows.size:
        if cache is not None:
            cache.store_node(
                key, block, component.stops.coords, rows,
                np.zeros(0, dtype=bool),
            )
        return 0.0
    # one vectorised distance pass over all candidates' probe points;
    # with a runtime it rides the probe path (backend dressing plus the
    # configured execution policy), without one it is the dense kernel
    coords = block.probe_xy[ranges(block.probe_off[rows], block.probe_cnt[rows])]
    if runtime is not None:
        mask = runtime.probe_mask(component.stops, coords, spec.psi, stats)
    else:
        mask = component.stops.covered_mask(coords, spec.psi, stats)
    if cache is not None:
        cache.store_node(key, block, component.stops.coords, rows, mask)
    return _aggregate_candidates(tree, block, rows, mask, spec, collector)


def evaluate_core(
    tree: TQTree,
    facility: FacilityRoute,
    spec: ServiceSpec,
    collector: Optional[MatchCollector] = None,
    runtime: Optional[QueryRuntime] = None,
) -> Tuple[float, QueryStats]:
    """The pure step behind :func:`evaluate_service`: Algorithm 1's
    divide-and-conquer, returning ``(service value, work counters)``
    without touching any shared state beyond the runtime's caches.

    This is the planner-consumable form — :class:`repro.service
    .QueryPlanner` lowers an ``EvaluateRequest`` onto it directly, and
    the synchronous :func:`evaluate_service` wrapper adds only runtime
    coercion and stats accrual on top.  One execution substrate, two
    entrypoints: both paths run this exact function, which is why the
    service's answers and per-request stats are bit-identical to the
    direct calls by construction.
    """
    tree.validate_spec(spec)
    local = QueryStats()
    whole = FacilityComponent.whole(facility, spec.psi)
    if runtime is not None:
        whole = whole.with_stops(runtime.stop_set(whole.stops, spec.psi))
    component = whole.restricted_to(tree.root.box)
    so = _evaluate_rec(
        tree, tree.root, component, spec, collector, local, runtime
    )
    return so, local


def evaluate_service(
    tree: TQTree,
    facility: FacilityRoute,
    spec: ServiceSpec,
    collector: Optional[MatchCollector] = None,
    stats: Optional[QueryStats] = None,
    runtime: Optional[QueryRuntime] = None,
) -> float:
    """Algorithm 1: the full service value ``SO(U, f)`` of one facility.

    Divide-and-conquer from the root: children whose region the component
    cannot serve are pruned; every visited node's own list is scored via
    Algorithm 2.  ``runtime`` owns the probe path — how exact distance
    checks execute (dense broadcast, stop grid or cellstrings under
    the runtime's execution policy — identical results) — memoises
    per-(facility, node) coverage in its cache, and accrues this
    evaluation's work into its grand total.

    A thin synchronous wrapper over :func:`evaluate_core` — the same
    substrate the async :class:`repro.service.QueryService` executes.
    """
    runtime = coerce_runtime(runtime)
    so, local = evaluate_core(tree, facility, spec, collector, runtime)
    if runtime is not None:
        runtime.accrue(local)
    if stats is not None:
        stats.merge(local)
    return so


def _evaluate_rec(
    tree: TQTree,
    node: QNode,
    component: FacilityComponent,
    spec: ServiceSpec,
    collector: Optional[MatchCollector],
    stats: Optional[QueryStats],
    runtime: Optional[QueryRuntime] = None,
) -> float:
    if component.is_empty:
        return 0.0
    if stats is not None:
        stats.nodes_visited += 1
    so = evaluate_node_trajectories(
        tree, node, component, spec, collector, stats, runtime
    )
    if node.children is not None:
        boxes = [child.box for child in node.children]
        child_components = intersecting_components(boxes, component)
        for child, child_comp in zip(node.children, child_components):
            if child_comp is None:
                continue
            if child.sub.n_entries == 0:
                continue  # empty subtree
            so += _evaluate_rec(
                tree, child, child_comp, spec, collector, stats, runtime
            )
    return so
