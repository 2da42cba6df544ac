"""Service evaluation over a TQ-tree (paper Algorithms 1 and 2).

The paper's evaluation is divide-and-conquer, then filter, then refine.
This module runs it a *frontier* of q-nodes at a time rather than a
q-node at a time, as four stage functions over arrays:

1. **divide** (:func:`divide`) — Algorithm 1's division of the facility
   over the quadrants, for the whole tree at once: which nodes the
   walk's stops can serve, which nodes the walk reaches, each node's
   serving envelope (a :class:`DivisionPlan` over the tree's
   :class:`~repro.index.frame.TreeFrame`);
2. **filter** (:func:`filter_candidates`) — Algorithm 2's pruning over
   every listed node of a frontier in one pass: on TQ(Z) nodes
   ``zReduce`` through the stacked z-structures
   (:meth:`~repro.index.frame.ZStack.candidates`), on TQ(B) nodes and
   short lists a linear scan with a cheap per-entry envelope check
   (this *is* the paper's TQ(B): no ordering to exploit).  It probes
   nothing;
3. **probe** (:func:`probe_candidates`) — the survivors' probe points in
   one CSR gather and one exact ``psi``-distance call against the
   walk's stops;
4. **score** (:func:`score_candidates`) — the frontier's mask scored by
   the service model's rule in one segmented pass (per entry, then per
   node in list order).

:func:`score_frontier` is a cache gather, stages 2-4 and a cache store
for any set of nodes, and the only implementation behind
:func:`evaluate_service` (frontier = every node the walk reaches) —
which kMaxRRST (:mod:`repro.queries.kmaxrrst`) runs per candidate and
the collecting MaxkCovRST walk runs with a collector.  No Python loop
runs over entries.  The paper's ``MakeUnion(f)`` merge needs no step:
every node is probed against all of the facility's stops that can serve
it, so a user is never credited twice to one facility.

A :class:`MatchCollector` can ride along to record *which* points of
which users were served — MaxkCovRST needs these per-facility match sets
to price combined coverage.

Acceleration plugs in through one object without changing any result: a
:class:`~repro.runtime.QueryRuntime` passed as ``runtime`` owns the
whole probe path — the walk's one exact distance check goes through
:meth:`~repro.runtime.QueryRuntime.probe_mask`, which dresses the
stops for the runtime's backend (dense broadcast, stop grid, or
cellstrings; probed on the calling thread) — keeps one record per walk
(facility, psi, node-table generation) in the runtime's cache: the
walk's division plan and, per (model, normalize), the value each
q-node's own list adds.  A non-collecting re-walk — a repeated query
for the same facility, a kMaxRRST candidate evaluated before — gathers
the values it knows and scores only the rest; a collecting walk always
scores (:func:`~repro.queries.maxkcov.core_match_fn` keeps its
match set on the record instead).  It also
accrues this evaluation's work counters into the runtime's grand total.
No backend, grid, or cache type is plumbed through this module
directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.config import IndexVariant
from ..core.errors import QueryError
from ..core.service import MatchSet, ServiceModel, ServiceSpec, StopSet
from ..core.stats import QueryStats
from ..core.trajectory import FacilityRoute, UserPointTable, ranges
from ..index.block import NodeBlock
from ..index.frame import ANY, BBOX, BOTH, TreeFrame, kept_per_run
from ..index.tqtree import TQTree
from ..runtime import QueryRuntime, coerce_runtime

__all__ = [
    "QueryStats",
    "DivisionPlan",
    "MatchCollector",
    "candidate_mode",
    "divide",
    "filter_candidates",
    "probe_candidates",
    "score_candidates",
    "score_frontier",
    "walk_plan",
    "evaluate_core",
    "evaluate_service",
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


def _requires_both_endpoints(spec: ServiceSpec, variant: IndexVariant) -> bool:
    """Is an entry only able to score when *both* governing points are
    inside the serving envelope?  For ENDPOINT service, and LENGTH on
    two-point entries, it is; for COUNT, or LENGTH on full-trajectory
    entries, one point or segment inside the envelope suffices."""
    if spec.model is ServiceModel.ENDPOINT:
        return True
    return spec.model is ServiceModel.LENGTH and variant is not IndexVariant.FULL


#: Node lists shorter than this are scanned linearly even on TQ(Z): the
#: stacked ``zReduce`` tests a list's leaf cells against the stops before
#: it reads an entry, which only pays for itself once a list is a few
#: buckets long.
_Z_MIN_LIST = 192


def candidate_mode(spec: ServiceSpec, variant: IndexVariant, collecting: bool) -> str:
    """Which filter form is sound for this walk (DESIGN.md §4.2).

    ``collecting`` switches to partial-tolerant modes: combined
    (MaxkCovRST) coverage needs *every* served point recorded, including
    entries only one of whose endpoints is near the facility, so the
    both-endpoints filter would silently drop cross-facility matches.
    """
    if variant is IndexVariant.FULL and (
        collecting or spec.model is not ServiceModel.ENDPOINT
    ):
        return BBOX
    if not collecting and _requires_both_endpoints(spec, variant):
        return BOTH
    return ANY


def divide(
    frame: TreeFrame, stops: np.ndarray, psi: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage 1, Algorithm 1's division: the stops ``stops`` (an
    ``(m, 2)`` array) divided over every node of ``frame`` at once, as
    ``(served, visited, envelopes)``.

    Stop ``j`` belongs to node ``i``'s part of the facility when it lies
    in ``box[i]`` grown by ``psi`` — the stops
    ``StopSet.restricted_to(box.expanded(psi))`` keeps.  A node is
    *served* when one stop belongs to it, and *visited* — the paper's
    walk from the root reaches it — when it is served and its subtree
    holds an entry (the root needs only the former).  No ancestor check
    is needed: a child's region lies inside its parent's, and
    subtracting ``psi`` from both keeps the order, so a stop that
    belongs to a node belongs to every ancestor, and a subtree with an
    entry makes every enclosing subtree non-empty too.  A served node's
    envelope is its stops' bounding box grown by ``psi`` —
    ``StopSet.embr``'s floats; the ``(n, 4)`` table has NaN rows
    elsewhere.  The arrays are read-only: a cache shares them between
    walks."""
    box = frame.box
    x, y = stops[None, :, 0], stops[None, :, 1]
    member = (
        (x >= (box[:, 0] - psi)[:, None])
        & (x <= (box[:, 2] + psi)[:, None])
        & (y >= (box[:, 1] - psi)[:, None])
        & (y <= (box[:, 3] + psi)[:, None])
    )
    served = member.any(axis=1)
    visited = served.copy()
    visited[1:] &= frame.sub[1:] > 0
    rows = np.flatnonzero(served)
    member = member[rows]
    low, high = dict(axis=1, initial=np.inf), dict(axis=1, initial=-np.inf)
    envelopes = np.full((served.size, 4), np.nan)
    envelopes[rows, 0] = np.where(member, x, np.inf).min(**low) - psi
    envelopes[rows, 1] = np.where(member, y, np.inf).min(**low) - psi
    envelopes[rows, 2] = np.where(member, x, -np.inf).max(**high) + psi
    envelopes[rows, 3] = np.where(member, y, -np.inf).max(**high) + psi
    for array in (served, visited, envelopes):
        array.flags.writeable = False
    return served, visited, envelopes


class DivisionPlan:
    """One walk divided over every q-node of a tree frame: the walk's
    stops (the facility restricted to the indexed space, dressed for its
    runtime), the arrays :func:`divide` made of their coordinates and,
    for a walk a runtime's cache keeps, its
    :class:`~repro.engine.cache.WalkRecord`."""

    __slots__ = ("stops", "served", "visited", "envelopes", "record")

    def __init__(self, stops: StopSet, division, record=None) -> None:
        self.stops, self.record = stops, record
        self.served, self.visited, self.envelopes = division


def _scan_candidates(
    frame: TreeFrame, nodes: np.ndarray, embr: np.ndarray, mode: str
) -> Tuple[np.ndarray, np.ndarray]:
    """The TQ(B) filter over the lists of ``nodes`` at once: a linear
    scan of every entry with a vectorised envelope check against its
    own node's ``embr`` row (the scan is what distinguishes TQ(B) from
    TQ(Z) — no z-order ranges to jump to).  Returns the surviving block
    rows, per node in list order, and how many survive per node."""
    counts = frame.n_own[nodes]
    rows = ranges(frame.row_off[nodes], counts)
    gov = frame.block.gov[rows]
    low, high = np.repeat(embr[:, :2], counts, axis=0), np.repeat(embr[:, 2:], counts, axis=0)
    if mode == BOTH:
        # governing start and governing end both inside the envelope
        keep = (
            (gov[:, 0:2] >= low) & (gov[:, 0:2] <= high)
            & (gov[:, 2:4] >= low) & (gov[:, 2:4] <= high)
        ).all(axis=1)
    else:
        # entry bbox meets the envelope
        keep = ((gov[:, 4:6] <= high) & (gov[:, 6:8] >= low)).all(axis=1)
    return rows[keep], kept_per_run(keep, counts)


def filter_candidates(
    tree: TQTree,
    nodes: np.ndarray,
    envelopes: np.ndarray,
    mode: str,
    stops: np.ndarray,
    psi: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage 2, Algorithm 2's pruning: the lists of ``nodes`` (each with
    a list; ``envelopes[k]`` is node ``nodes[k]``'s serving envelope)
    filtered in one stacked pass against the walk's stops ``stops`` (an
    ``(m, 2)`` array) under filter form ``mode``.  Probes nothing.

    Returns ``order`` (the positions of ``nodes`` in the order the
    filter took them), the candidate block rows of those nodes end to
    end (each node's in the order its own filter yields them), and how
    many survive per node (in ``order``)."""
    frame = tree.frame()
    # z-nodes last: each filter returns its nodes' survivors end to end
    # (which node's points are probed first changes no result)
    stack = tree.zstack()
    on_z = frame.n_own[nodes] >= (_Z_MIN_LIST if stack is not None else np.inf)
    order = np.argsort(on_z, kind="stable")
    nodes, envelopes = nodes[order], envelopes[order]
    n_scan = nodes.size - int(np.count_nonzero(on_z))
    parts = []
    if n_scan:
        parts.append(_scan_candidates(frame, nodes[:n_scan], envelopes[:n_scan], mode))
    if n_scan < nodes.size:
        picked, z_counts = stack.candidates(
            stack.slot_of[nodes[n_scan:]], envelopes[n_scan:], mode, stops, psi
        )
        parts.append((stack.row[picked], z_counts))
    rows = np.concatenate([rows for rows, _counts in parts])
    counts = np.concatenate([counts for _rows, counts in parts])
    return order, rows, counts


def probe_candidates(
    block: NodeBlock,
    rows: np.ndarray,
    stops: StopSet,
    psi: float,
    stats: QueryStats,
    runtime: Optional[QueryRuntime],
) -> np.ndarray:
    """Stage 3, the exact refine: the probe points of the block rows
    ``rows`` in one CSR gather and one distance pass against ``stops``,
    returned as their coverage laid end to end in ``rows`` order.  With
    a runtime it is one :meth:`~repro.runtime.QueryRuntime.probe_mask`
    call (backend dressing plus the engine's own scheduling), without
    one the dense kernel."""
    if not rows.size:
        return np.zeros(0, dtype=bool)
    coords = block.probe_xy[ranges(block.probe_off[rows], block.probe_cnt[rows])]
    if runtime is None:
        return stops.covered_mask(coords, psi, stats)
    return runtime.probe_mask(stops, coords, psi, stats)


def score_candidates(
    table: UserPointTable,
    block: NodeBlock,
    rows: np.ndarray,
    mask: np.ndarray,
    counts: np.ndarray,
    spec: ServiceSpec,
    collector: Optional[MatchCollector],
) -> np.ndarray:
    """Stage 4, the service model's scoring rule over a whole frontier:
    ``rows`` are the candidates of ``counts.size`` nodes end to end
    (``counts[k]`` of them node ``k``'s, each node's in its own list
    order; ``rows`` index ``block``), ``mask`` the coverage of their
    probe points laid end to end in ``rows`` order.  Returns each node's
    value.

    One rule for every walk: each candidate is scored on its own
    (``bincount`` over its probes or segments, divided by ``|u|`` /
    ``length(u)`` when normalised), then a node's candidates are added
    left to right (``bincount`` over node numbers sums in array order,
    exactly like ``in_order_sum``).  ENDPOINT and raw COUNT values are
    whole numbers, so every order gives them exactly."""
    n_probes = block.probe_cnt[rows]
    ends = np.cumsum(n_probes)
    starts = ends - n_probes  # where each candidate's probes begin in mask
    if collector is not None and rows.size:
        gather = ranges(block.probe_off[rows], n_probes)
        collector.record_slots(table, block.probe_slot[gather[mask]])
    if spec.model is ServiceModel.ENDPOINT:
        # Every candidate is a whole-trajectory entry whose sorted
        # probe list starts at index 0 and ends at index n-1, so the
        # score is simply "first and last probe covered".
        value = mask[starts] & mask[ends - 1]
    elif spec.model is ServiceModel.COUNT:
        own = block.own_cnt[rows]
        owner = np.repeat(np.arange(rows.size), own)
        value = np.bincount(owner, weights=mask[ranges(starts, own)], minlength=rows.size)
        if spec.normalize:
            value = value / block.n_points[rows]
    else:
        # LENGTH: a segment contributes its length when both endpoint
        # probes are covered; normalisation divides by the owning
        # trajectory's length
        segs = block.seg_cnt[rows]
        a = ranges(starts, segs)
        served = mask[a] & mask[a + 1]
        lengths = block.seg_len[ranges(block.seg_off[rows], segs)]
        owner = np.repeat(np.arange(rows.size), segs)
        value = np.bincount(owner, weights=lengths * served, minlength=rows.size)
        if spec.normalize:
            total = block.traj_len[rows]
            value = np.divide(value, total, out=np.zeros(rows.size), where=total > 0)
    node_of = np.repeat(np.arange(counts.size), counts)
    return np.bincount(node_of, weights=value, minlength=counts.size)


def score_frontier(
    tree: TQTree,
    plan: DivisionPlan,
    nodes: np.ndarray,
    spec: ServiceSpec,
    collector: Optional[MatchCollector],
    stats: QueryStats,
    runtime: Optional[QueryRuntime],
) -> np.ndarray:
    """Algorithm 2 for a whole frontier: the service value gained from
    the entries stored *at* each of the frame nodes ``nodes`` (all
    served under ``plan``), in ``nodes`` order.

    A cache gather, then the last three stages once each: the lists of
    every node not answered by the cache are filtered in one stacked
    pass, each node against its own envelope
    (:func:`filter_candidates`), the survivors probed in **one** call
    against the plan's stop set (:func:`probe_candidates`) and scored
    in one segmented pass (:func:`score_candidates`), then the scored
    values are stored.

    Probing the walk's stops instead of each node's own part of them is
    exact: an entry sits at a node whose box holds all its probe points,
    so every stop within ``psi`` of one of them lies in that box grown
    by ``psi`` — it belongs to the node — and ``psi_hit`` on one
    (point, stop) pair does not depend on which other stops are in the
    call.

    ``runtime`` owns the probe path.  A non-collecting walk whose plan
    the runtime's cache keeps reads its nodes' values from the plan's
    record — one value column per (model, normalize), one gather — and
    stores the values it had to score there: a node's candidates are
    summed on their own, so its value does not depend on the frontier
    it was scored in.  A collecting walk always scores (its match set
    is what the cache keeps).
    """
    frame = tree.frame()
    n_own = frame.n_own[nodes]
    stats.entries_considered += int(n_own.sum())
    listed = np.flatnonzero(n_own)  # positions of the nodes with a list
    values = np.zeros(nodes.size)
    record = plan.record if collector is None else None
    column = (spec.model, spec.normalize)
    held = None if record is None else record.columns.get(column)
    hits, counts = 0, np.zeros(0, dtype=np.int64)
    if held is not None:
        ids = nodes[listed]
        known = held[0][ids]
        at, ids = listed[known], ids[known]
        values[at] = held[1][ids]
        hits = at.size
        stats.cache_hits += hits
        stats.entries_scored += int(held[2][ids].sum())
        listed = listed[~known]
    if listed.size:
        ids = nodes[listed]
        mode = candidate_mode(spec, tree.config.variant, collector is not None)
        order, rows, counts = filter_candidates(
            tree, ids, plan.envelopes[ids], mode, plan.stops.coords, spec.psi
        )
        mask = probe_candidates(frame.block, rows, plan.stops, spec.psi, stats, runtime)
        stats.entries_scored += rows.size
        listed = listed[order]
        values[listed] = score_candidates(
            tree.table, frame.block, rows, mask, counts, spec, collector
        )
    if record is not None:
        runtime.cache.store_column(
            record, column, nodes[listed], values[listed], counts, hits
        )
    return values


def walk_plan(
    tree: TQTree,
    facility: FacilityRoute,
    psi: float,
    runtime: Optional[QueryRuntime],
) -> DivisionPlan:
    """Algorithm 1's division for one (facility, psi) walk: the
    facility's stops — dressed by ``runtime`` — restricted to the
    indexed space grown by ``psi`` and divided over every q-node
    (:func:`divide`).  Those stops are what every probe of the walk
    runs against.

    With a runtime the plan carries the walk's record in its cache,
    found by facility id, ``psi``, node-table generation and the
    facility's own stop coordinates.  A hit divides, dresses and
    restricts nothing: the walk gets an unprobed copy of the stop set
    kept there."""
    frame = tree.frame()
    if runtime is None:
        stops = StopSet.of_facility(facility).restricted_to(tree.space.expanded(psi))
        return DivisionPlan(stops, divide(frame, stops.coords, psi))
    key = (facility.facility_id, psi, frame.generation)
    record = runtime.cache.lookup_record(key, facility.stop_coords)
    if record is not None:
        return DivisionPlan(record.stops.unprobed(), record.division, record)
    dressed = runtime.stop_set(StopSet.of_facility(facility), psi)
    stops = dressed.restricted_to(tree.space.expanded(psi))
    division = divide(frame, stops.coords, psi)
    record = runtime.cache.store_record(key, facility.stop_coords, division, stops.unprobed())
    return DivisionPlan(stops, division, record)


def evaluate_core(
    tree: TQTree,
    facility: FacilityRoute,
    spec: ServiceSpec,
    collector: Optional[MatchCollector] = None,
    runtime: Optional[QueryRuntime] = None,
) -> Tuple[float, QueryStats]:
    """The pure step behind :func:`evaluate_service`: Algorithm 1 as
    plan, filter, one refine — returning ``(service value, work
    counters)`` without touching any shared state beyond the runtime's
    caches.

    The plan names every node the paper's recursion would reach;
    :func:`score_frontier` scores them all at once; the per-node values
    are then added up the way the recursion nests them — a node's total
    is its own value plus its children's totals in child order — so
    normalised COUNT / LENGTH sums round exactly as before.

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
    plan = walk_plan(tree, facility, spec.psi, runtime)
    reached = np.flatnonzero(plan.visited)
    if not reached.size:
        return 0.0, local
    local.nodes_visited += reached.size
    values = score_frontier(tree, plan, reached, spec, collector, local, runtime).tolist()
    # children come after their parent in pre-order, so walking the
    # reached nodes backwards finds every child's total already made
    total: Dict[int, float] = {}
    children = tree.frame().children[reached].tolist()
    for i, own, kids in zip(reached.tolist()[::-1], values[::-1], children[::-1]):
        for child in kids:
            if child in total:
                own += total[child]
        total[i] = own
    return total[0], local


def evaluate_service(
    tree: TQTree,
    facility: FacilityRoute,
    spec: ServiceSpec,
    collector: Optional[MatchCollector] = None,
    stats: Optional[QueryStats] = None,
    runtime: Optional[QueryRuntime] = None,
) -> float:
    """Algorithm 1: the full service value ``SO(U, f)`` of one facility.

    The facility is divided over the quadrants: nodes whose region the
    facility cannot serve are pruned, and every reached node's own list
    is scored via Algorithm 2.  ``runtime`` owns the probe path — how
    exact distance checks execute (dense broadcast, stop grid or
    cellstrings, on the calling thread — identical results) — memoises
    the walk's division plan and per-node values in its cache, and
    accrues this evaluation's work into its grand total.

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
