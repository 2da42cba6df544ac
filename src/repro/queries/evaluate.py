"""Service evaluation over a TQ-tree (paper Algorithms 1 and 2).

The paper's evaluation is filter-then-refine, and this module runs it a
*frontier* at a time rather than a q-node at a time:

1. **plan** — Algorithm 1's division of the facility over the quadrants,
   for the whole tree at once (:class:`~repro.queries.components
   .DivisionPlan` over the tree's :class:`~repro.index.frame.TreeFrame`):
   which nodes' components are non-empty, which nodes the walk reaches,
   each component's serving envelope;
2. **filter** — Algorithm 2's pruning over every reached list in one
   pass: on TQ(Z) nodes ``zReduce`` through the stacked z-structures
   (:meth:`~repro.index.frame.ZStack.candidates`), on TQ(B) nodes and
   short lists a linear scan with a cheap per-entry envelope check (this
   *is* the paper's TQ(B): no ordering to exploit);
3. **refine** — the survivors' probe points in one CSR gather and one
   exact ``psi``-distance call against the walk's stops, and the whole
   frontier's mask scored by the service model's rule in one segmented
   pass (per entry, then per node in list order).

:func:`score_frontier` is steps 2 and 3 for any set of nodes and the only
implementation behind :func:`evaluate_service` (frontier = every node
the walk reaches), kMaxRRST's relax and ancestor scans
(:mod:`repro.queries.kmaxrrst`), the collecting MaxkCovRST walk and
:func:`evaluate_node_trajectories` (a frontier of one).  No Python loop
runs over entries.

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
for the same facility, ancestor scans across kMaxRRST relax rounds —
gathers the values it knows and scores only the rest; a collecting walk
always scores (:func:`~repro.queries.maxkcov.core_match_fn` keeps its
match set on the record instead).  It also
accrues this evaluation's work counters into the runtime's grand total.
No backend, grid, or cache type is plumbed through this module
directly.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

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
from .components import DivisionPlan, FacilityComponent, divide

__all__ = [
    "QueryStats",
    "FrontierScores",
    "MatchCollector",
    "candidate_mode",
    "score_frontier",
    "walk_plan",
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


def _score_candidates(
    table: UserPointTable,
    block: NodeBlock,
    rows: np.ndarray,
    mask: np.ndarray,
    counts: np.ndarray,
    spec: ServiceSpec,
    collector: Optional[MatchCollector],
) -> np.ndarray:
    """The service model's scoring rule over a whole frontier: ``rows``
    are the candidates of ``counts.size`` nodes end to end (``counts[k]``
    of them node ``k``'s, each node's in its own list order; ``rows``
    index ``block``), ``mask`` the coverage of their probe points laid
    end to end in ``rows`` order.  Returns each node's value.

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


def _filter_and_probe(
    tree: TQTree,
    plan: DivisionPlan,
    nodes: np.ndarray,
    spec: ServiceSpec,
    collecting: bool,
    stats: QueryStats,
    runtime: Optional[QueryRuntime],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Filter the lists of ``nodes`` in one stacked pass and probe all
    survivors in one call.  Returns ``order`` (the positions of
    ``nodes`` in the order the filter took them), the candidate block
    rows of those nodes end to end (each node's in the order its own
    filter yields them), how many survive per node (in ``order``), and
    their probe points' coverage laid end to end."""
    frame = tree.frame()
    block = frame.block
    component = plan.component
    # z-nodes last: each filter returns its nodes' survivors end to end
    # (which node's points are probed first changes no result)
    stack = tree.zstack()
    on_z = frame.n_own[nodes] >= (_Z_MIN_LIST if stack is not None else np.inf)
    order = np.argsort(on_z, kind="stable")
    nodes = nodes[order]
    n_scan = nodes.size - int(np.count_nonzero(on_z))
    mode = candidate_mode(spec, tree.config.variant, collecting)
    embr = plan.envelopes[nodes]
    parts = []
    if n_scan:
        parts.append(_scan_candidates(frame, nodes[:n_scan], embr[:n_scan], mode))
    if n_scan < nodes.size:
        picked, z_counts = stack.candidates(
            stack.slot_of[nodes[n_scan:]], embr[n_scan:], mode,
            component.stops.coords, spec.psi,
        )
        parts.append((stack.row[picked], z_counts))
    rows = np.concatenate([rows for rows, _counts in parts])
    counts = np.concatenate([counts for _rows, counts in parts])
    # one distance pass over every survivor's probe points; with a
    # runtime it rides the probe path (backend dressing plus the
    # engine's own scheduling), without one it is the dense kernel
    n_probes = block.probe_cnt[rows]
    if rows.size:
        coords = block.probe_xy[ranges(block.probe_off[rows], n_probes)]
        if runtime is not None:
            mask = runtime.probe_mask(component.stops, coords, spec.psi, stats)
        else:
            mask = component.stops.covered_mask(coords, spec.psi, stats)
    else:
        mask = np.zeros(0, dtype=bool)
    return order, rows, counts, mask


class FrontierScores(NamedTuple):
    """What :func:`score_frontier` found, per node of its frontier."""

    values: np.ndarray  # the value the node's own list adds
    counts: np.ndarray  # the candidates scoring that value took
    cached: np.ndarray  # was the value read from the walk record?


def score_frontier(
    tree: TQTree,
    plan: DivisionPlan,
    nodes: np.ndarray,
    spec: ServiceSpec,
    collector: Optional[MatchCollector],
    stats: QueryStats,
    runtime: Optional[QueryRuntime],
) -> FrontierScores:
    """Algorithm 2 for a whole frontier: the service value gained from
    the entries stored *at* each of the frame nodes ``nodes`` (all with
    a non-empty component under ``plan``), in ``nodes`` order, with how
    many candidates each value took and whether the cache knew it.

    Filter, then refine once, then score once: the lists of every node
    not answered by the cache go through one stacked filter pass
    (``zReduce`` over the z-nodes, an envelope scan over the rest — each
    node against its own component's envelope), the survivors' probe
    points are gathered in one CSR read and probed in **one** call
    against the plan's stop set, and their candidates are scored in one
    segmented pass (:func:`_score_candidates`).

    Probing the walk's stops instead of each node's own component is
    exact: an entry sits at a node whose box holds all its probe points,
    so every stop within ``psi`` of one of them lies in that box grown
    by ``psi`` — it *is* a member of the node's component — and
    ``psi_hit`` on one (point, stop) pair does not depend on which other
    stops are in the call.

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
    values, scored = np.zeros(nodes.size), np.zeros(nodes.size, dtype=np.int64)
    cached = np.zeros(nodes.size, dtype=bool)
    record = plan.record if collector is None else None
    column = (spec.model, spec.normalize)
    held = None if record is None else runtime.cache.read_column(record, column)
    hits, counts = 0, np.zeros(0, dtype=np.int64)
    if held is not None:
        ids = nodes[listed]
        known = held[0][ids]
        at, ids = listed[known], ids[known]
        count = held[2][ids]
        values[at], scored[at], cached[at] = held[1][ids], count, True
        hits = at.size
        stats.cache_hits += hits
        stats.entries_scored += int(count.sum())
        listed = listed[~known]
    if listed.size:
        order, rows, counts, mask = _filter_and_probe(
            tree, plan, nodes[listed], spec, collector is not None, stats, runtime
        )
        stats.entries_scored += rows.size
        listed = listed[order]
        values[listed] = _score_candidates(
            tree.table, frame.block, rows, mask, counts, spec, collector
        )
        scored[listed] = counts
    if record is not None:
        runtime.cache.store_column(
            record, column, nodes[listed], values[listed], counts, hits
        )
    return FrontierScores(values, scored, cached)


def walk_plan(
    tree: TQTree,
    facility: FacilityRoute,
    psi: float,
    runtime: Optional[QueryRuntime],
) -> DivisionPlan:
    """Algorithm 1's division for one (facility, psi) walk: the facility
    — its stops dressed by ``runtime`` — restricted to the indexed space
    and divided over every q-node.  The root component is what every
    probe of the walk runs against.

    With a runtime the plan carries the walk's record in its cache,
    found by facility id, ``psi``, node-table generation and the
    facility's own stop coordinates.  A hit divides, dresses and
    restricts nothing: the walk gets an unprobed copy of the stop set
    kept there."""
    frame = tree.frame()
    if runtime is None:
        component = FacilityComponent.whole(facility, psi).restricted_to(tree.space)
        return DivisionPlan(component, divide(frame, component.stops.coords, psi))
    key = (facility.facility_id, psi, frame.generation)
    record = runtime.cache.lookup_record(key, facility.stop_coords)
    if record is not None:
        component = FacilityComponent(facility.facility_id, record.stops.unprobed(), psi)
        return DivisionPlan(component, record.division, record)
    dressed = runtime.stop_set(StopSet.of_facility(facility), psi)
    component = FacilityComponent(facility.facility_id, dressed, psi).restricted_to(tree.space)
    division = divide(frame, component.stops.coords, psi)
    kept = component.stops.unprobed()
    record = runtime.cache.store_record(key, facility.stop_coords, division, kept)
    return DivisionPlan(component, record.division, record)


def evaluate_node_trajectories(
    tree: TQTree,
    node: int,
    component: FacilityComponent,
    spec: ServiceSpec,
    collector: Optional[MatchCollector] = None,
    stats: Optional[QueryStats] = None,
    runtime: Optional[QueryRuntime] = None,
) -> float:
    """Algorithm 2: score the entries stored *at* node number ``node``
    (0 is the root) against the facility component.  Returns the service
    value gained.

    A frontier of one: ``component`` is divided over the tree like any
    walk's, and the node is scored by :func:`score_frontier` against
    the part of it that can serve the node's region.  ``component`` may
    be any part of a facility, so no cached walk record is read or
    written: ``runtime`` only probes.
    """
    runtime = coerce_runtime(runtime)
    plan = DivisionPlan(
        component, divide(tree.frame(), component.stops.coords, component.psi)
    )
    if not plan.served[node]:
        return 0.0
    return score_frontier(
        tree, plan, np.array([node]), spec, collector,
        stats if stats is not None else QueryStats(), runtime,
    ).values.tolist()[0]


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
    values = score_frontier(tree, plan, reached, spec, collector, local, runtime).values.tolist()
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
