"""The frontier-at-a-time query path held to what it replaced.

Algorithms 1 / 2 run as plan -> stacked filter -> one probe over a
tree-wide frame.  Each test here pins one premise of that design:

(a) containment — every probe point of a q-node's block and every leaf
    cell of its z-grids lies inside the node's box (why probing the
    walk's stops equals probing the node's own component);
(b) the plan — which nodes are served, reach set and serving envelope equal
    the stops restricted to each node's grown box and the paper's
    recursion, bit for bit;
(c) the filter stage — per-node survivors equal the list-of-entries
    reference ``zReduce`` of ``tests/strategies.py`` and the per-node
    envelope scan, order included, on both sides of ``_Z_MIN_LIST``;
(d) mutation safety — a stateful machine interleaving inserts, warming
    and queries, held after every step to a freshly built tree (answers,
    work counters, every z-stack column) and to the brute-force oracle;
(e) shape — a walk makes at most one ``probe_mask`` call, a cached walk
    none, the filter stage none and the probe stage one, and a warmed
    tree builds nothing inside its first query;
(f) scoring — a frontier scored in one segmented pass gives every node
    the value it gets alone and the per-entry reference loop gives it,
    bit for bit;
(g) the walk cache — a walk through a runtime divides once per
    facility, ``psi`` and node-table generation, and never serves a plan
    or a node value of another tree, another table version or other
    stops;
(h) warm == cold — any interleaving of queries and inserts answers
    through one runtime what it answers with none.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import (
    BBox,
    FacilityRoute,
    IndexVariant,
    QueryError,
    QueryRuntime,
    ServiceModel,
    ServiceSpec,
    TQTree,
    Trajectory,
    brute_force_matches,
    brute_force_service,
    build_full,
    build_segmented,
    build_tq_basic,
    build_tq_zorder,
    evaluate_service,
    maxkcov_tq,
    top_k_facilities,
)
from repro.core.config import ProximityBackend, RuntimeConfig
from repro.core.service import StopSet
from repro.core.stats import QueryStats
from repro.core.trajectory import ranges
from repro.engine import CellstringStopSet, GriddedStopSet
from repro.index import NodeBlock, TreeFrame, ZStack
from repro.index.frame import ANY, BBOX, BOTH
from repro.queries import BlockCosts, MatchCollector, estimate_query_blocks
from repro.queries import evaluate as evaluate_module
from repro.queries.evaluate import walk_plan

from .strategies import (
    box_row,
    ref_candidates,
    ref_entries,
    ref_keys,
    ref_node_value,
    z_node,
)

SPACE = BBox(0.0, 0.0, 1024.0, 1024.0)

BUILDERS = {
    "tq_zorder": lambda users: build_tq_zorder(users, beta=4, space=SPACE),
    "tq_basic": lambda users: build_tq_basic(users, beta=4, space=SPACE),
    "segmented": lambda users: build_segmented(users, beta=4, space=SPACE),
    "full": lambda users: build_full(users, beta=4, space=SPACE),
}
#: Builders whose variant indexes source and destination only.
TWO_POINT = ("tq_zorder", "tq_basic")


def _users(n: int, seed: int, two_point: bool):
    """Integer coordinates and axis-aligned steps: raw COUNT / LENGTH
    sums are whole numbers, so trees of any shape agree to the bit."""
    rng = np.random.default_rng(seed)
    users = []
    for i in range(n):
        x, y = (int(v) for v in rng.integers(0, 900, size=2))
        pts = [(x, y)]
        for _ in range(1 if two_point else int(rng.integers(1, 5))):
            step = int(rng.integers(1, 160))
            if rng.random() < 0.5:
                x = min(x + step, 1024)
            else:
                y = min(y + step, 1024)
            pts.append((x, y))
        users.append(Trajectory(i, pts))
    return users


def _grown_and_bulk(name: str, seed: int = 7):
    """Per builder: a bulk-built tree, and one grown by inserts that
    split leaves (both warmed)."""
    users = _users(70, seed, name in TWO_POINT)
    bulk = BUILDERS[name](users)
    grown = BUILDERS[name](users[:20])
    grown.warm_zindex()
    for u in users[20:]:
        grown.insert(u)
    assert len(grown.frame()) > 5
    return [bulk, grown]


def _box(frame, i) -> BBox:
    return BBox(*frame.box[i].tolist())


def _specs(tree: TQTree, psi: float):
    out = []
    for model in ServiceModel:
        spec = ServiceSpec(model, psi=psi, normalize=False)
        try:
            tree.validate_spec(spec)
        except QueryError:
            continue
        out.append(spec)
    return out


@pytest.fixture
def z_on_short_lists():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluate_module, "_Z_MIN_LIST", 0)
        yield


# ----------------------------------------------------------------------
# (a) containment
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_probe_points_and_z_cells_lie_inside_their_node(name):
    for tree in _grown_and_bulk(name):
        tree.warm_zindex()
        frame = tree.frame()
        for i in range(len(frame)):
            box, lo, hi = _box(frame, i), frame.row_off[i], frame.row_off[i + 1]
            xy = frame.block.probe_xy[frame.block.probe_off[lo] : frame.block.probe_off[hi]]
            assert np.all(
                (xy[:, 0] >= box.xmin) & (xy[:, 0] <= box.xmax)
                & (xy[:, 1] >= box.ymin) & (xy[:, 1] <= box.ymax)
            )
            stack = tree.zstack()
            if stack is None or not frame.n_own[i]:
                continue
            k = stack.slot_of[i]
            cells = stack.cell_box[stack.cell_off[k] : stack.cell_off[k + 1]]
            assert cells.shape[0] >= 2  # a start and an end partition
            assert np.all(
                (cells[:, 0] >= box.xmin) & (cells[:, 2] <= box.xmax)
                & (cells[:, 1] >= box.ymin) & (cells[:, 3] <= box.ymax)
            )


# ----------------------------------------------------------------------
# (b) the plan vs restricted_to and the recursion
# ----------------------------------------------------------------------
def _restricted(stops: StopSet, box: BBox, psi: float) -> StopSet:
    """The stops that can serve region ``box``: those within ``box ⊕ psi``."""
    return stops.restricted_to(box.expanded(psi))


def _reached_by_recursion(tree: TQTree, whole: StopSet, psi: float):
    """Algorithm 1's walk, the way the recursion made it, over the
    node table's ``children`` rows."""
    frame = tree.frame()
    reached = []

    def rec(i, stops):
        if stops.is_empty:
            return
        reached.append(i)
        for child in frame.children[i].tolist():
            if child < 0 or frame.sub[child] == 0:
                continue
            rec(child, _restricted(stops, _box(frame, child), psi))

    rec(0, _restricted(whole, tree.space, psi))
    return reached


def _edge_stops(tree: TQTree, psi: float, rng):
    """Stops on q-node edges and corners, exactly ``psi`` outside them,
    and well outside the indexed space."""
    frame = tree.frame()
    boxes = [_box(frame, i) for i in range(len(frame))]
    picked = [boxes[int(i)] for i in rng.integers(0, len(boxes), size=4)]
    stops = []
    for b in picked:
        stops += [
            (b.xmin, b.ymin), (b.xmax, (b.ymin + b.ymax) / 2),
            (b.xmin - psi, b.ymax + psi), (b.xmax + psi, b.ymin),
        ]
    stops += [(-500.0, 300.0), (1024.0 + psi, 1024.0), (5000.0, 5000.0)]
    return stops


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("psi", [0.0, 37.5, 300.0])
def test_plan_equals_restricted_to_at_every_node(name, psi):
    rng = np.random.default_rng(3)
    for tree in _grown_and_bulk(name):
        frame = tree.frame()
        facilities = [
            FacilityRoute(0, _edge_stops(tree, psi, rng)),
            FacilityRoute(1, [(int(x), int(y)) for x, y in rng.integers(0, 1024, (9, 2))]),
            FacilityRoute(2, [(-900.0, -900.0), (4000.0, 10.0)]),  # serves nothing
        ]
        for f in facilities:
            whole = StopSet.of_facility(f)
            plan = walk_plan(tree, f, psi, None)
            want_reached = _reached_by_recursion(tree, whole, psi)
            assert np.flatnonzero(plan.visited).tolist() == want_reached
            nonempty = []
            for i in range(len(frame)):
                want = _restricted(whole, _box(frame, i), psi)
                assert plan.served[i] == (not want.is_empty)
                if not want.is_empty:
                    nonempty.append((i, want.embr(psi)))
            rows = plan.envelopes[np.array([i for i, _ in nonempty], dtype=np.int64)]
            for row, (_, embr) in zip(rows.tolist(), nonempty):
                assert row == [embr.xmin, embr.ymin, embr.xmax, embr.ymax]
        assert not walk_plan(tree, facilities[2], psi, None).visited.any()


# ----------------------------------------------------------------------
# (c) the stacked filter vs the per-node filters
# ----------------------------------------------------------------------
def _envelope_scan(gov: np.ndarray, embr: BBox, both: bool) -> np.ndarray:
    """The per-node TQ(B) envelope test, as the recursion ran it."""
    if both:
        mask = (
            (gov[:, 0] >= embr.xmin) & (gov[:, 0] <= embr.xmax)
            & (gov[:, 1] >= embr.ymin) & (gov[:, 1] <= embr.ymax)
            & (gov[:, 2] >= embr.xmin) & (gov[:, 2] <= embr.xmax)
            & (gov[:, 3] >= embr.ymin) & (gov[:, 3] <= embr.ymax)
        )
    else:
        mask = (
            (gov[:, 4] <= embr.xmax) & (gov[:, 6] >= embr.xmin)
            & (gov[:, 5] <= embr.ymax) & (gov[:, 7] >= embr.ymin)
        )
    return np.flatnonzero(mask)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_stacked_filter_equals_per_node_filters(name):
    """The filter stage over a walk's listed nodes: nodes with lists
    shorter than ``_Z_MIN_LIST`` (and every TQ(B) node) come first, in
    order, each scanned like the recursion's envelope test; the rest are
    ``zReduce``'s survivors — with every node on the scan side, every
    node on the z side, and the lists split between the two."""
    rng = np.random.default_rng(5)
    seen = set()
    for tree in _grown_and_bulk(name):
        frame = tree.frame()
        stack = tree.zstack()
        for psi in (0.0, 60.0, 250.0):
            stops = [(int(x), int(y)) for x, y in rng.integers(0, 1024, (6, 2))]
            whole = StopSet.of_facility(FacilityRoute(0, stops))
            plan = walk_plan(tree, FacilityRoute(0, stops), psi, None)
            listed = np.flatnonzero(plan.visited & (frame.n_own > 0))
            if not listed.size:
                continue
            embr = plan.envelopes[listed]
            parts = [_restricted(whole, _box(frame, i), psi) for i in listed]
            lengths = np.unique(frame.n_own[listed])
            for z_min, mode in itertools.product(
                (0, int(lengths[lengths.size // 2]), evaluate_module._Z_MIN_LIST),
                (BOTH, ANY, BBOX),
            ):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(evaluate_module, "_Z_MIN_LIST", z_min)
                    order, rows, counts = evaluate_module.filter_candidates(
                        tree, listed, embr, mode, plan.stops.coords, psi
                    )
                on_z = (frame.n_own[listed] >= z_min) & (stack is not None)
                assert order.tolist() == (
                    np.flatnonzero(~on_z).tolist() + np.flatnonzero(on_z).tolist()
                )
                seen.update(on_z.tolist())
                cuts = np.cumsum(counts)[:-1]
                for k, got in zip(order.tolist(), np.split(rows, cuts)):
                    i, part = int(listed[k]), parts[k]
                    if not on_z[k]:
                        gov = frame.block.gov[frame.row_off[i] : frame.row_off[i + 1]]
                        want = _envelope_scan(gov, part.embr(psi), mode == BOTH)
                        assert (got - frame.row_off[i]).tolist() == want.tolist()
                        continue
                    node = z_node(stack, stack.slot_of[i], _box(frame, i))
                    entries = ref_entries(node, tree.table, frame.block, tree.config.variant)
                    want = ref_candidates(
                        mode, node, entries, ref_keys(node, entries), tree.config.beta,
                        part.embr(psi), part.coords, psi,
                    )
                    assert got.tolist() == node.order[want].tolist()
    assert seen == ({False} if name.endswith("basic") else {False, True})


def _blocks_by_walking(tree: TQTree, facility, spec: ServiceSpec) -> BlockCosts:
    """The block-I/O pricing as a node-by-node walk over the
    ``children`` rows — the form ``estimate_query_blocks`` had before it
    read the plan."""
    costs = BlockCosts()
    beta, variant = tree.config.beta, tree.config.variant
    stack, frame = tree.zstack(), tree.frame()

    def walk(i, stops):
        if stops.is_empty:
            return
        costs.node_blocks += 1
        n_own = int(frame.row_off[i + 1] - frame.row_off[i])
        if n_own and stack is None:
            costs.list_blocks += -(-n_own // beta)
        elif n_own:
            costs.directory_blocks += 2
            if variant is IndexVariant.FULL and spec.model is not ServiceModel.ENDPOINT:
                mode = BBOX
            elif spec.model is ServiceModel.ENDPOINT or (
                spec.model is ServiceModel.LENGTH and variant is not IndexVariant.FULL
            ):
                mode = BOTH
            else:
                mode = ANY
            picked, _counts = stack.candidates(
                stack.slot_of[[i]],
                np.array([box_row(stops.embr(spec.psi))]),
                mode, stops.coords, spec.psi,
            )
            costs.list_blocks += np.unique(stack.bucket[picked]).size
        for child in frame.children[i].tolist():
            if child >= 0 and frame.sub[child]:
                walk(child, _restricted(stops, _box(frame, child), spec.psi))

    walk(0, _restricted(StopSet.of_facility(facility), tree.space, spec.psi))
    return costs


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_block_costs_equal_the_node_by_node_pricing(name):
    for tree in _grown_and_bulk(name):
        for psi in (0.0, 90.0, 400.0):
            for spec in _specs(tree, psi):
                for f in _ROUTES + [FacilityRoute(9, [(-900.0, -900.0)])]:
                    assert estimate_query_blocks(tree, f, spec) == _blocks_by_walking(
                        tree, f, spec
                    )


# ----------------------------------------------------------------------
# (d) mutation safety of the frame
# ----------------------------------------------------------------------
#: The stats a warm cache leaves alone (it replays candidate rows, so
#: ``entries_scored`` stays; only the geometric work disappears).
_WALK_FIELDS = (
    "nodes_visited", "entries_considered", "entries_scored",
    "states_relaxed", "states_pruned",
)

_ROUTES = [
    FacilityRoute(j, [(60 + 110 * j + 45 * s, 70 * (s + j) % 1024) for s in range(7)])
    for j in range(4)
]


def _walks(tree: TQTree, spec: ServiceSpec, runtime):
    """One evaluate, one kMaxRRST and one collecting walk: the answers
    and the work counters each reported."""
    out = []
    stats = QueryStats()
    out.append((evaluate_service(tree, _ROUTES[0], spec, stats=stats, runtime=runtime), stats))
    top = top_k_facilities(tree, _ROUTES, 2, spec, runtime=runtime)
    out.append((top.services(), top.stats))
    stats, collector = QueryStats(), MatchCollector()
    value = evaluate_service(
        tree, _ROUTES[1], spec, collector=collector, stats=stats, runtime=runtime
    )
    out.append(((value, collector.as_dict()), stats))
    return out


def _hold_to_fresh_tree(grown: TQTree, users, name: str, runtime) -> None:
    fresh = BUILDERS[name](users)
    for spec in _specs(grown, 140.0):
        want = _walks(fresh, spec, None)
        assert _walks(grown, spec, None) == want
        for (got, got_stats), (value, stats) in zip(_walks(grown, spec, runtime), want):
            assert got == value
            for field in _WALK_FIELDS:
                assert getattr(got_stats, field) == getattr(stats, field)
        assert want[0][0] == brute_force_service(users, _ROUTES[0], spec)
        assert want[1][0] == tuple(
            sorted((brute_force_service(users, f, spec) for f in _ROUTES), reverse=True)[:2]
        )
        assert want[2][0] == (
            brute_force_service(users, _ROUTES[1], spec),
            brute_force_matches(users, _ROUTES[1], spec.psi),
        )


class FrameMutations(RuleBasedStateMachine):
    """Inserts, warming and queries in any order; after every step the
    grown tree must answer — values and work counters — like one built
    from scratch over the same users, from the same z-stack columns."""

    @initialize(name=st.sampled_from(sorted(BUILDERS)), n=st.integers(0, 12))
    def build(self, name, n):
        self.name = name
        self.pending = _users(40, seed=11, two_point=name in TWO_POINT)
        self.users = [self.pending.pop(0) for _ in range(n)]
        self.tree = BUILDERS[name](self.users)
        self.runtime = QueryRuntime()

    @rule(k=st.integers(1, 6))
    def insert(self, k):
        for _ in range(min(k, len(self.pending))):
            self.users.append(self.pending.pop(0))
            self.tree.insert(self.users[-1])

    @rule()
    def warm(self):
        self.tree.warm_zindex()

    @rule()
    def query(self):
        """Fills the frame, the blocks and the runtime's cache with the
        current lists — what a later insert must not leave behind."""
        for spec in _specs(self.tree, 140.0):
            _walks(self.tree, spec, self.runtime)

    @invariant()
    def answers_like_a_fresh_tree(self):
        if hasattr(self, "tree"):
            _hold_to_fresh_tree(self.tree, self.users, self.name, self.runtime)

    @invariant()
    def stacks_like_a_fresh_tree(self):
        if hasattr(self, "tree") and self.tree.config.use_zorder:
            got, want = self.tree.zstack(), BUILDERS[self.name](self.users).zstack()
            for column in ZStack.__slots__:
                assert np.array_equal(getattr(got, column), getattr(want, column)), column


FrameMutations.TestCase.settings = settings(
    max_examples=12, stateful_step_count=8, deadline=None
)


@pytest.mark.usefixtures("z_on_short_lists")
class TestFrameMutations(FrameMutations.TestCase):
    pass


@pytest.mark.usefixtures("z_on_short_lists")
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_split_that_keeps_a_list_length_rebuilds_the_frame(name):
    """One sinks, one arrives: the root list is four entries long before
    and after, so nothing but the insert itself can tell the block (and
    the cached values anchored on the table's generation) that it
    changed."""
    users = [
        Trajectory(0, [(100, 100), (900, 900)]),
        Trajectory(1, [(900, 100), (100, 900)]),
        Trajectory(2, [(100, 120), (140, 160)]),  # sinks on the split
        Trajectory(3, [(500, 100), (520, 900)]),
    ]
    newcomer = Trajectory(4, [(300, 700), (700, 300)])
    tree = BUILDERS[name](users)
    tree.warm_zindex()
    with QueryRuntime() as runtime:
        for spec in _specs(tree, 140.0):
            _walks(tree, spec, runtime)
        frame = tree.frame()
        block, generation = frame.block, frame.generation
        assert frame.n_own[0] == 4 and frame.children[0, 0] < 0
        tree.insert(newcomer)
        assert frame.n_own[0] == 4 and frame.children[0, 0] >= 0
        assert tree.frame() is frame and frame.block is not block
        assert frame.generation != generation
        _hold_to_fresh_tree(tree, users + [newcomer], name, runtime)


@pytest.mark.engine_smoke
def test_an_insert_rewalks_every_node():
    """Cached values are anchored on the node table's generation, which
    every insert renews (a split included): the same walk after an
    insert hits on no node, scores every listed node again and answers
    what the oracle answers; the walk after that hits on every one."""
    users = _users(75, seed=2, two_point=True)
    tree = BUILDERS["tq_zorder"](users[:50])
    spec = ServiceSpec(ServiceModel.ENDPOINT, psi=2048.0)  # reaches every node
    seen = {"split": 0, "insert": 0}
    with QueryRuntime() as runtime:
        evaluate_service(tree, _ROUTES[0], spec, runtime=runtime)
        for n in range(50, len(users)):
            frame = tree.frame()
            n_nodes = len(frame)
            tree.insert(users[n])
            seen["split" if len(frame) > n_nodes else "insert"] += 1
            listed = int(np.count_nonzero(frame.n_own))
            want = brute_force_service(users[: n + 1], _ROUTES[0], spec)
            for cache_hits in (0, listed):
                stats = QueryStats()
                value = evaluate_service(tree, _ROUTES[0], spec, stats=stats, runtime=runtime)
                assert value == want and stats.cache_hits == cache_hits
    assert seen["split"] and seen["insert"]


@pytest.mark.engine_smoke
def test_equal_trees_sharing_a_runtime_share_no_node_results():
    """Generations come from one counter for the whole process: a second
    tree equal to the first, walked through the same runtime, misses on
    every node it scores, and answers what the oracle answers."""
    users = _users(60, seed=2, two_point=True)
    spec = ServiceSpec(ServiceModel.ENDPOINT, psi=2048.0)
    first, second = BUILDERS["tq_zorder"](users), BUILDERS["tq_zorder"](users)
    assert np.array_equal(first.frame().rows, second.frame().rows)
    with QueryRuntime() as runtime:
        evaluate_service(first, _ROUTES[0], spec, runtime=runtime)
        misses, stats = runtime.cache.misses, QueryStats()
        value = evaluate_service(second, _ROUTES[0], spec, stats=stats, runtime=runtime)
        assert stats.cache_hits == 0
        assert runtime.cache.misses - misses == np.count_nonzero(second.frame().n_own) > 1
    assert value == brute_force_service(users, _ROUTES[0], spec)


# ----------------------------------------------------------------------
# (e) shape: probe calls per walk, nothing built inside a warmed query
# ----------------------------------------------------------------------
@pytest.mark.engine_smoke
def test_one_probe_call_per_walk_and_none_when_cached(
    probe_calls, taxi_users, checkin_users, facilities
):
    legs = [
        (build_tq_zorder(taxi_users, beta=16), ServiceModel.ENDPOINT),
        (build_tq_basic(taxi_users, beta=16), ServiceModel.ENDPOINT),
        (build_segmented(checkin_users, beta=16), ServiceModel.COUNT),
        (build_full(checkin_users, beta=16), ServiceModel.LENGTH),
    ]
    for tree, model in legs:
        spec = ServiceSpec(model, psi=400.0)
        with QueryRuntime() as runtime:
            for f in facilities[:4]:
                for collector in (None, MatchCollector()):
                    del probe_calls[:]
                    stats = QueryStats()
                    value = evaluate_service(
                        tree, f, spec, collector=collector, stats=stats, runtime=runtime
                    )
                    assert len(probe_calls) <= 1
                    assert sum(probe_calls) == stats.points_scanned > 0
                    # the same walk again is answered by the cache alone;
                    # a collecting walk scores again (core_match_fn keeps
                    # its match set on the walk record)
                    del probe_calls[:]
                    again = evaluate_service(
                        tree, f, spec,
                        collector=None if collector is None else MatchCollector(),
                        runtime=runtime,
                    )
                    assert again == value
                    assert len(probe_calls) == (collector is not None)
        with QueryRuntime() as runtime:
            del probe_calls[:]
            top = top_k_facilities(tree, facilities[4:8], 1, spec, runtime=runtime)
            assert len(probe_calls) <= 4
            assert top.services() == (max(evaluate_service(tree, f, spec) for f in facilities[4:8]),)
            # kMaxRRST warmed every node an evaluate of its candidates reads
            del probe_calls[:]
            evaluate_service(tree, facilities[5], spec, runtime=runtime)
            assert probe_calls == []


@pytest.mark.engine_smoke
@pytest.mark.parametrize(
    "backend, dressed",
    [
        (ProximityBackend.DENSE, StopSet),
        (ProximityBackend.GRID, GriddedStopSet),
        (ProximityBackend.CELLSTRING, CellstringStopSet),
    ],
)
def test_the_filter_stage_probes_nothing_and_the_probe_stage_once(
    probe_calls, taxi_users, facilities, backend, dressed
):
    """Over every reached listed node of a walk, the filter stage makes
    no ``probe_mask`` call and the probe stage over its rows exactly
    one, over every candidate probe point; the probe stage's mask is
    ``StopSet.covered_mask``'s of those points, with the runtime's
    dressed stops and without a runtime."""
    spec = ServiceSpec(ServiceModel.COUNT, psi=400.0)
    for tree in (build_tq_zorder(taxi_users, beta=16), build_tq_basic(taxi_users, beta=16)):
        frame = tree.frame()
        mode = evaluate_module.candidate_mode(spec, tree.config.variant, False)
        with QueryRuntime(RuntimeConfig(backend=backend)) as runtime:
            for f in facilities[:4]:
                plan = walk_plan(tree, f, spec.psi, runtime)
                assert type(plan.stops) is dressed
                listed = np.flatnonzero(plan.visited & (frame.n_own > 0))
                del probe_calls[:]
                _order, rows, _counts = evaluate_module.filter_candidates(
                    tree, listed, plan.envelopes[listed], mode, plan.stops.coords, spec.psi
                )
                assert listed.size and rows.size and probe_calls == []
                mask = evaluate_module.probe_candidates(
                    frame.block, rows, plan.stops, spec.psi, QueryStats(), runtime
                )
                coords = frame.block.probe_xy[
                    ranges(frame.block.probe_off[rows], frame.block.probe_cnt[rows])
                ]
                assert probe_calls == [len(coords)]
                want = StopSet(plan.stops.coords).covered_mask(coords, spec.psi)
                assert mask.any() and np.array_equal(mask, want)
                bare = evaluate_module.probe_candidates(
                    frame.block, rows, plan.stops, spec.psi, QueryStats(), None
                )
                assert probe_calls == [len(coords)] and np.array_equal(bare, want)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_a_warmed_tree_builds_nothing_inside_its_first_query(name, z_on_short_lists):
    tree = BUILDERS[name](_users(60, seed=4, two_point=name in TWO_POINT))
    tree.warm_zindex()
    built = []
    with pytest.MonkeyPatch.context() as patch:
        for cls in (NodeBlock, TreeFrame, ZStack):
            def init(self, *args, _cls=cls, **kwargs):
                built.append(_cls.__name__)
            patch.setattr(cls, "__init__", init)
        for spec in _specs(tree, 140.0):
            _walks(tree, spec, None)
    assert built == []
    # ... and an unwarmed one builds its block there, so the guard can fail
    cold = BUILDERS[name](_users(60, seed=4, two_point=name in TWO_POINT))
    counted = []
    with pytest.MonkeyPatch.context() as patch:
        inner = NodeBlock.__init__
        patch.setattr(
            NodeBlock, "__init__",
            lambda self, *a, **k: (counted.append(1), inner(self, *a, **k))[1],
        )
        _walks(cold, _specs(cold, 140.0)[0], None)
    assert counted == [1]


# ----------------------------------------------------------------------
# (f) scoring: one segmented pass per frontier
# ----------------------------------------------------------------------
@pytest.mark.engine_smoke
@pytest.mark.usefixtures("z_on_short_lists")
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize(
    "name, model",
    [
        (name, model)
        for name in sorted(BUILDERS)
        for model in ServiceModel
        # a segment entry has no source-and-destination pair to score
        if not (name == "segmented" and model is ServiceModel.ENDPOINT)
    ],
)
def test_a_frontier_scores_bitwise_like_its_nodes_one_by_one(name, model, normalize):
    """A frontier's per-node values ``==`` each node scored as a frontier
    of one, ``==`` the per-entry reference loop of ``tests/strategies.py``
    (and through a half-warm cache); collecting walks score ``==``
    non-collecting ones; a collecting walk's matches are the oracle's."""
    users = _users(70, 7, name in TWO_POINT)
    rng = np.random.default_rng(11)
    seen_empty = seen_unserved = 0
    for tree in _grown_and_bulk(name):
        for psi, f in [(psi, f) for psi in (60.0, 250.0) for f in _ROUTES]:
            spec = ServiceSpec(model, psi=psi, normalize=normalize)
            plan = walk_plan(tree, f, psi, None)
            reached = np.flatnonzero(plan.visited)
            # any node with a component, empty leaves included
            served = np.flatnonzero(plan.served)
            subsets = [reached] + [
                rng.permutation(served)[: int(rng.integers(1, served.size + 1))]
                for _ in range(3)
            ]
            for nodes in subsets:
                by_mode = []
                for collecting in (False, True):
                    def score(part, runtime=None, collecting=collecting):
                        collector = MatchCollector() if collecting else None
                        values = evaluate_module.score_frontier(
                            tree, plan, part, spec, collector, QueryStats(), runtime
                        ).tolist()
                        return values, collector

                    got, collector = score(nodes)
                    assert got == [score(nodes[k : k + 1])[0][0] for k in range(nodes.size)]
                    want, empty, unserved = _reference_values(tree, plan, nodes, spec, collecting)
                    assert got == want
                    seen_empty += empty
                    seen_unserved += unserved
                    with QueryRuntime() as runtime:
                        score(nodes[: nodes.size // 2], runtime)
                        assert score(nodes, runtime)[0] == got
                    if nodes is reached and collecting:
                        assert collector.as_dict() == brute_force_matches(users, f, psi)
                    by_mode.append(got)
                assert by_mode[0] == by_mode[1]
    assert seen_empty and seen_unserved


def _reference_values(tree, plan, nodes, spec, collecting):
    """Per node of ``nodes``, ``ref_node_value`` over the candidates and
    mask the frontier's filter and probe give it; plus how many of the
    nodes have no list, and how many a list but no survivor."""
    frame = tree.frame()
    listed = nodes[frame.n_own[nodes] > 0]
    want = dict.fromkeys(nodes.tolist(), 0.0)
    unserved = 0
    if listed.size:
        mode = evaluate_module.candidate_mode(spec, tree.config.variant, collecting)
        order, rows, counts = evaluate_module.filter_candidates(
            tree, listed, plan.envelopes[listed], mode, plan.stops.coords, spec.psi
        )
        mask = evaluate_module.probe_candidates(
            frame.block, rows, plan.stops, spec.psi, QueryStats(), None
        )
        row_end = np.cumsum(counts)
        probe_end = np.concatenate(([0], np.cumsum(frame.block.probe_cnt[rows])))
        for i, r1, n in zip(listed[order].tolist(), row_end.tolist(), counts.tolist()):
            unserved += n == 0
            want[i] = ref_node_value(
                frame.block, rows[r1 - n : r1], mask[probe_end[r1 - n] : probe_end[r1]], spec
            )
    return [want[i] for i in nodes.tolist()], nodes.size - listed.size, unserved


# ----------------------------------------------------------------------
# (g) the plan cache: a division per (facility, psi, node-table generation)
# ----------------------------------------------------------------------
@pytest.fixture
def divisions():
    """Every division a walk makes, as the generation it divided."""
    calls = []
    inner = evaluate_module.divide

    def counting(frame, stops, psi):
        calls.append(frame.generation)
        return inner(frame, stops, psi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluate_module, "divide", counting)
        yield calls


def _every_walk(tree, spec, runtime):
    """Evaluate, kMaxRRST and MaxkCov (whose collecting re-walks follow
    its kMaxRRST shortlist) over ``_ROUTES``."""
    fleet = maxkcov_tq(tree, _ROUTES, 2, spec, runtime=runtime)
    return (
        [evaluate_service(tree, f, spec, runtime=runtime) for f in _ROUTES],
        top_k_facilities(tree, _ROUTES, 2, spec, runtime=runtime).services(),
        (fleet.facility_ids(), fleet.combined_service),
    )


@pytest.mark.engine_smoke
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_a_warm_rewalk_divides_nothing(name, divisions):
    """A facility walked through a runtime once is never divided again
    there — by a repeated evaluate, kMaxRRST or MaxkCov's collecting
    re-walk — and answers ``==``; divisions count in neither the hits,
    the misses nor ``len()`` of the cache.  A warm walk's plan dresses
    and restricts nothing either, and a warm kMaxRRST filters and probes
    nothing: every candidate's node values are the cache's."""
    tree = BUILDERS[name](_users(70, 7, name in TWO_POINT))
    spec = _specs(tree, 140.0)[-1]
    with QueryRuntime() as runtime, pytest.MonkeyPatch.context() as patch:
        first = _every_walk(tree, spec, runtime)
        assert len(divisions) == len(_ROUTES)
        del divisions[:]
        assert _every_walk(tree, spec, runtime) == first
        assert divisions == []
        counted = (runtime.cache.hits, runtime.cache.misses, len(runtime.cache))
        calls = []
        for owner, attr in ((runtime, "stop_set"), (StopSet, "restricted_to")):
            inner = getattr(owner, attr)
            patch.setattr(owner, attr, lambda *a, _f=inner, _n=attr: (calls.append(_n), _f(*a))[1])
        for f in _ROUTES:
            walk_plan(tree, f, spec.psi, runtime)
        assert calls == [] and divisions == []
        walk_plan(tree, FacilityRoute(99, [(500, 500)]), spec.psi, runtime)
        assert calls == ["stop_set", "restricted_to"] and len(divisions) == 1
        assert (runtime.cache.hits, runtime.cache.misses, len(runtime.cache)) == counted
        patch.setattr(evaluate_module, "filter_candidates", None)
        patch.setattr(evaluate_module, "probe_candidates", None)
        assert top_k_facilities(tree, _ROUTES, 2, spec, runtime=runtime).services() == first[1]
    assert first == _every_walk(tree, spec, None)


def test_a_node_evaluation_leaves_a_warm_walk_warm():
    """The filter, probe and score stages may be handed any part of a
    facility, so they keep nothing in the cache: a facility walked, then
    one node scored through the runtime on the stops restricted to that
    node's box, walks warm again — every listed node it reaches hits,
    and the value is ``==``."""
    users = _users(70, 7, True)
    tree = BUILDERS["tq_zorder"](users)
    spec = ServiceSpec(ServiceModel.COUNT, psi=140.0, normalize=False)
    route, frame = _ROUTES[0], tree.frame()
    whole = StopSet.of_facility(route)
    node = next(
        i for i in range(1, len(frame))
        if frame.n_own[i]
        and 0 < _restricted(whole, _box(frame, i), spec.psi).n_stops < whole.n_stops
    )
    part = _restricted(whole, _box(frame, node), spec.psi)
    reached = np.flatnonzero(walk_plan(tree, route, spec.psi, None).visited)
    mode = evaluate_module.candidate_mode(spec, tree.config.variant, False)
    with QueryRuntime() as runtime:
        value = evaluate_service(tree, route, spec, runtime=runtime)
        counted = (runtime.cache.hits, runtime.cache.misses, len(runtime.cache))
        nodes = np.array([node])
        _order, rows, counts = evaluate_module.filter_candidates(
            tree, nodes, np.array([box_row(part.embr(spec.psi))]), mode, part.coords, spec.psi
        )
        mask = evaluate_module.probe_candidates(
            frame.block, rows, part, spec.psi, QueryStats(), runtime
        )
        evaluate_module.score_candidates(tree.table, frame.block, rows, mask, counts, spec, None)
        assert (runtime.cache.hits, runtime.cache.misses, len(runtime.cache)) == counted
        stats = QueryStats()
        assert evaluate_service(tree, route, spec, stats=stats, runtime=runtime) == value
    assert stats.cache_hits == np.count_nonzero(frame.n_own[reached]) > 0


def _clustered_tree(beta: int) -> tuple:
    """Forty short trips in the south-west quadrant: with ``beta`` 4 the
    root splits and its north-east child is an empty leaf."""
    users = [
        Trajectory(i, [(20 + 11 * i, 30 + 9 * i), (25 + 11 * i, 32 + 9 * i)])
        for i in range(40)
    ]
    return users, build_tq_basic(users, beta=beta, space=SPACE)


@pytest.mark.engine_smoke
def test_an_insert_or_a_splice_renews_the_generation_and_the_next_walk_redivides(
    divisions,
):
    """An insert into a previously empty subtree makes a node reached
    that was not; a splice re-places nodes.  Each gives the node table a
    new generation, so the next walk divides again and answers what the
    oracle answers — a plan of the old table would leave the new user
    unscored, or score a table it does not describe."""
    users, tree = _clustered_tree(beta=4)
    newcomer = Trajectory(99, [(700, 700), (710, 705)])
    route = FacilityRoute(0, [(690, 690), (300, 300), (720, 720)])
    spec = ServiceSpec(ServiceModel.COUNT, psi=60.0, normalize=False)
    with QueryRuntime() as runtime:
        frame = tree.frame()
        (leaf,) = [i for i in range(len(frame)) if frame.box[i, 0] >= 512 and frame.box[i, 1] >= 512]
        before = evaluate_service(tree, route, spec, runtime=runtime)
        plan = walk_plan(tree, route, spec.psi, runtime)
        assert plan.served[leaf] and not plan.visited[leaf]
        generation, n_nodes = frame.generation, len(frame)
        tree.insert(newcomer)
        assert len(frame) == n_nodes and frame.generation != generation
        del divisions[:]
        after = evaluate_service(tree, route, spec, runtime=runtime)
        assert divisions == [frame.generation]
        assert walk_plan(tree, route, spec.psi, runtime).visited[leaf]
        assert after == brute_force_service(users + [newcomer], route, spec) == before + 2
    # a splice alone: the one-leaf table of a beta-64 tree re-placed by
    # the subtree a beta-4 build makes of the same users
    users, flat = _clustered_tree(beta=64)
    _, split = _clustered_tree(beta=4)
    with QueryRuntime() as runtime:
        frame = flat.frame()
        assert len(frame) == 1
        evaluate_service(flat, route, spec, runtime=runtime)
        generation = frame.generation
        frame.splice(0, split.frame())
        assert len(frame) > 1 and frame.generation != generation
        del divisions[:]
        value = evaluate_service(flat, route, spec, runtime=runtime)
        assert divisions == [frame.generation]
        assert value == brute_force_service(users, route, spec) > 0


@pytest.mark.engine_smoke
def test_facilities_sharing_an_id_do_not_share_a_plan(divisions):
    """A plan is verified against its walk's stop coordinates: a second
    facility with the same id and other stops divides for itself."""
    users = _users(70, 7, True)
    tree = BUILDERS["tq_zorder"](users)
    spec = ServiceSpec(ServiceModel.COUNT, psi=140.0, normalize=False)
    twins = [
        FacilityRoute(5, [(100, 100), (150, 120)]), FacilityRoute(5, [(800, 800), (850, 820)])
    ]
    want = [brute_force_service(users, f, spec) for f in twins]
    assert want[0] != want[1]
    with QueryRuntime() as runtime:
        for f, value in zip(twins + twins, want + want):
            assert evaluate_service(tree, f, spec, runtime=runtime) == value
            assert walk_plan(tree, f, spec.psi, runtime).envelopes[[0]].tolist() == [
                [f.stops[0].x - 140, f.stops[0].y - 140, f.stops[1].x + 140, f.stops[1].y + 140]
            ]
    assert len(divisions) == 4


@pytest.mark.engine_smoke
def test_two_trees_on_one_runtime_each_get_their_own_plan(divisions):
    """Equal trees have different generations: the same facility and
    spec walked over each divides once per tree, then never again."""
    users = _users(60, 2, True)
    spec = ServiceSpec(ServiceModel.ENDPOINT, psi=140.0)
    trees = [BUILDERS["tq_zorder"](users), BUILDERS["tq_zorder"](users)]
    want = brute_force_service(users, _ROUTES[0], spec)
    with QueryRuntime() as runtime:
        for _ in range(2):
            for tree in trees:
                assert evaluate_service(tree, _ROUTES[0], spec, runtime=runtime) == want
        assert divisions == [tree.frame().generation for tree in trees]
        assert len(runtime.cache._records) == 2


@pytest.mark.engine_smoke
def test_a_sweep_of_new_facilities_holds_at_most_the_row_bound(divisions, monkeypatch):
    """Walk records — a division and an ENDPOINT value column, ``n``
    rows each — beyond the row bound go least recently used first; an
    evicted walk is divided again and answers ``==``; a walk larger
    than the bound is not held."""
    from repro.engine import cache as cache_module

    users = _users(70, 7, True)
    tree = BUILDERS["tq_zorder"](users)
    n = len(tree.frame())
    monkeypatch.setattr(cache_module, "MAX_ROWS", 6 * n)
    spec = ServiceSpec(ServiceModel.ENDPOINT, psi=140.0)
    routes = [FacilityRoute(j, [(40 + 90 * j, 60 + 45 * j), (500, 90 * j)]) for j in range(10)]
    with QueryRuntime() as runtime:
        cache = runtime.cache
        first = []
        for k, f in enumerate(routes):
            first.append(evaluate_service(tree, f, spec, runtime=runtime))
            if k == 8:
                evaluate_service(tree, routes[7], spec, runtime=runtime)  # 7 used last
            assert cache._rows == 2 * n * len(cache._records) <= 6 * n
        assert [key[0] for key in cache._records] == [8, 7, 9]
        del divisions[:]
        assert [evaluate_service(tree, f, spec, runtime=runtime) for f in routes[:2]] == first[:2]
        assert len(divisions) == 2
        for bound in (n - 1, 2 * n - 1):  # the division alone, or with its column
            monkeypatch.setattr(cache_module, "MAX_ROWS", bound)
            cache.clear()
            assert evaluate_service(tree, routes[0], spec, runtime=runtime) == first[0]
            assert cache._rows == 0 and not cache._records
    assert first == [brute_force_service(users, f, spec) for f in routes]


# ----------------------------------------------------------------------
# (h) warm == cold
# ----------------------------------------------------------------------
#: ``_ROUTES`` and a facility sharing route 0's id but not its stops.
_TWINS = _ROUTES + [FacilityRoute(0, [(700, 650), (820, 700), (880, 860)])]
_QUERY = st.tuples(
    st.sampled_from(["evaluate", "kmaxrrst", "maxkcov"]),
    st.integers(0, len(_TWINS) - 1),
    st.sampled_from(list(ServiceModel)),
    st.booleans(),
    st.sampled_from([60.0, 140.0, 250.0]),
)
_INSERT = st.tuples(st.just("insert"), st.integers(1, 6))
_PROBE_FIELDS = ("points_scanned", "distance_evals", "cells_probed")


def _query(tree, op, runtime):
    """One query's answer and the counters it reported (None for a
    spec the tree cannot answer)."""
    kind, arg, model, normalize, psi = op
    spec = ServiceSpec(model, psi=psi, normalize=normalize)
    try:
        tree.validate_spec(spec)
    except QueryError:
        return None
    if kind == "evaluate":
        stats = QueryStats()
        return evaluate_service(tree, _TWINS[arg], spec, stats=stats, runtime=runtime), stats
    k = 1 + arg % 3
    if kind == "kmaxrrst":
        top = top_k_facilities(tree, _ROUTES, k, spec, runtime=runtime)
        return top.ranking, top.stats
    return maxkcov_tq(tree, _ROUTES, k, spec, runtime=runtime), None


@pytest.mark.engine_smoke
@pytest.mark.usefixtures("z_on_short_lists")
@settings(max_examples=30, deadline=None)
@example(
    name="tq_zorder", n=30, bound=None,
    ops=[
        ("evaluate", 0, ServiceModel.COUNT, False, 250.0),
        ("insert", 6),
        ("evaluate", 0, ServiceModel.COUNT, False, 250.0),
        ("evaluate", 4, ServiceModel.COUNT, False, 250.0),
        ("evaluate", 0, ServiceModel.COUNT, False, 250.0),
        ("maxkcov", 1, ServiceModel.COUNT, False, 250.0),
        ("insert", 6),
        ("maxkcov", 1, ServiceModel.COUNT, False, 250.0),
    ],
)
@given(
    name=st.sampled_from(sorted(BUILDERS)),
    n=st.integers(10, 40),
    bound=st.sampled_from([None, 0, 60, 400]),
    ops=st.lists(st.one_of(_QUERY, _INSERT), min_size=1, max_size=12),
)
def test_warm_walks_answer_like_cold_ones(name, n, bound, ops):
    """Evaluate (every model, normalised and raw), kMaxRRST, MaxkCov and
    inserts interleaved on one runtime answer ``==`` the same calls with
    no runtime, report the same walk counters (probe counters no higher:
    a known node probes nothing) and hold the walk records to the row
    bound."""
    from repro.engine import cache as cache_module

    users = _users(60, seed=5, two_point=name in TWO_POINT)
    tree = BUILDERS[name](users[:n])
    pending = users[n:]
    with pytest.MonkeyPatch.context() as patch, QueryRuntime() as runtime:
        if bound is not None:
            patch.setattr(cache_module, "MAX_ROWS", bound)
        cache = runtime.cache
        for op in ops:
            if op[0] == "insert":
                for _ in range(min(op[1], len(pending))):
                    tree.insert(pending.pop(0))
                continue
            warm, cold = _query(tree, op, runtime), _query(tree, op, None)
            if cold is None:
                assert warm is None
                continue
            assert warm[0] == cold[0]
            if cold[1] is not None:
                for field in fields(QueryStats):
                    got, want = getattr(warm[1], field.name), getattr(cold[1], field.name)
                    if field.name in _PROBE_FIELDS:
                        assert got <= want, field.name
                    elif field.name != "cache_hits":
                        assert got == want, field.name
            assert cache._rows == sum(r.rows for r in cache._records.values())
            assert cache._rows <= cache_module.MAX_ROWS
