"""The frontier-at-a-time query path held to what it replaced.

Algorithms 1 / 2 / 4 run as plan -> stacked filter -> one probe over a
tree-wide frame.  Each test here pins one premise of that design:

(a) containment — every probe point of a q-node's block and every leaf
    cell of its z-grids lies inside the node's box (why probing the
    walk's stops equals probing the node's own component);
(b) the plan — per-node membership, reach set and serving envelope equal
    ``FacilityComponent.restricted_to`` and the paper's recursion, bit
    for bit;
(c) the stacked filter — per-node survivors equal the list-of-entries
    reference ``zReduce`` of ``tests/strategies.py`` and the per-node
    envelope scan, order included;
(d) mutation safety — a stateful machine interleaving inserts, warming
    and queries, held after every step to a freshly built tree (answers,
    work counters, every z-stack column) and to the brute-force oracle;
(e) shape — a walk makes at most one ``probe_mask`` call, a cached walk
    none, and a warmed tree builds nothing inside its first query;
(f) scoring — a frontier scored in one segmented pass gives every node
    the value it gets alone and the per-entry reference loop gives it,
    bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import (
    BBox,
    CoverageCache,
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
    top_k_facilities,
)
from repro.core.stats import QueryStats
from repro.index import NodeBlock, TreeFrame, ZStack
from repro.index.frame import ANY, BBOX, BOTH
from repro.queries import BlockCosts, FacilityComponent, MatchCollector, estimate_query_blocks
from repro.queries import evaluate as evaluate_module
from repro.queries import kmaxrrst as kmaxrrst_module
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
def _reached_by_recursion(tree: TQTree, whole: FacilityComponent):
    """Algorithm 1's walk, the way the recursion made it, over the
    node table's ``children`` rows."""
    frame = tree.frame()
    reached = []

    def rec(i, component):
        if component.is_empty:
            return
        reached.append(i)
        for child in frame.children[i].tolist():
            if child < 0 or frame.sub[child, 0] == 0:
                continue
            rec(child, component.restricted_to(_box(frame, child)))

    rec(0, whole.restricted_to(tree.space))
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
            whole = FacilityComponent.whole(f, psi)
            plan = walk_plan(tree, f, psi, None)
            want_reached = _reached_by_recursion(tree, whole)
            assert np.flatnonzero(plan.visited).tolist() == want_reached
            nonempty = []
            for i in range(len(frame)):
                want = whole.restricted_to(_box(frame, i))
                got = plan.component.stops.coords[plan.member[i]]
                assert np.array_equal(got, want.stops.coords)
                if not want.is_empty:
                    nonempty.append((i, want.embr))
            rows = plan.embr(np.array([i for i, _ in nonempty], dtype=np.int64))
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
    rng = np.random.default_rng(5)
    for tree in _grown_and_bulk(name):
        frame = tree.frame()
        stack = tree.zstack()
        for psi in (0.0, 60.0, 250.0):
            stops = [(int(x), int(y)) for x, y in rng.integers(0, 1024, (6, 2))]
            whole = FacilityComponent.whole(FacilityRoute(0, stops), psi)
            plan = walk_plan(tree, FacilityRoute(0, stops), psi, None)
            listed = np.flatnonzero(plan.visited & (frame.n_own > 0))
            if not listed.size:
                continue
            embr = plan.embr(listed)
            components = [whole.restricted_to(_box(frame, i)) for i in listed]
            for mode in (BOTH, ANY, BBOX):
                rows, counts = evaluate_module._scan_candidates(frame, listed, embr, mode)
                cuts = np.cumsum(counts)[:-1]
                for i, comp, got in zip(listed.tolist(), components, np.split(rows, cuts)):
                    gov = frame.block.gov[frame.row_off[i] : frame.row_off[i + 1]]
                    want = _envelope_scan(gov, comp.embr, mode == BOTH)
                    assert (got - frame.row_off[i]).tolist() == want.tolist()
                if stack is None:
                    continue
                picked, counts = stack.candidates(
                    stack.slot_of[listed], embr, mode, plan.component.stops.coords, psi
                )
                cuts = np.cumsum(counts)[:-1]
                for i, comp, got in zip(listed.tolist(), components, np.split(picked, cuts)):
                    k = stack.slot_of[i]
                    node = z_node(stack, k, _box(frame, i))
                    entries = ref_entries(node, tree.table, frame.block, tree.config.variant)
                    want = ref_candidates(
                        mode, node, entries, ref_keys(node, entries), tree.config.beta,
                        comp.embr, comp.stops.coords, psi,
                    )
                    assert (got - stack.pos_off[k]).tolist() == want
                    assert stack.row[got].tolist() == node.order[want].tolist()
    if name.endswith("basic"):
        assert stack is None


def _blocks_by_walking(tree: TQTree, facility, spec: ServiceSpec) -> BlockCosts:
    """The block-I/O pricing as a node-by-node walk over the
    ``children`` rows — the form ``estimate_query_blocks`` had before it
    read the plan."""
    costs = BlockCosts()
    beta, variant = tree.config.beta, tree.config.variant
    stack, frame = tree.zstack(), tree.frame()

    def walk(i, component):
        if component.is_empty:
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
                np.array([box_row(component.embr)]),
                mode, component.stops.coords, spec.psi,
            )
            costs.list_blocks += np.unique(stack.bucket[picked]).size
        for child in frame.children[i].tolist():
            if child >= 0 and frame.sub[child, 0]:
                walk(child, component.restricted_to(_box(frame, child)))

    walk(0, FacilityComponent.whole(facility, spec.psi).restricted_to(tree.space))
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

    def teardown(self):
        if hasattr(self, "runtime"):
            self.runtime.close()


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
    the cached rows anchored on the root's stamp) that it changed."""
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
        block, stamp = frame.block, int(frame.stamp[0])
        assert frame.n_own[0] == 4 and frame.children[0, 0] < 0
        tree.insert(newcomer)
        assert frame.n_own[0] == 4 and frame.children[0, 0] >= 0
        assert tree.frame() is frame and frame.block is not block
        assert frame.stamp[0] != stamp
        _hold_to_fresh_tree(tree, users + [newcomer], name, runtime)


def _node_state(frame):
    """Per node box: its stamp, its list and whether it is a leaf."""
    return {
        tuple(frame.box[i].tolist()): (
            int(frame.stamp[i]),
            frame.rows[frame.row_off[i] : frame.row_off[i + 1]].tolist(),
            bool(frame.children[i, 0] < 0),
        )
        for i in range(len(frame))
    }


@pytest.mark.engine_smoke
def test_an_untouched_node_keeps_its_block_across_a_rebuild():
    """Cached rows are anchored on a node's stamp.  An insert renews the
    stamp of exactly the node whose list changed, a split the stamps of
    every node of the re-placed subtree, and every other node keeps its
    stamp — so the same walk after the insert hits on exactly the kept
    nodes that have a list."""
    users = _users(75, seed=2, two_point=True)
    tree = BUILDERS["tq_zorder"](users[:50])
    spec = ServiceSpec(ServiceModel.ENDPOINT, psi=2048.0)  # reaches every node
    cache = CoverageCache()
    seen = {"split": 0, "insert": 0}
    with QueryRuntime(cache=cache) as runtime:
        evaluate_service(tree, _ROUTES[0], spec, runtime=runtime)
        for n in range(50, len(users)):
            frame = tree.frame()
            before, newest = _node_state(frame), int(frame.stamp.max())
            tree.insert(users[n])
            after = _node_state(frame)
            if len(after) > len(before):
                seen["split"] += 1
                (leaf,) = [
                    box for box, (_, _, is_leaf) in before.items()
                    if is_leaf and not after[box][2]
                ]
                replaced = {box for box in after if BBox(*leaf).contains_bbox(BBox(*box))}
            else:
                seen["insert"] += 1
                replaced = {box for box in after if after[box][1] != before[box][1]}
                assert len(replaced) == 1
            renewed = {box for box, (stamp, _, _) in after.items() if stamp > newest}
            assert renewed == replaced
            kept = [box for box in after if box not in replaced]
            assert all(after[box][0] == before[box][0] for box in kept)
            hits, stats = cache.hits, QueryStats()
            value = evaluate_service(tree, _ROUTES[0], spec, stats=stats, runtime=runtime)
            assert value == brute_force_service(users[: n + 1], _ROUTES[0], spec)
            held = sum(1 for box in kept if after[box][1])
            assert cache.hits - hits == stats.cache_hits == held
    assert seen["split"] and seen["insert"]


@pytest.mark.engine_smoke
def test_equal_trees_sharing_a_runtime_share_no_node_results():
    """Stamps come from one counter for the whole process: a second tree
    equal to the first, walked through the same runtime, misses on every
    node it scores, and answers what the oracle answers."""
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
@pytest.fixture
def probe_calls():
    calls = []
    inner = QueryRuntime.probe_mask

    def counting(self, stops, coords, psi, stats=None):
        calls.append(len(coords))
        return inner(self, stops, coords, psi, stats)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QueryRuntime, "probe_mask", counting)
        yield calls


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
                    # the same walk again is answered by the cache alone
                    del probe_calls[:]
                    again = evaluate_service(
                        tree, f, spec,
                        collector=None if collector is None else MatchCollector(),
                        runtime=runtime,
                    )
                    assert again == value and probe_calls == []
        with QueryRuntime() as runtime:
            stats = QueryStats()
            state = kmaxrrst_module._initial_state(tree, facilities[5], spec, stats, runtime)
            while not state.complete:
                del probe_calls[:]
                state = kmaxrrst_module._relax_state(tree, state, spec, stats, runtime)
                assert len(probe_calls) <= 1
            assert state.aserve == evaluate_service(tree, facilities[5], spec)
            # kMaxRRST warmed every node an evaluate of the same route reads
            del probe_calls[:]
            if not evaluate_module.needs_ancestor_scan(spec, tree.config.variant):
                evaluate_service(tree, facilities[5], spec, runtime=runtime)
                assert probe_calls == []


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
            served = np.flatnonzero(plan.member.any(axis=1))
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
                        )
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
        order, rows, counts, mask = evaluate_module._filter_and_probe(
            tree, plan, listed, spec, collecting, QueryStats(), None
        )
        row_end = np.cumsum(counts)
        probe_end = np.concatenate(([0], np.cumsum(frame.block.probe_cnt[rows])))
        for i, r1, n in zip(listed[order].tolist(), row_end.tolist(), counts.tolist()):
            unserved += n == 0
            want[i] = ref_node_value(
                frame.block, rows[r1 - n : r1], mask[probe_end[r1 - n] : probe_end[r1]], spec
            )
    return [want[i] for i in nodes.tolist()], nodes.size - listed.size, unserved
