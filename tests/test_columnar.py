"""Differential tests for the columnar query path.

The TQ-tree's query path reads flat arrays (one user point table, one
block per q-node, rank columns for zReduce, slot arrays for match sets)
where it used to walk Python objects.  Each test here holds one of those
replacements to the thing it replaced:

(a) index-array zReduce == a list-of-entries reference implementation
    (tuple z-id keys, ``bisect`` ranges, per-bucket loops) kept in
    ``tests/strategies.py``;
(b) values and match sets == the brute-force oracles, over every index
    variant x service model x ``normalize``;
(c) the array-backed ``CoverageState`` == a dict-of-sets reference model
    over random ``gain`` / ``new_coverage_count`` / ``add`` / ``copy``
    sequences, unknown users included;
(d) the merged ``QueryStats`` counters of a seeded evaluate / kMaxRRST /
    MaxkCov mix == a golden captured on the object-per-entry code.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BBox,
    CityModel,
    CoverageState,
    FacilityRoute,
    IndexVariant,
    QueryError,
    QueryRuntime,
    ServiceModel,
    ServiceSpec,
    TQTree,
    TQTreeConfig,
    Trajectory,
    brute_force_combined_service,
    brute_force_matches,
    brute_force_service,
    build_full,
    build_segmented,
    build_tq_basic,
    build_tq_zorder,
    evaluate_service,
    generate_bus_routes,
    generate_checkin_trajectories,
    generate_taxi_trips,
    maxkcov_tq,
    top_k_facilities,
)
from repro.core.errors import TrajectoryError
from repro.core.service import score_from_indices
from repro.core.trajectory import UserPointTable
from repro.index.frame import ANY, BBOX, BOTH
from repro.queries import tq_match_fn, walk_matches
from repro.queries import evaluate as evaluate_module

from .strategies import (
    WORLD, block_of, box_row, facility_sets, psis, ref_candidates, ref_entries, ref_geometry,
    ref_keys, stack_of, trajectory_sets, z_node,
)

SPECS = [
    (model, normalize)
    for model in ServiceModel
    for normalize in (True, False)
    if not (model is ServiceModel.ENDPOINT and not normalize)
]


def _integer_valued(spec: ServiceSpec) -> bool:
    """Sums of whole numbers are the same in any order."""
    return spec.model is ServiceModel.ENDPOINT or (
        spec.model is ServiceModel.COUNT and not spec.normalize
    )


def _same(got: float, want: float, spec: ServiceSpec) -> bool:
    if _integer_valued(spec):
        return got == want
    return got == pytest.approx(want, rel=1e-9, abs=1e-9)


@pytest.fixture(scope="class")
def z_on_short_lists():
    """Hypothesis user sets are far below the list length at which the
    evaluator bothers with zReduce; drop the threshold so every TQ(Z)
    node goes through it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluate_module, "_Z_MIN_LIST", 0)
        yield


# ----------------------------------------------------------------------
# (a) zReduce: index arrays vs the list-of-entries reference
# ----------------------------------------------------------------------
class TestZReduceIndexArrays:
    @settings(max_examples=60, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=30, min_points=2, max_points=5),
        facility_sets(min_size=1, max_size=1, max_stops=6),
        psis(),
        st.sampled_from(list(IndexVariant)),
        st.sampled_from([1, 3, 8]),
    )
    def test_all_modes_match_reference(self, users, facs, psi, variant, beta):
        stack = stack_of(users, variant, beta)
        node = z_node(stack, 0, WORLD)
        entries = ref_entries(node, *block_of(users, variant), variant)
        keys = ref_keys(node, entries)
        assert keys == sorted(keys)  # rank order is z-id order
        stops = facs[0].stop_coords
        embr = facs[0].embr(psi)
        row = np.array([box_row(embr)])
        for mode in (BOTH, ANY, BBOX):
            got, _counts = stack.candidates(np.array([0]), row, mode, stops, psi)
            assert got.tolist() == ref_candidates(
                mode, node, entries, keys, beta, embr, stops, psi
            )

    def test_buckets_touched_counts_distinct_buckets(self):
        """``bucket`` names the z-node (disk block) of every sorted
        position — what the I/O model counts distinct values of."""
        users = [Trajectory(i, [(i * 7 % 1000, i * 13 % 1000), (i, i)]) for i in range(50)]
        stack = stack_of(users, beta=4)
        assert stack.bucket.tolist() == [i // 4 for i in range(50)]
        assert np.unique(stack.bucket[[0, 1, 3, 4, 49]]).size == 3
        assert stack.bucket_off.tolist() == [0, 13] and stack.bucket_box.shape == (13, 4)


# ----------------------------------------------------------------------
# (b) values and match sets vs the brute-force oracles
# ----------------------------------------------------------------------
def _spec_ok(tree: TQTree, spec: ServiceSpec) -> bool:
    try:
        tree.validate_spec(spec)
    except QueryError:
        return False
    return True


@pytest.mark.usefixtures("z_on_short_lists")
class TestOracleParity:
    @settings(max_examples=40, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=14, min_points=1, max_points=5),
        facility_sets(min_size=1, max_size=3),
        psis(),
        st.sampled_from(list(IndexVariant)),
        st.booleans(),
    )
    def test_values_and_match_sets(self, users, facs, psi, variant, use_zorder):
        if variant is IndexVariant.ENDPOINT:
            users = [Trajectory(u.traj_id, u.points[:2]) for u in users]
        tree = TQTree.build(
            users, TQTreeConfig(beta=3, variant=variant, use_zorder=use_zorder),
            space=WORLD,
        )
        for model, normalize in SPECS:
            spec = ServiceSpec(model, psi=psi, normalize=normalize)
            if not _spec_ok(tree, spec):
                continue
            for f in facs:
                want = brute_force_service(users, f, spec)
                assert _same(evaluate_service(tree, f, spec), want, spec)
                assert dict(tq_match_fn(tree, spec)(f)) == brute_force_matches(users, f, psi)
            # union semantics: the match sets of all facilities together
            state = CoverageState(tree.table, spec)
            match_fn = tq_match_fn(tree, spec)
            for f in facs:
                state.add(match_fn(f))
            assert _same(
                state.value, brute_force_combined_service(users, facs, spec), spec
            )


def taxi_users_renumbered(taxi_users):
    return [Trajectory(10_000 + u.traj_id, u.points) for u in taxi_users]


class TestOracleParityLongLists:
    def test_z_path_on_long_lists(self, taxi_users, checkin_users, facilities):
        """The same parity at the default zReduce threshold, on node
        lists long enough to cross it."""
        trees = [
            (build_tq_zorder(taxi_users, beta=256), taxi_users),
            (build_segmented(checkin_users, beta=256), checkin_users),
            (build_full(checkin_users + taxi_users_renumbered(taxi_users), beta=256),
             checkin_users + taxi_users_renumbered(taxi_users)),
        ]
        for tree, users in trees:
            assert (tree.frame().n_own >= evaluate_module._Z_MIN_LIST).any()
            for model, normalize in SPECS:
                spec = ServiceSpec(model, psi=400.0, normalize=normalize)
                if not _spec_ok(tree, spec):
                    continue
                for f in facilities[:4]:
                    want = brute_force_service(users, f, spec)
                    assert _same(evaluate_service(tree, f, spec), want, spec)
            for f in facilities[:4]:
                matches, _stats = walk_matches(tree, f, 400.0)
                assert matches.as_dict() == brute_force_matches(users, f, 400.0)


# ----------------------------------------------------------------------
# insert after warm_zindex(): blocks and z-structures must follow
# ----------------------------------------------------------------------
def _manhattan_users(n: int, seed: int):
    """Integer coordinates, axis-aligned steps: every segment length is a
    whole number, so raw COUNT / LENGTH sums are exact in any order and
    two differently shaped trees must agree to the bit."""
    rng = np.random.default_rng(seed)
    users = []
    for i in range(n):
        x, y = (int(v) for v in rng.integers(0, 900, size=2))
        pts = [(x, y)]
        for _ in range(int(rng.integers(1, 5))):
            step = int(rng.integers(1, 120))
            if rng.random() < 0.5:
                x = min(x + step, 1000)
            else:
                y = min(y + step, 1000)
            pts.append((x, y))
        users.append(Trajectory(i, pts))
    return users


@pytest.mark.usefixtures("z_on_short_lists")
class TestInsertAfterWarm:
    @pytest.mark.parametrize("variant", list(IndexVariant), ids=lambda v: v.value)
    @pytest.mark.parametrize("use_zorder", [True, False], ids=["TQ(Z)", "TQ(B)"])
    def test_every_model_answers_like_a_fresh_tree(self, variant, use_zorder):
        users = _manhattan_users(120, seed=5)
        if variant is IndexVariant.ENDPOINT:
            users = [Trajectory(u.traj_id, u.points[:2]) for u in users]
        config = TQTreeConfig(beta=8, variant=variant, use_zorder=use_zorder)
        space = BBox(0.0, 0.0, 1024.0, 1024.0)
        routes = [
            FacilityRoute(j, [(100 + 90 * j + 40 * s, 80 * (s + j)) for s in range(8)])
            for j in range(4)
        ]
        grown = TQTree.build(users[:90], config, space=space)
        grown.warm_zindex()
        specs = [
            ServiceSpec(model, psi=150.0, normalize=False)
            for model in ServiceModel
            if _spec_ok(grown, ServiceSpec(model, psi=150.0, normalize=False))
        ]
        with QueryRuntime() as rt:
            for spec in specs:  # touch every block, fill the caches
                for f in routes:
                    evaluate_service(grown, f, spec, runtime=rt)
                    walk_matches(grown, f, spec.psi, rt)
            for u in users[90:]:
                grown.insert(u)
                fresh = TQTree.build(users[: u.traj_id + 1], config, space=space)
                if u.traj_id % 10 and u is not users[-1]:
                    continue
                for spec in specs:
                    for f in routes:
                        want = evaluate_service(fresh, f, spec)
                        assert evaluate_service(grown, f, spec) == want
                        assert evaluate_service(grown, f, spec, runtime=rt) == want
                        assert (
                            walk_matches(grown, f, spec.psi, rt)[0].as_dict()
                            == walk_matches(fresh, f, spec.psi)[0].as_dict()
                        )
                        assert want == brute_force_service(
                            users[: u.traj_id + 1], f, spec
                        )

    def test_block_gov_is_the_entries_governing_geometry(self):
        users = _manhattan_users(25, seed=3)
        for variant in IndexVariant:
            tree = TQTree.build(
                users, TQTreeConfig(beta=4, variant=variant), space=BBox(0, 0, 1024, 1024)
            )
            frame = tree.frame()
            for i in range(len(frame)):
                lo, hi = frame.row_off[i : i + 2]
                want = []
                for row, seg in zip(frame.rows[lo:hi].tolist(), frame.segs[lo:hi].tolist()):
                    start, end, box = ref_geometry(tree.table.users[row], seg, variant)
                    want.append(
                        [start.x, start.y, end.x, end.y,
                         box.xmin, box.ymin, box.xmax, box.ymax]
                    )
                assert frame.block.gov[lo:hi].tolist() == want

    def test_short_lists_never_build_a_z_structure(self):
        """Blocks build without a z-stack; one appears only once a query
        (or warm_zindex) asks for it, over every non-empty list, and goes
        with the frame on an insert."""
        users = _manhattan_users(40, seed=4)
        tree = TQTree.build(users, TQTreeConfig(beta=4), space=BBox(0, 0, 1024, 1024))
        assert tree.frame().block.n == tree.n_entries
        assert tree.frame().zstack is None
        tree.warm_zindex()
        stack = tree.frame().zstack
        assert stack is tree.zstack()
        assert (stack.slot_of >= 0).tolist() == (tree.frame().n_own > 0).tolist()
        tree.insert(Trajectory(99, [(1, 1), (1000, 1000)]))
        assert tree.zstack() is not stack
        assert np.diff(tree.zstack().pos_off)[0] == tree.frame().n_own[0]

    def test_table_grows_without_moving_slots(self):
        users = _manhattan_users(30, seed=9)
        tree = TQTree.build(users[:20], TQTreeConfig(beta=4), space=BBox(0, 0, 1024, 1024))
        before = tree.table
        for u in users[20:]:
            tree.insert(u)
        after = tree.table
        assert after.n_users == 30 and before.n_users == 20
        assert np.array_equal(after.xy[: before.n_slots], before.xy)
        assert np.array_equal(after.offsets[:21], before.offsets)
        assert [u.traj_id for u in after] == [u.traj_id for u in users]


    def test_extended_table_equals_one_built_from_scratch(self):
        """Appending users concatenates columns; every column must come
        out as if the whole user list had been tabulated at once."""
        users = _manhattan_users(60, seed=11) + [Trajectory(60, [(5, 5)])]
        table = UserPointTable(users[:10])
        for lo in range(10, 61, 17):
            table = table.extended(users[lo : lo + 17])
        whole = UserPointTable(users)
        for name in UserPointTable.__slots__:
            got, want = getattr(table, name), getattr(whole, name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), name
                assert not got.flags.writeable
            else:
                assert got == want, name
        assert table.extended([]) is table
        with pytest.raises(TrajectoryError):
            table.extended([users[3]])


# ----------------------------------------------------------------------
# (c) CoverageState: boolean column vs dict-of-sets reference model
# ----------------------------------------------------------------------
class _DictCoverageState:
    """The object-per-user CoverageState the array one replaced."""

    def __init__(self, users, spec):
        self.spec = spec
        self._users = {u.traj_id: u for u in users}
        self._covered = {}
        self.value = 0.0

    def copy(self):
        clone = _DictCoverageState((), self.spec)
        clone._users = self._users
        clone._covered = {tid: set(idx) for tid, idx in self._covered.items()}
        clone.value = self.value
        return clone

    def _user_value(self, traj_id, covered):
        return score_from_indices(self._users[traj_id], covered, self.spec)

    def _check(self, matches):
        for traj_id in matches:
            if traj_id not in self._users:
                raise QueryError(f"matches refer to unknown user {traj_id}")

    def gain(self, matches):
        self._check(matches)
        delta = 0.0
        for traj_id, idx in matches.items():
            old = self._covered.get(traj_id, set())
            new = old | set(idx)
            if len(new) != len(old):
                delta += self._user_value(traj_id, new) - self._user_value(traj_id, old)
        return delta

    def new_coverage_count(self, matches):
        self._check(matches)
        return sum(
            len(set(idx) - self._covered.get(traj_id, set()))
            for traj_id, idx in matches.items()
        )

    def add(self, matches):
        self._check(matches)
        delta = 0.0
        for traj_id, idx in matches.items():
            old = self._covered.setdefault(traj_id, set())
            before = self._user_value(traj_id, old) if old else 0.0
            old.update(int(i) for i in idx)
            delta += self._user_value(traj_id, old) - before
        self.value += delta
        return delta

    def users_fully_served(self):
        return sum(
            1
            for traj_id, covered in self._covered.items()
            if 0 in covered and (self._users[traj_id].n_points - 1) in covered
        )

    def covered_indices(self, traj_id):
        return frozenset(self._covered.get(traj_id, ()))


@st.composite
def _coverage_scripts(draw):
    users = draw(trajectory_sets(min_size=1, max_size=8, min_points=1, max_points=5))
    n_ops = draw(st.integers(min_value=1, max_value=12))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["gain", "count", "add", "add", "copy", "unknown"]))
        picked = draw(st.lists(st.sampled_from(users), max_size=len(users), unique=True))
        matches = {
            u.traj_id: tuple(
                draw(st.lists(st.integers(0, u.n_points - 1), max_size=u.n_points + 1))
            )
            for u in picked
        }
        ops.append((kind, matches))
    return users, ops


class TestCoverageStateAgainstDictModel:
    @settings(max_examples=120, deadline=None)
    @given(_coverage_scripts(), st.sampled_from(SPECS))
    def test_random_scripts(self, script, spec_kind):
        users, ops = script
        spec = ServiceSpec(spec_kind[0], psi=1.0, normalize=spec_kind[1])
        pairs = [(CoverageState(users, spec), _DictCoverageState(users, spec))]
        for kind, matches in ops:
            state, model = pairs[-1]
            if kind == "unknown":
                bad = dict(matches)
                bad[10**7] = (0,)
                for call in ("gain", "new_coverage_count", "add"):
                    with pytest.raises(QueryError, match="unknown user"):
                        getattr(state, call)(bad)
                    with pytest.raises(QueryError):
                        getattr(model, call)(bad)
            elif kind == "gain":
                assert _same(state.gain(matches), model.gain(matches), spec)
            elif kind == "count":
                assert state.new_coverage_count(matches) == model.new_coverage_count(matches)
            elif kind == "add":
                assert _same(state.gain(matches), model.gain(matches), spec)
                assert _same(state.add(matches), model.add(matches), spec)
            else:  # copy: the snapshot must stay put while the original moves
                pairs.append((state.copy(), model.copy()))
            for state, model in pairs:
                assert _same(state.value, model.value, spec)
                assert state.users_fully_served() == model.users_fully_served()
                for u in users:
                    assert state.covered_indices(u.traj_id) == model.covered_indices(u.traj_id)
        state = pairs[-1][0]
        assert state.covered_indices(10**7) == frozenset()

    def test_gain_is_the_same_float_for_both_match_set_forms(self, checkin_users, facilities):
        """BL hands the greedy a mapping, the tree a slot array; both
        must price to the same float or the strategies could pick
        different fleets."""
        spec = ServiceSpec(ServiceModel.LENGTH, psi=400.0)
        tree = build_full(checkin_users, beta=16)
        fn = tq_match_fn(tree, spec)
        a = CoverageState(tree.table, spec)
        b = CoverageState(list(reversed(checkin_users)), spec)
        for f in facilities[:6]:
            slots = fn(f)
            mapping = dict(reversed(list(brute_force_matches(checkin_users, f, 400.0).items())))
            assert slots == mapping
            assert a.gain(slots) == a.gain(mapping)
            assert a.new_coverage_count(slots) == b.new_coverage_count(mapping)
            assert a.add(slots) == pytest.approx(b.add(mapping), rel=1e-12)

    def test_out_of_range_point_index_rejected(self):
        users = [Trajectory(0, [(0, 0), (1, 1)]), Trajectory(1, [(2, 2), (3, 3), (4, 4)])]
        state = CoverageState(users, ServiceSpec(ServiceModel.COUNT, psi=1.0))
        for bad in ({0: (2,)}, {1: (-1,)}):
            with pytest.raises(QueryError):
                state.add(bad)

    def test_duplicate_ids_rejected(self):
        users = [Trajectory(3, [(0, 0), (1, 1)]), Trajectory(3, [(2, 2), (3, 3)])]
        with pytest.raises(QueryError):
            CoverageState(users, ServiceSpec(ServiceModel.COUNT, psi=1.0))


# ----------------------------------------------------------------------
# (d) work counters: golden captured on the object-per-entry code
# ----------------------------------------------------------------------
#: ``dataclasses.asdict(runtime.snapshot_stats())`` per leg of
#: :func:`_golden_mix`, recorded at the commit before the columnar
#: rewrite.  The rewrite may not change how much work a query does —
#: which nodes it visits, which entries survive zReduce, which points
#: reach the distance kernel, what the cache answers.
#:
#: ``distance_evals`` was re-recorded when the walk began probing once
#: per frontier (every other field is byte-equal to the first golden):
#: a probed point is now tested against the walk's stops — all 16 of a
#: route, the indexed space holding every route here — instead of the
#: subset dealt to its q-node, so each leg reads ``points_scanned * 16``
#: (before: 114112 / 147936 / 237390 / 556524).
#:
#: Re-recorded again when MaxkCov stopped running a kMaxRRST whose
#: shortlist keeps every candidate (here k' = min(8, 4 * 2) = 8): each
#: leg lost exactly the counters of ``top_k_facilities(tree, routes[:8],
#: 8, spec)`` on the runtime as the mix leaves it before its MaxkCov.  That
#: shortlist is warm, so no probe counter moved; the other fields were
#: (nodes_visited, entries_considered, entries_scored, states_relaxed,
#: cache_hits) = TQ(Z) endpoint 543 / 37041 / 8667 / 108 / 357, TQ(B)
#: endpoint 543 / 37041 / 11028 / 108 / 357, S-TQ(Z) 1447 / 64647 /
#: 25396 / 216 / 933, F-TQ(Z) 852 / 27655 / 18627 / 233 / 558.
#:
#: Re-recorded when kMaxRRST became one evaluate per candidate: its
#: candidates are walked from the root, warm, so no probe counter moved;
#: (nodes_visited, entries_considered, entries_scored, states_relaxed,
#: cache_hits) went TQ(Z) endpoint 468 / 32381 / 7897 / 76 / 282 -> 519 /
#: 32592 / 7961 / 0 / 333, TQ(B) endpoint 468 / 32381 / 10010 / 76 / 282
#: -> 519 / 32592 / 10074 / 0 / 333, S-TQ(Z) 1239 / 56415 / 22400 / 152 /
#: 725 -> 1432 / 57192 / 22770 / 0 / 918, F-TQ(Z) 732 / 24163 / 16384 /
#: 161 / 438 -> 816 / 24396 / 16540 / 0 / 522.
#:
#: Re-recorded when a match set became one walk per (facility, psi,
#: tree) instead of one per (model, normalize): the S-TQ(Z) and F-TQ(Z)
#: legs' MaxkCov under their second and third models read the match
#: sets their first model's MaxkCov walked.  Only the walk counters
#: moved, (nodes_visited, entries_considered, entries_scored,
#: points_scanned, distance_evals) S-TQ(Z) 1432 / 57192 / 22770 / 18474
#: / 295584 -> 1328 / 53076 / 20407 / 13748 / 219968, F-TQ(Z) 816 /
#: 24396 / 16540 / 36122 / 577952 -> 736 / 22068 / 14484 / 24592 /
#: 393472; the TQ(Z) and TQ(B) endpoint legs, one model each, are
#: byte-equal.
GOLDEN_STATS = {
    "TQ(Z) endpoint": dict(nodes_visited=519, entries_considered=32592, entries_scored=7961, states_relaxed=0, states_pruned=0, points_scanned=8686, distance_evals=138976, cells_probed=0, cache_hits=333),
    "TQ(B) endpoint": dict(nodes_visited=519, entries_considered=32592, entries_scored=10074, states_relaxed=0, states_pruned=0, points_scanned=10800, distance_evals=172800, cells_probed=0, cache_hits=333),
    "S-TQ(Z) count+length": dict(nodes_visited=1328, entries_considered=53076, entries_scored=20407, states_relaxed=0, states_pruned=0, points_scanned=13748, distance_evals=219968, cells_probed=0, cache_hits=918),
    "F-TQ(Z) all models": dict(nodes_visited=736, entries_considered=22068, entries_scored=14484, states_relaxed=0, states_pruned=0, points_scanned=24592, distance_evals=393472, cells_probed=0, cache_hits=522),
}


def _golden_mix():
    city = CityModel.generate(seed=11, size=10_000.0, n_hotspots=6)
    taxi = generate_taxi_trips(600, city, seed=1)
    chk = generate_checkin_trajectories(150, city, seed=2, min_points=3, max_points=8)
    routes = generate_bus_routes(12, city, seed=3, n_stops=16)
    endpoint = ServiceSpec(ServiceModel.ENDPOINT, psi=400.0)
    count = ServiceSpec(ServiceModel.COUNT, psi=400.0)
    length = ServiceSpec(ServiceModel.LENGTH, psi=400.0, normalize=False)
    legs = {
        "TQ(Z) endpoint": (build_tq_zorder(taxi, beta=16), (endpoint,)),
        "TQ(B) endpoint": (build_tq_basic(taxi, beta=16), (endpoint,)),
        "S-TQ(Z) count+length": (build_segmented(chk, beta=16), (count, length)),
        "F-TQ(Z) all models": (build_full(chk, beta=16), (endpoint, count, length)),
    }
    out = {}
    for name, (tree, specs) in legs.items():
        with QueryRuntime() as rt:
            for spec in specs:
                for _ in range(2):  # the second pass rides the cache
                    for f in routes:
                        evaluate_service(tree, f, spec, runtime=rt)
                top_k_facilities(tree, routes, 3, spec, runtime=rt)
                top_k_facilities(tree, routes[::-1], 1, spec, runtime=rt)
                maxkcov_tq(tree, routes[:8], 2, spec, runtime=rt)
            out[name] = dataclasses.asdict(rt.snapshot_stats())
    return out


def test_query_stats_match_the_pre_columnar_golden():
    assert _golden_mix() == GOLDEN_STATS
