"""Structural tests for the TQ-tree: placement, bounds, updates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BBox,
    IndexVariant,
    Point,
    QueryError,
    ServiceModel,
    ServiceSpec,
    TQTree,
    TQTreeConfig,
    Trajectory,
    build_full,
    build_segmented,
    build_tq_basic,
    build_tq_zorder,
    storage_report,
)
from repro.core.errors import IndexError_
from repro.index import NodeBlock, TreeFrame

from .strategies import WORLD, ref_storage, trajectory_sets


def users_grid(n, n_points=2):
    out = []
    for i in range(n):
        pts = [
            (((i * 97) + 13 * j) % 1000, ((i * 61) + 29 * j) % 1000)
            for j in range(n_points)
        ]
        out.append(Trajectory(i, pts))
    return out


def is_leaf(frame, i):
    return frame.children[i, 0] < 0


def node_keys(frame, i):
    """Node ``i``'s list as ``(row, seg)`` pairs, in list order."""
    lo, hi = frame.row_off[i : i + 2]
    return list(zip(frame.rows[lo:hi].tolist(), frame.segs[lo:hi].tolist()))


def assert_same_table(got, want):
    """Two trees' node tables agree column by column — dtype included,
    stamps aside — and so do their blocks."""
    a, b = got.frame(), want.frame()
    for name in TreeFrame.__slots__:
        if name not in ("stamp", "block", "zstack"):
            column, other = getattr(a, name), getattr(b, name)
            assert column.dtype == other.dtype and np.array_equal(column, other), name
    for name in NodeBlock.__slots__:
        assert np.array_equal(getattr(a.block, name), getattr(b.block, name)), name


class TestBuild:
    def test_empty_build_requires_space(self):
        with pytest.raises(IndexError_):
            TQTree.build([])

    def test_empty_build_with_space(self):
        tree = TQTree.build([], space=WORLD)
        assert tree.n_trajectories == 0
        assert len(tree.frame()) == 1 and is_leaf(tree.frame(), 0)

    def test_small_set_stays_in_root(self):
        users = users_grid(3)
        tree = TQTree.build(users, TQTreeConfig(beta=8), space=WORLD)
        assert is_leaf(tree.frame(), 0)
        assert tree.frame().n_own[0] == 3

    def test_large_set_splits(self):
        users = users_grid(200)
        tree = TQTree.build(users, TQTreeConfig(beta=8), space=WORLD)
        assert not is_leaf(tree.frame(), 0)
        assert tree.height() > 1

    def test_duplicate_ids_rejected(self):
        users = [Trajectory(1, [(0, 0), (1, 1)]), Trajectory(1, [(2, 2), (3, 3)])]
        with pytest.raises(IndexError_):
            TQTree.build(users, space=WORLD)

    def test_out_of_space_rejected(self):
        with pytest.raises(IndexError_):
            TQTree.build([Trajectory(0, [(-5, 0), (1, 1)])], space=WORLD)

    def test_inferred_space_covers_all_points(self):
        users = users_grid(50)
        tree = TQTree.build(users)
        for u in users:
            for p in u.points:
                assert tree.space.contains_point(p)

    def test_identical_trajectories_terminate(self):
        """Inter-node forever: identical co-located entries must not loop."""
        users = [Trajectory(i, [(499, 499), (501, 501)]) for i in range(40)]
        tree = TQTree.build(users, TQTreeConfig(beta=4), space=WORLD)
        assert tree.n_trajectories == 40


class TestPlacementInvariants:
    def _check_placement(self, tree):
        """Every entry's placement points lie in its node; at internal
        nodes they span >= 2 children, at leaves anything goes."""
        full = tree.config.variant is IndexVariant.FULL
        frame = tree.frame()
        for i in range(len(frame)):
            box = BBox(*frame.box[i].tolist())
            for row, seg in node_keys(frame, i):
                traj = tree.table.users[row]
                if seg >= 0:
                    placement = traj.points[seg : seg + 2]
                else:
                    placement = traj.points if full else (traj.start, traj.end)
                for p in placement:
                    assert box.contains_point(p)
                if not is_leaf(frame, i):
                    quads = {box.quadrant_of(p) for p in placement}
                    assert len(quads) >= 2, "intra entry left at internal node"

    def test_endpoint_variant_placement(self):
        tree = build_tq_zorder(users_grid(300), beta=8, space=WORLD)
        self._check_placement(tree)

    def test_segmented_variant_placement(self):
        tree = build_segmented(users_grid(100, n_points=5), beta=8, space=WORLD)
        self._check_placement(tree)

    def test_full_variant_placement(self):
        tree = build_full(users_grid(100, n_points=5), beta=8, space=WORLD)
        self._check_placement(tree)

    @settings(max_examples=25)
    @given(trajectory_sets(min_size=1, max_size=40, min_points=2, max_points=5))
    def test_placement_property(self, users):
        for variant in IndexVariant:
            cfg = TQTreeConfig(beta=3, variant=variant)
            tree = TQTree.build(users, cfg, space=WORLD)
            self._check_placement(tree)


class TestStorage:
    def test_each_trajectory_stored_once_endpoint(self):
        tree = build_tq_zorder(users_grid(250), beta=8, space=WORLD)
        report = storage_report(tree)
        assert report.stores_each_entry_once
        assert report.n_entries_stored == 250

    def test_each_segment_stored_once(self):
        users = users_grid(60, n_points=6)
        tree = build_segmented(users, beta=8, space=WORLD)
        report = storage_report(tree)
        assert report.stores_each_entry_once
        assert report.n_entries_stored == 60 * 5

    def test_full_variant_stored_once(self):
        users = users_grid(80, n_points=4)
        tree = build_full(users, beta=8, space=WORLD)
        report = storage_report(tree)
        assert report.stores_each_entry_once
        assert report.n_entries_stored == 80

    def test_report_counts_nodes(self):
        tree = build_tq_zorder(users_grid(250), beta=8, space=WORLD)
        report = storage_report(tree)
        assert report.n_nodes >= report.n_leaves
        assert report.height == tree.height()

    @settings(max_examples=25, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=40, min_points=1, max_points=5),
        st.sampled_from(list(IndexVariant)),
        st.sampled_from([1, 3, 8]),
        st.booleans(),
    )
    def test_report_is_the_recursion_over_children(self, users, variant, beta, grown):
        """Column arithmetic accounts like a walk from the root: node,
        leaf and per-level counts, height, inter / intra entries and the
        fullest leaf, on bulk-built and insert-grown trees."""
        cfg = TQTreeConfig(beta=beta, variant=variant)
        if grown:
            tree = TQTree(WORLD, cfg)
            for u in users:
                tree.insert(u)
        else:
            tree = TQTree.build(users, cfg, space=WORLD)
        report = storage_report(tree)
        for field, want in ref_storage(tree).items():
            assert getattr(report, field) == want, field
        assert report.stores_each_entry_once


class TestSubBoundsInvariant:
    def _sub_of_subtree(self, tree, node):
        """The per-entry addends of every key stored at or below
        ``node``, summed in one go."""
        frame = tree.frame()
        below, stack = [], [node]
        while stack:
            n = stack.pop()
            below.extend(range(frame.row_off[n], frame.row_off[n + 1]))
            stack.extend(int(child) for child in frame.children[n] if child >= 0)
        keys = np.array(below, dtype=np.int64)
        block = NodeBlock(tree.table, tree.config.variant, frame.rows[keys], frame.segs[keys])
        return block.own_totals().sum(axis=0)

    def _check_sub(self, tree):
        frame = tree.frame()
        for i in range(len(frame)):
            expected = self._sub_of_subtree(tree, i)
            assert frame.sub[i].tolist() == pytest.approx(expected.tolist())

    def test_sub_equals_subtree_totals_after_build(self):
        tree = build_tq_zorder(users_grid(300), beta=8, space=WORLD)
        self._check_sub(tree)

    def test_sub_maintained_by_inserts(self):
        users = users_grid(120)
        tree = TQTree.build(users[:40], TQTreeConfig(beta=8), space=WORLD)
        for u in users[40:]:
            tree.insert(u)
        self._check_sub(tree)

    @settings(max_examples=20)
    @given(trajectory_sets(min_size=1, max_size=30, min_points=2, max_points=4))
    def test_sub_property_full_variant(self, users):
        tree = TQTree.build(
            users, TQTreeConfig(beta=3, variant=IndexVariant.FULL), space=WORLD
        )
        self._check_sub(tree)


class TestInsert:
    def test_insert_equivalent_to_bulk(self):
        """An incrementally built tree stores the same entries (possibly
        shaped differently) and answers identically."""
        users = users_grid(150)
        bulk = build_tq_zorder(users, beta=8, space=WORLD)
        inc = TQTree(WORLD, TQTreeConfig(beta=8))
        for u in users:
            inc.insert(u)
        assert inc.n_trajectories == bulk.n_trajectories
        assert storage_report(inc).stores_each_entry_once

    @settings(max_examples=30, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=40, min_points=1, max_points=5),
        st.sampled_from(list(IndexVariant)),
        st.sampled_from([1, 3, 8]),
    )
    def test_grown_tree_is_the_built_tree(self, users, variant, beta):
        """Build, insert and split share one routing rule and one
        ``sub`` arithmetic: growing a tree user by user makes the node
        table — boxes, links, lists, bounds — and the block a build
        makes; only the stamps differ."""
        cfg = TQTreeConfig(beta=beta, variant=variant)
        built = TQTree.build(users, cfg, space=WORLD)
        grown = TQTree(WORLD, cfg)
        for u in users:
            grown.insert(u)
        assert grown.n_entries == built.n_entries
        assert_same_table(grown, built)
        assert np.array_equal(grown.frame().block.own_totals(), built.frame().block.own_totals())
        assert not np.intersect1d(grown.frame().stamp, built.frame().stamp).size

    @pytest.mark.parametrize("variant", list(IndexVariant))
    def test_overflowing_leaf_splits_into_the_built_children(self, variant):
        """The insert that overflows a leaf leaves exactly the subtree a
        build over that leaf's keys makes."""
        cfg = TQTreeConfig(beta=6, variant=variant)
        users = users_grid(40, n_points=3)
        tree = TQTree(WORLD, cfg)
        splits = 0
        for n, u in enumerate(users, start=1):
            frame = tree.frame()
            leaves = {tuple(frame.box[i].tolist()) for i in range(len(frame)) if is_leaf(frame, i)}
            tree.insert(u)
            fresh = TQTree.build(users[:n], cfg, space=WORLD)
            assert_same_table(tree, fresh)
            frame = tree.frame()
            splits += sum(
                tuple(frame.box[i].tolist()) in leaves and not is_leaf(frame, i)
                for i in range(len(frame))
            )
        assert splits > 0

    def test_insert_duplicate_rejected(self):
        tree = TQTree.build(users_grid(5), space=WORLD)
        with pytest.raises(IndexError_):
            tree.insert(Trajectory(0, [(1, 1), (2, 2)]))

    def test_insert_outside_space_rejected(self):
        tree = TQTree.build(users_grid(5), space=WORLD)
        with pytest.raises(IndexError_):
            tree.insert(Trajectory(999, [(-10, 0), (1, 1)]))

    def test_gov_arrays_refresh_after_insert(self):
        """The TQ(B) scan block must track list growth from inserts."""
        users = users_grid(40)
        tree = TQTree.build(users[:30], TQTreeConfig(beta=64, use_zorder=False),
                            space=WORLD)
        frame = tree.frame()
        before = frame.block.gov[: frame.row_off[1]].shape[0]
        for u in users[30:]:
            tree.insert(u)
        frame = tree.frame()
        after = frame.block.gov[: frame.row_off[1]].shape[0]
        assert frame.block.gov.shape[0] == tree.n_entries == 40
        assert after == frame.n_own[0]
        assert after >= before

    def test_tq_basic_exact_after_inserts(self):
        """TQ(B) linear-scan evaluation stays exact across inserts."""
        from repro import FacilityRoute, ServiceModel, ServiceSpec
        from repro import brute_force_service, evaluate_service

        users = users_grid(80)
        tree = TQTree.build(users[:50], TQTreeConfig(beta=8, use_zorder=False),
                            space=WORLD)
        for u in users[50:]:
            tree.insert(u)
        facility = FacilityRoute(0, [(100, 100), (500, 500), (900, 200)])
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=250.0)
        assert evaluate_service(tree, facility, spec) == pytest.approx(
            brute_force_service(users, facility, spec)
        )

    def test_leaf_split_on_overflow(self):
        cluster = [
            Trajectory(i, [(10 + i * 0.5, 10), (12 + i * 0.5, 12)]) for i in range(20)
        ]
        tree = TQTree(WORLD, TQTreeConfig(beta=4))
        for u in cluster:
            tree.insert(u)
        report = storage_report(tree)
        assert report.stores_each_entry_once
        assert tree.height() > 1


class TestLookups:
    def test_containing_qnode_smallest(self):
        """The smallest routing region holding the box: down from the
        root while ``quadrant_of`` puts both corners in one quadrant —
        on a split line the box goes up/right, as an entry's would."""
        tree = build_tq_zorder(users_grid(300), beta=8, space=WORLD)
        frame = tree.frame()
        half = WORLD.width / 2
        for box in (
            BBox(10, 10, 40, 40),
            BBox(half - 20, 90, half, 130),  # ends on the root's split line
            BBox(half, 90, half + 10, 130),  # starts on it
            BBox(half - 1, half - 1, half + 1, half + 1),
        ):
            node, lo, hi = 0, Point(box.xmin, box.ymin), Point(box.xmax, box.ymax)
            while not is_leaf(frame, node):
                region = BBox(*frame.box[node].tolist())
                if region.quadrant_of(lo) != region.quadrant_of(hi):
                    break
                node = int(frame.children[node, region.quadrant_of(lo)])
            assert tree.containing_qnode(box) == node
            assert BBox(*frame.box[node].tolist()).contains_bbox(box)
        assert tree.containing_qnode(BBox(half - 20, 90, half, 130)) == 0

    def test_containing_qnode_outside_space_is_root(self):
        tree = build_tq_zorder(users_grid(50), beta=8, space=WORLD)
        node = tree.containing_qnode(BBox(-100, -100, 50, 50))
        assert node == 0

    def test_ancestors_chain(self):
        tree = build_tq_zorder(users_grid(400), beta=4, space=WORLD)
        frame = tree.frame()
        node = tree.containing_qnode(BBox(5, 5, 6, 6))
        chain = frame.path(node).tolist()
        assert chain[0] == node and chain[-1] == 0 and len(chain) > 1
        for child, parent in zip(chain, chain[1:]):
            assert frame.parent[child] == parent
            assert child in frame.children[parent]
            assert frame.depth[child] == frame.depth[parent] + 1

    def test_trajectory_lookup(self):
        users = users_grid(10)
        tree = TQTree.build(users, space=WORLD)
        assert tree.trajectory(3) == users[3]
        with pytest.raises(IndexError_):
            tree.trajectory(777)

    def test_validate_spec_surface(self):
        users = users_grid(10, n_points=4)
        tree = build_tq_zorder(users, space=WORLD, variant=IndexVariant.ENDPOINT)
        with pytest.raises(QueryError):
            tree.validate_spec(ServiceSpec(ServiceModel.COUNT, psi=1.0))

    def test_tq_basic_has_no_zlist(self):
        tree = build_tq_basic(users_grid(50), beta=8, space=WORLD)
        assert tree.zstack() is None

    def test_tq_zorder_builds_zlist(self):
        tree = build_tq_zorder(users_grid(50), beta=8, space=WORLD)
        stack = tree.zstack()
        assert (stack.slot_of >= 0).tolist() == (tree.frame().n_own > 0).tolist()
        assert stack.row.size == tree.n_entries
