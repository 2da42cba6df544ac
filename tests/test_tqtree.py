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
from repro.index import NodeBlock

from .strategies import WORLD, trajectory_sets


def users_grid(n, n_points=2):
    out = []
    for i in range(n):
        pts = [
            (((i * 97) + 13 * j) % 1000, ((i * 61) + 29 * j) % 1000)
            for j in range(n_points)
        ]
        out.append(Trajectory(i, pts))
    return out


class TestBuild:
    def test_empty_build_requires_space(self):
        with pytest.raises(IndexError_):
            TQTree.build([])

    def test_empty_build_with_space(self):
        tree = TQTree.build([], space=WORLD)
        assert tree.n_trajectories == 0
        assert tree.root.is_leaf

    def test_small_set_stays_in_root(self):
        users = users_grid(3)
        tree = TQTree.build(users, TQTreeConfig(beta=8), space=WORLD)
        assert tree.root.is_leaf
        assert tree.root.n_own == 3

    def test_large_set_splits(self):
        users = users_grid(200)
        tree = TQTree.build(users, TQTreeConfig(beta=8), space=WORLD)
        assert not tree.root.is_leaf
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
        for node in tree.nodes():
            for row, seg in zip(node.rows.tolist(), node.segs.tolist()):
                traj = tree.table.users[row]
                if seg >= 0:
                    placement = traj.points[seg : seg + 2]
                else:
                    placement = traj.points if full else (traj.start, traj.end)
                for p in placement:
                    assert node.box.contains_point(p)
                if not node.is_leaf:
                    quads = {node.box.quadrant_of(p) for p in placement}
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


class TestSubBoundsInvariant:
    def _sub_of_subtree(self, tree, node):
        """The per-entry addends of every key stored at or below
        ``node``, summed in one go."""
        below, stack = [], [node]
        while stack:
            n = stack.pop()
            below.append(n)
            stack.extend(n.children or ())
        block = NodeBlock(
            tree.table, tree.config.variant,
            np.concatenate([n.rows for n in below]),
            np.concatenate([n.segs for n in below]),
        )
        return block.own_totals().sum(axis=0)

    def _check_sub(self, tree):
        for node in tree.nodes():
            expected = self._sub_of_subtree(tree, node)
            assert node.sub.as_row() == pytest.approx(expected.tolist())

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
        ``sub`` arithmetic: growing a tree user by user makes the nodes,
        the lists, the bounds and the columns a build makes."""
        cfg = TQTreeConfig(beta=beta, variant=variant)
        built = TQTree.build(users, cfg, space=WORLD)
        grown = TQTree(WORLD, cfg)
        for u in users:
            grown.insert(u)
        assert grown.n_entries == built.n_entries
        pairs = list(zip(built.nodes(), grown.nodes(), strict=True))
        for a, b in pairs:
            assert a.box == b.box and a.is_leaf == b.is_leaf
            assert sorted(zip(a.rows.tolist(), a.segs.tolist())) == sorted(
                zip(b.rows.tolist(), b.segs.tolist())
            )
            assert a.sub.as_row() == b.sub.as_row()
        for a, b in pairs:
            want, got = built.node_block(a), grown.node_block(b)
            order_a = np.lexsort((want.segs, want.rows))
            order_b = np.lexsort((got.segs, got.rows))
            for name in ("rows", "segs", "gov", "own_cnt", "seg_cnt", "probe_cnt"):
                assert np.array_equal(
                    getattr(want, name)[order_a], getattr(got, name)[order_b]
                )
            assert np.array_equal(want.own_totals()[order_a], got.own_totals()[order_b])

    @pytest.mark.parametrize("variant", list(IndexVariant))
    def test_overflowing_leaf_splits_into_the_built_children(self, variant):
        """The insert that overflows a leaf leaves exactly the subtree a
        build over that leaf's keys makes."""
        cfg = TQTreeConfig(beta=6, variant=variant)
        users = users_grid(40, n_points=3)
        tree = TQTree(WORLD, cfg)
        splits = 0
        for n, u in enumerate(users, start=1):
            leaves = {id(node) for node in tree.nodes() if node.is_leaf}
            tree.insert(u)
            fresh = TQTree.build(users[:n], cfg, space=WORLD)
            for got, want in zip(tree.nodes(), fresh.nodes(), strict=True):
                splits += id(got) in leaves and not got.is_leaf
                assert got.box == want.box
                assert got.rows.tolist() == want.rows.tolist()
                assert got.segs.tolist() == want.segs.tolist()
                assert got.own.as_row() == want.own.as_row()
                assert got.sub.as_row() == want.sub.as_row()
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
        before = tree.node_block(tree.root).gov.shape[0]
        for u in users[30:]:
            tree.insert(u)
        after = tree.node_block(tree.root).gov.shape[0]
        assert after == tree.root.n_own
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
        tree = build_tq_zorder(users_grid(300), beta=8, space=WORLD)
        box = BBox(10, 10, 40, 40)
        node = tree.containing_qnode(box)
        assert node.box.contains_bbox(box)
        # no child of the found node contains the box
        if node.children:
            assert not any(c.box.contains_bbox(box) for c in node.children)

    def test_containing_qnode_outside_space_is_root(self):
        tree = build_tq_zorder(users_grid(50), beta=8, space=WORLD)
        node = tree.containing_qnode(BBox(-100, -100, 50, 50))
        assert node is tree.root

    def test_ancestors_chain(self):
        tree = build_tq_zorder(users_grid(400), beta=4, space=WORLD)
        node = tree.containing_qnode(BBox(5, 5, 6, 6))
        chain = TQTree.ancestors(node)
        if chain:
            assert chain[0] is tree.root
            for parent, child in zip(chain, chain[1:] + [node]):
                assert child.parent is parent

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
        assert (stack.slot_of >= 0).tolist() == [bool(n.n_own) for n in tree.nodes()]
        assert stack.row.size == tree.n_entries
