"""Unit and property tests for the z-ordered bucket lists (zReduce),
on a one-node :class:`~repro.index.frame.ZStack`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BBox, IndexVariant, Point, Trajectory
from repro.core.errors import IndexError_

from repro.index.frame import ANY, BBOX, BOTH

from .strategies import (
    WORLD, block_of, box_row, entry_ids, ref_candidates_both, ref_entries, ref_keys, stack_of,
    trajectory_sets, z_node,
)


def build(users, beta=4, variant=IndexVariant.ENDPOINT):
    return stack_of(users, variant, beta)


def candidates(stack, mode, box, stops=np.zeros((0, 2)), psi=0.0):
    """``zReduce`` of the stack's only node against the envelope ``box``."""
    picked, counts = stack.candidates(np.array([0]), np.array([box_row(box)]), mode, stops, psi)
    assert counts.tolist() == [picked.size]
    return picked


def users_grid(n):
    return [
        Trajectory(i, [((i * 97) % 1000, (i * 61) % 1000), ((i * 31) % 1000, (i * 43) % 1000)])
        for i in range(n)
    ]


def picked(stack, entries, positions):
    """The ids (of ``entries``, the list in key order) at the given
    sorted-order positions (what ``candidates`` returns)."""
    assert positions.tolist() == sorted(set(positions.tolist()))
    return {entries[i] for i in stack.row[positions].tolist()}


def stops_array(points):
    return np.array([(p.x, p.y) for p in points], dtype=np.float64)


def embr_of(stops, psi):
    xs = [p.x for p in stops]
    ys = [p.y for p in stops]
    return BBox(min(xs) - psi, min(ys) - psi, max(xs) + psi, max(ys) + psi)


class TestConstruction:
    def test_beta_validated(self):
        with pytest.raises(IndexError_):
            stack_of([], beta=0)

    def test_empty_list(self):
        stack = stack_of([], beta=4)
        assert stack.row.size == 0
        assert stack.bucket_box.shape == (0, 4)
        assert stack.slot_of.tolist() == [-1]  # an empty list is not stacked
        none = np.zeros(0, dtype=np.int64)
        got, counts = stack.candidates(none, np.zeros((0, 4)), BOTH, np.zeros((1, 2)), 10.0)
        assert got.size == 0 and counts.size == 0

    def test_bucket_capacity_respected(self):
        stack = build(users_grid(50), beta=4)
        sizes = np.bincount(stack.bucket)
        assert sizes.size == stack.bucket_box.shape[0] == stack.bucket_off[-1]
        assert all(size <= 4 for size in sizes.tolist())
        assert sizes.sum() == 50

    def test_entries_sorted_by_zid_pairs(self):
        users = users_grid(40)
        stack = build(users, beta=4)
        node = z_node(stack, 0, WORLD)
        ids = entry_ids(users)
        keys = list(zip(node.start_rank.tolist(), node.end_rank.tolist(),
                        (ids[i] for i in node.order.tolist())))
        assert keys == sorted(keys)
        # ranks order leaves exactly as their z-ids do
        table, block = block_of(users)
        zids = ref_keys(node, ref_entries(node, table, block, IndexVariant.ENDPOINT))
        assert zids == sorted(zids)
        for leaves, ranks, column in (
            (node.start_leaves, node.start_rank, 0), (node.end_leaves, node.end_rank, 1),
        ):
            assert [leaves[r][0].digits for r in ranks.tolist()] == [k[column] for k in zids]

    def test_identical_pairs_terminate(self):
        """Duplicate (start, end) pairs cannot be separated; the depth cap
        must stop the partition rather than loop."""
        users = [Trajectory(i, [(5, 5), (900, 900)]) for i in range(6)]
        stack = stack_of(users, beta=2, z_max_depth=5)
        assert stack.row.size == 6
        node = z_node(stack, 0, WORLD)
        assert max(zid.depth for zid, _box in node.start_leaves + node.end_leaves) == 5


def _near(p, stops_pts, psi):
    return any(p.dist_to(s) <= psi for s in stops_pts)


def _served_endpoint(traj, stops_pts, psi):
    return _near(traj.start, stops_pts, psi) and _near(traj.end, stops_pts, psi)


class TestCandidateModes:
    def test_both_mode_is_sound_for_endpoint_service(self):
        users = users_grid(60)
        zl = build(users, beta=4)
        stops = [Point(200, 200), Point(600, 600)]
        psi = 150.0
        cands = picked(
            zl, entry_ids(users),
            candidates(zl, BOTH, embr_of(stops, psi), stops_array(stops), psi),
        )
        for u in users:
            if _served_endpoint(u, stops, psi):
                assert (u.traj_id, -1) in cands

    def test_both_without_stops_uses_embr_only(self):
        """The stop test only tightens what the envelope alone selects
        (the reference filter with no stops)."""
        users = users_grid(60)
        zl = build(users, beta=4)
        ids = entry_ids(users)
        box = BBox(100, 100, 400, 400)
        node = z_node(zl, 0, WORLD)
        table, block = block_of(users)
        keys = ref_keys(node, ref_entries(node, table, block, IndexVariant.ENDPOINT))
        loose = picked(zl, ids, np.array(ref_candidates_both(node, keys, box, None, 0.0)))
        stops = [Point(250, 250)]
        tight = picked(zl, ids, candidates(zl, BOTH, box, stops_array(stops), 150.0))
        assert tight <= loose and tight

    def test_any_mode_superset_of_both(self):
        users = users_grid(60)
        zl = build(users, beta=4)
        ids = entry_ids(users)
        box = BBox(100, 100, 400, 400)
        stops = stops_array([Point(250, 250)])
        both = picked(zl, ids, candidates(zl, BOTH, box, stops, 150.0))
        any_ = picked(zl, ids, candidates(zl, ANY, box, stops, 150.0))
        assert both <= any_ and both

    def test_any_mode_catches_single_endpoint(self):
        users = [
            Trajectory(0, [(10, 10), (990, 990)]),  # start in box only
            Trajectory(1, [(990, 10), (15, 15)]),  # end in box only
            Trajectory(2, [(900, 900), (950, 950)]),  # neither
        ]
        zl = build(users, beta=2)
        box = BBox(0, 0, 100, 100)
        got = picked(
            zl, entry_ids(users), candidates(zl, ANY, box, stops_array([Point(50, 50)]), 71.0)
        )
        assert {(0, -1), (1, -1)} <= got

    def test_bbox_mode_sound_for_full_entries(self):
        """A FULL entry whose interior dips into the box is found even
        when both endpoints are far away."""
        detour = Trajectory(0, [(900, 900), (50, 50), (950, 950)])
        far = Trajectory(1, [(800, 800), (820, 820)])
        users = [detour, far]
        zl = stack_of(users, IndexVariant.FULL, beta=2)
        box = BBox(0, 0, 100, 100)
        got = picked(zl, entry_ids(users, IndexVariant.FULL), candidates(zl, BBOX, box))
        assert got == {(0, -1)}

    def test_empty_stop_set_disc_filter(self):
        """No stop, no serving area: the cell modes keep nothing, and
        the box mode never reads the stops."""
        zl = build(users_grid(30), beta=4)
        assert candidates(zl, BOTH, WORLD, np.zeros((0, 2)), 10.0).size == 0
        assert candidates(zl, ANY, WORLD, np.zeros((0, 2)), 10.0).size == 0
        assert candidates(zl, BBOX, WORLD, np.zeros((0, 2)), 10.0).size == 30

    @settings(max_examples=40)
    @given(trajectory_sets(min_size=1, max_size=25, min_points=2, max_points=2))
    def test_zreduce_soundness_property(self, users):
        """The central invariant: zReduce (both-mode) never prunes an
        entry that endpoint service would count."""
        zl = stack_of(users, beta=3)
        stops = [Point(300, 300), Point(700, 200)]
        psi = 120.0
        cands = picked(
            zl, entry_ids(users),
            candidates(zl, BOTH, embr_of(stops, psi), stops_array(stops), psi),
        )
        for u in users:
            if _served_endpoint(u, stops, psi):
                assert (u.traj_id, -1) in cands

    @settings(max_examples=40)
    @given(trajectory_sets(min_size=1, max_size=25, min_points=2, max_points=5))
    def test_any_mode_soundness_for_point_coverage(self, users):
        """Any-mode must keep every segmented entry with a covered
        governing point."""
        entries = entry_ids(users, IndexVariant.SEGMENTED)
        zl = stack_of(users, IndexVariant.SEGMENTED, beta=3)
        stops = [Point(500, 500)]
        psi = 200.0
        cands = picked(
            zl, entries,
            candidates(zl, ANY, embr_of(stops, psi), stops_array(stops), psi),
        )
        by_id = {u.traj_id: u for u in users}
        for tid, seg in entries:
            points = by_id[tid].points
            if _near(points[seg], stops, psi) or _near(points[seg + 1], stops, psi):
                assert (tid, seg) in cands

    @settings(max_examples=40)
    @given(trajectory_sets(min_size=1, max_size=20, min_points=2, max_points=6))
    def test_bbox_mode_soundness_for_full(self, users):
        zl = stack_of(users, IndexVariant.FULL, beta=3)
        box = BBox(200, 200, 600, 600)
        cands = picked(zl, entry_ids(users, IndexVariant.FULL), candidates(zl, BBOX, box))
        for u in users:
            if any(box.contains_point(p) for p in u.points):
                assert (u.traj_id, -1) in cands
