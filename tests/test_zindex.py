"""Unit and property tests for the z-ordered bucket lists (zReduce)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BBox, IndexVariant, Point, Trajectory
from repro.core.errors import IndexError_

from .strategies import WORLD, entry_ids, trajectory_sets, zlist_of


def build(users, beta=4, variant=IndexVariant.ENDPOINT):
    return zlist_of(users, variant, beta)


def users_grid(n):
    return [
        Trajectory(i, [((i * 97) % 1000, (i * 61) % 1000), ((i * 31) % 1000, (i * 43) % 1000)])
        for i in range(n)
    ]


def picked(zl, entries, positions):
    """The ids (of ``entries``, the list in key order) at the given
    sorted-order positions (what the candidate modes return)."""
    assert positions.tolist() == sorted(set(positions.tolist()))
    return {entries[i] for i in zl.order[positions].tolist()}


def stops_array(points):
    return np.array([(p.x, p.y) for p in points], dtype=np.float64)


def embr_of(stops, psi):
    xs = [p.x for p in stops]
    ys = [p.y for p in stops]
    return BBox(min(xs) - psi, min(ys) - psi, max(xs) + psi, max(ys) + psi)


class TestConstruction:
    def test_beta_validated(self):
        with pytest.raises(IndexError_):
            zlist_of([], beta=0)

    def test_empty_list(self):
        zl = zlist_of([], beta=4)
        assert len(zl) == 0
        assert zl.n_buckets == 0
        assert zl.candidates_both(WORLD).size == 0

    def test_bucket_capacity_respected(self):
        zl = build(users_grid(50), beta=4)
        assert all(size <= 4 for size in zl.bucket_sizes())
        assert sum(zl.bucket_sizes()) == 50

    def test_entries_sorted_by_zid_pairs(self):
        users = users_grid(40)
        zl = build(users, beta=4)
        ids = entry_ids(users)
        keys = list(zip(zl.start_rank.tolist(), zl.end_rank.tolist(),
                        (ids[i] for i in zl.order.tolist())))
        assert keys == sorted(keys)
        # ranks order leaves exactly as their z-ids do
        zids = [(zl.start_grid.zid_of(users[i].start), zl.end_grid.zid_of(users[i].end))
                for i in zl.order.tolist()]
        assert zids == sorted(zids)

    def test_end_ids_disambiguated_where_possible(self):
        """With disambiguation enabled, entries sharing a start cell get
        distinct end ids (distinct end points, generous depth)."""
        users = [
            Trajectory(0, [(10, 10), (800, 100)]),
            Trajectory(1, [(11, 11), (100, 800)]),
            Trajectory(2, [(12, 12), (500, 500)]),
        ]
        zl = zlist_of(users, beta=4, disambiguation_passes=8)
        by_start = {}
        for s, e in zip(zl.start_rank.tolist(), zl.end_rank.tolist()):
            by_start.setdefault(s, []).append(e)
        for ends in by_start.values():
            assert len(set(ends)) == len(ends)

    def test_identical_pairs_terminate(self):
        """Duplicate (start, end) pairs cannot be separated; the depth cap
        must stop refinement rather than loop."""
        users = [Trajectory(i, [(5, 5), (900, 900)]) for i in range(6)]
        zl = zlist_of(users, beta=2, z_max_depth=5, disambiguation_passes=10)
        assert len(zl) == 6


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
            zl.candidates_both(embr_of(stops, psi), stops_array(stops), psi),
        )
        for u in users:
            if _served_endpoint(u, stops, psi):
                assert (u.traj_id, -1) in cands

    def test_both_without_stops_uses_embr_only(self):
        users = users_grid(60)
        zl = build(users, beta=4)
        ids = entry_ids(users)
        box = BBox(100, 100, 400, 400)
        loose = picked(zl, ids, zl.candidates_both(box))
        stops = [Point(250, 250)]
        tight = picked(zl, ids, zl.candidates_both(box, stops_array(stops), 150.0))
        assert tight <= loose

    def test_any_mode_superset_of_both(self):
        users = users_grid(60)
        zl = build(users, beta=4)
        ids = entry_ids(users)
        box = BBox(100, 100, 400, 400)
        both = picked(zl, ids, zl.candidates_both(box))
        any_ = picked(zl, ids, zl.candidates_any(box))
        assert both <= any_

    def test_any_mode_catches_single_endpoint(self):
        users = [
            Trajectory(0, [(10, 10), (990, 990)]),  # start in box only
            Trajectory(1, [(990, 10), (15, 15)]),  # end in box only
            Trajectory(2, [(900, 900), (950, 950)]),  # neither
        ]
        zl = build(users, beta=2)
        got = picked(zl, entry_ids(users), zl.candidates_any(BBox(0, 0, 100, 100)))
        assert {(0, -1), (1, -1)} <= got

    def test_bbox_mode_sound_for_full_entries(self):
        """A FULL entry whose interior dips into the box is found even
        when both endpoints are far away."""
        detour = Trajectory(0, [(900, 900), (50, 50), (950, 950)])
        far = Trajectory(1, [(800, 800), (820, 820)])
        users = [detour, far]
        zl = zlist_of(users, IndexVariant.FULL, beta=2)
        box = BBox(0, 0, 100, 100)
        got = picked(zl, entry_ids(users, IndexVariant.FULL), zl.candidates_bbox(box))
        assert got == {(0, -1)}

    def test_empty_stop_set_disc_filter(self):
        zl = build(users_grid(30), beta=4)
        got = zl.candidates_both(WORLD, np.zeros((0, 2)), 10.0)
        # with no stops the EMBR-only filter applies (stops given but empty)
        assert got.tolist() == zl.candidates_both(WORLD).tolist()

    @settings(max_examples=40)
    @given(trajectory_sets(min_size=1, max_size=25, min_points=2, max_points=2))
    def test_zreduce_soundness_property(self, users):
        """The central invariant: zReduce (both-mode) never prunes an
        entry that endpoint service would count."""
        zl = zlist_of(users, beta=3)
        stops = [Point(300, 300), Point(700, 200)]
        psi = 120.0
        cands = picked(
            zl, entry_ids(users),
            zl.candidates_both(embr_of(stops, psi), stops_array(stops), psi),
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
        zl = zlist_of(users, IndexVariant.SEGMENTED, beta=3)
        stops = [Point(500, 500)]
        psi = 200.0
        cands = picked(
            zl, entries,
            zl.candidates_any(embr_of(stops, psi), stops_array(stops), psi),
        )
        by_id = {u.traj_id: u for u in users}
        for tid, seg in entries:
            points = by_id[tid].points
            if _near(points[seg], stops, psi) or _near(points[seg + 1], stops, psi):
                assert (tid, seg) in cands

    @settings(max_examples=40)
    @given(trajectory_sets(min_size=1, max_size=20, min_points=2, max_points=6))
    def test_bbox_mode_soundness_for_full(self, users):
        zl = zlist_of(users, IndexVariant.FULL, beta=3)
        box = BBox(200, 200, 600, 600)
        cands = picked(zl, entry_ids(users, IndexVariant.FULL), zl.candidates_bbox(box))
        for u in users:
            if any(box.contains_point(p) for p in u.points):
                assert (u.traj_id, -1) in cands
