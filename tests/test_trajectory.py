"""Unit tests for repro.core.trajectory."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FacilityRoute, Point, Trajectory, TrajectoryError


class TestTrajectory:
    def test_basic_properties(self):
        t = Trajectory(1, [(0, 0), (3, 4), (3, 8)])
        assert t.traj_id == 1
        assert t.n_points == 3
        assert t.start == Point(0, 0)
        assert t.end == Point(3, 8)
        assert t.length == pytest.approx(9.0)
        assert t.n_segments == 2

    def test_accepts_point_objects(self):
        t = Trajectory(2, [Point(1, 1), Point(2, 2)])
        assert t.points == (Point(1, 1), Point(2, 2))

    def test_single_point(self):
        t = Trajectory(0, [(5, 5)])
        assert t.start == t.end == Point(5, 5)
        assert t.length == 0.0
        assert t.n_segments == 0

    def test_empty_rejected(self):
        with pytest.raises(TrajectoryError):
            Trajectory(0, [])

    def test_malformed_point_rejected(self):
        with pytest.raises(TrajectoryError):
            Trajectory(0, [(1, 2, 3)])
        with pytest.raises(TrajectoryError):
            Trajectory(0, ["ab"])

    def test_non_finite_rejected(self):
        with pytest.raises(TrajectoryError):
            Trajectory(0, [(float("nan"), 1)])

    def test_coords_shape_and_readonly(self):
        t = Trajectory(1, [(0, 0), (1, 1)])
        assert t.coords.shape == (2, 2)
        with pytest.raises(ValueError):
            t.coords[0, 0] = 9.0

    def test_segment_lengths(self):
        t = Trajectory(1, [(0, 0), (3, 4), (3, 4)])
        assert t.segment_lengths == (5.0, 0.0)

    def test_segment_accessor(self):
        t = Trajectory(1, [(0, 0), (1, 0), (1, 1)])
        assert t.segment(1) == (Point(1, 0), Point(1, 1))
        with pytest.raises(TrajectoryError):
            t.segment(2)
        with pytest.raises(TrajectoryError):
            t.segment(-1)

    def test_bbox(self):
        t = Trajectory(1, [(0, 5), (4, 1)])
        assert t.bbox.xmin == 0 and t.bbox.ymax == 5

    def test_len_and_iter(self):
        t = Trajectory(1, [(0, 0), (1, 1), (2, 2)])
        assert len(t) == 3
        assert list(t) == [Point(0, 0), Point(1, 1), Point(2, 2)]

    def test_equality_and_hash(self):
        a = Trajectory(1, [(0, 0), (1, 1)])
        b = Trajectory(1, [(0, 0), (1, 1)])
        c = Trajectory(2, [(0, 0), (1, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_repr_mentions_id(self):
        assert "id=7" in repr(Trajectory(7, [(0, 0)]))


class TestFacilityRoute:
    def test_basic_properties(self):
        f = FacilityRoute(3, [(0, 0), (10, 0), (10, 10)])
        assert f.facility_id == 3
        assert f.n_stops == 3

    def test_embr_expansion(self):
        f = FacilityRoute(0, [(0, 0), (10, 10)])
        embr = f.embr(5.0)
        assert (embr.xmin, embr.ymin, embr.xmax, embr.ymax) == (-5, -5, 15, 15)

    def test_empty_rejected(self):
        with pytest.raises(TrajectoryError):
            FacilityRoute(0, [])

    def test_stop_coords_readonly(self):
        f = FacilityRoute(0, [(0, 0)])
        with pytest.raises(ValueError):
            f.stop_coords[0, 0] = 1.0

    def test_equality(self):
        assert FacilityRoute(1, [(0, 0)]) == FacilityRoute(1, [(0, 0)])
        assert FacilityRoute(1, [(0, 0)]) != FacilityRoute(1, [(1, 0)])

    def test_iter_and_len(self):
        f = FacilityRoute(1, [(0, 0), (1, 1)])
        assert len(f) == 2
        assert list(f)[1] == Point(1, 1)

    def test_coords_match_stops(self):
        f = FacilityRoute(1, [(0, 1), (2, 3)])
        np.testing.assert_array_equal(f.stop_coords, [[0, 1], [2, 3]])
