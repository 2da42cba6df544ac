"""Unit and property tests for repro.core.geometry."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import BBox, GeometryError, Point
from repro.core.geometry import (
    bbox_of_points,
    dist,
    dist_sq,
    point_segment_dist,
    polyline_length,
)

from .strategies import points


class TestPoint:
    def test_distance_pythagoras(self):
        assert dist(Point(0, 0), Point(3, 4)) == 5.0

    def test_distance_is_symmetric(self):
        a, b = Point(1.5, 2.5), Point(-3.0, 7.0)
        assert dist(a, b) == dist(b, a)

    def test_dist_sq_matches_dist(self):
        a, b = Point(1, 2), Point(4, 6)
        assert dist_sq(a, b) == pytest.approx(dist(a, b) ** 2)

    def test_rejects_nan(self):
        with pytest.raises(GeometryError):
            Point(float("nan"), 0.0)

    def test_rejects_inf(self):
        with pytest.raises(GeometryError):
            Point(0.0, float("inf"))

    def test_iteration_and_tuple(self):
        p = Point(3.0, 4.0)
        assert tuple(p) == (3.0, 4.0)
        assert p.as_tuple() == (3.0, 4.0)

    def test_equality_and_hash(self):
        assert Point(1, 2) == Point(1.0, 2.0)
        assert hash(Point(1, 2)) == hash(Point(1.0, 2.0))

    @given(points(), points())
    def test_triangle_inequality_through_origin(self, a, b):
        origin = Point(0.0, 0.0)
        assert dist(a, b) <= dist(a, origin) + dist(origin, b) + 1e-9


class TestSegmentDistance:
    def test_projection_inside_segment(self):
        d = point_segment_dist(Point(1, 1), Point(0, 0), Point(2, 0))
        assert d == pytest.approx(1.0)

    def test_projection_clamps_to_endpoint(self):
        d = point_segment_dist(Point(5, 1), Point(0, 0), Point(2, 0))
        assert d == pytest.approx(math.hypot(3, 1))

    def test_degenerate_segment(self):
        d = point_segment_dist(Point(1, 1), Point(0, 0), Point(0, 0))
        assert d == pytest.approx(math.sqrt(2))

    @given(points(), points(), points())
    def test_never_exceeds_endpoint_distances(self, p, a, b):
        d = point_segment_dist(p, a, b)
        assert d <= dist(p, a) + 1e-9
        assert d <= dist(p, b) + 1e-9


class TestPolylineLength:
    def test_two_points(self):
        assert polyline_length([Point(0, 0), Point(3, 4)]) == 5.0

    def test_single_point_is_zero(self):
        assert polyline_length([Point(1, 1)]) == 0.0

    def test_empty_is_zero(self):
        assert polyline_length([]) == 0.0

    def test_accumulates_segments(self):
        pts = [Point(0, 0), Point(1, 0), Point(1, 1)]
        assert polyline_length(pts) == pytest.approx(2.0)


class TestBBox:
    def test_rejects_inverted(self):
        with pytest.raises(GeometryError):
            BBox(1, 0, 0, 1)

    def test_rejects_nan(self):
        with pytest.raises(GeometryError):
            BBox(0, 0, float("nan"), 1)

    def test_zero_area_box_is_valid(self):
        b = BBox(1, 1, 1, 1)
        assert b.area() == 0.0
        assert b.contains_point(Point(1, 1))

    def test_contains_point_boundary_closed(self):
        b = BBox(0, 0, 10, 10)
        assert b.contains_point(Point(0, 0))
        assert b.contains_point(Point(10, 10))
        assert not b.contains_point(Point(10.0001, 5))

    def test_intersects_edge_touching(self):
        assert BBox(0, 0, 1, 1).intersects(BBox(1, 1, 2, 2))

    def test_disjoint_do_not_intersect(self):
        assert not BBox(0, 0, 1, 1).intersects(BBox(2, 2, 3, 3))

    def test_expanded(self):
        b = BBox(0, 0, 2, 2).expanded(1.0)
        assert (b.xmin, b.ymin, b.xmax, b.ymax) == (-1, -1, 3, 3)

    def test_expanded_rejects_negative(self):
        with pytest.raises(GeometryError):
            BBox(0, 0, 1, 1).expanded(-0.5)

    def test_intersection(self):
        got = BBox(0, 0, 4, 4).intersection(BBox(2, 2, 6, 6))
        assert got == BBox(2, 2, 4, 4)

    def test_intersection_disjoint_is_none(self):
        assert BBox(0, 0, 1, 1).intersection(BBox(5, 5, 6, 6)) is None

    def test_union(self):
        got = BBox(0, 0, 1, 1).union(BBox(5, 5, 6, 6))
        assert got == BBox(0, 0, 6, 6)

    def test_intersects_circle_nearest_point(self):
        b = BBox(0, 0, 2, 2)
        assert b.intersects_circle(Point(3, 1), 1.0)
        assert not b.intersects_circle(Point(3.01, 1), 1.0)

    def test_intersects_circle_center_inside(self):
        assert BBox(0, 0, 2, 2).intersects_circle(Point(1, 1), 0.0)

    def test_intersects_circle_negative_radius(self):
        with pytest.raises(GeometryError):
            BBox(0, 0, 1, 1).intersects_circle(Point(0, 0), -1.0)


class TestQuadrants:
    def test_quadrants_tile_parent(self):
        b = BBox(0, 0, 8, 4)
        q = b.quadrants()
        assert q[0] == BBox(0, 0, 4, 2)  # SW
        assert q[1] == BBox(4, 0, 8, 2)  # SE
        assert q[2] == BBox(0, 2, 4, 4)  # NW
        assert q[3] == BBox(4, 2, 8, 4)  # NE

    def test_quadrant_of_matches_quadrants(self):
        b = BBox(0, 0, 10, 10)
        for p, expected in [
            (Point(1, 1), 0),
            (Point(9, 1), 1),
            (Point(1, 9), 2),
            (Point(9, 9), 3),
        ]:
            assert b.quadrant_of(p) == expected
            assert b.quadrants()[expected].contains_point(p)

    def test_split_line_routes_upper_right(self):
        b = BBox(0, 0, 10, 10)
        assert b.quadrant_of(Point(5, 5)) == 3
        assert b.quadrant_of(Point(5, 0)) == 1
        assert b.quadrant_of(Point(0, 5)) == 2

    def test_quadrant_index_bounds(self):
        with pytest.raises(GeometryError):
            BBox(0, 0, 1, 1).quadrant(4)

    @given(points())
    def test_every_point_lands_in_its_quadrant(self, p):
        b = BBox(0, 0, 1024, 1024)
        q = b.quadrant_of(p)
        assert b.quadrants()[q].contains_point(p)

    def test_quadrant_areas_sum_to_parent(self):
        b = BBox(0, 0, 6, 8)
        assert sum(q.area() for q in b.quadrants()) == pytest.approx(b.area())


class TestBBoxOfPoints:
    def test_single_point(self):
        b = bbox_of_points([Point(2, 3)])
        assert b == BBox(2, 3, 2, 3)

    def test_many_points(self):
        b = bbox_of_points([Point(1, 5), Point(4, 2), Point(3, 3)])
        assert b == BBox(1, 2, 4, 5)

    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            bbox_of_points([])

    @given(st.lists(points(), min_size=1, max_size=20))
    def test_contains_all_inputs(self, pts):
        b = bbox_of_points(pts)
        assert all(b.contains_point(p) for p in pts)
