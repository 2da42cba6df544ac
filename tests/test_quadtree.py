"""Unit and property tests for the baseline point quadtree."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Point, PointQuadtree
from repro.core.errors import IndexError_

from .strategies import WORLD, points


def brute_circle(items, center, radius):
    return sorted(
        (p.as_tuple(), v)
        for p, v in items
        if p.dist_to(center) <= radius
    )


class TestConstruction:
    def test_invalid_capacity(self):
        with pytest.raises(IndexError_):
            PointQuadtree(WORLD, capacity=0)

    def test_invalid_depth(self):
        with pytest.raises(IndexError_):
            PointQuadtree(WORLD, max_depth=0)

    def test_insert_outside_space_rejected(self):
        qt = PointQuadtree(WORLD)
        with pytest.raises(IndexError_):
            qt.insert(Point(-1, 0), "x")

    def test_len_counts_inserts(self):
        qt = PointQuadtree(WORLD, capacity=2)
        for i in range(10):
            qt.insert(Point(i * 10, i * 10), i)
        assert len(qt) == 10

    def test_duplicate_points_allowed(self):
        qt = PointQuadtree(WORLD, capacity=2, max_depth=4)
        for i in range(20):
            qt.insert(Point(5, 5), i)
        assert len(qt) == 20
        hits = list(qt.query_circle(Point(5, 5), 0.0))
        assert len(hits) == 20

    def test_split_reduces_leaf_occupancy(self):
        qt = PointQuadtree(WORLD, capacity=4)
        pts = [Point(i * 97 % 1000, i * 61 % 1000) for i in range(100)]
        for i, p in enumerate(pts):
            qt.insert(p, i)
        assert qt.height() > 1
        assert qt.n_nodes() > 1


class TestQueries:
    def test_circle_query_exact(self):
        qt = PointQuadtree(WORLD, capacity=3)
        items = [(Point((i * 50.0) % 1000, (i * 37) % 1000), i) for i in range(40)]
        qt.extend(items)
        center, radius = Point(500, 500), 250.0
        got = sorted((p.as_tuple(), v) for p, v in qt.query_circle(center, radius))
        assert got == brute_circle(items, center, radius)

    def test_negative_radius_rejected(self):
        qt = PointQuadtree(WORLD)
        with pytest.raises(IndexError_):
            list(qt.query_circle(Point(0, 0), -1.0))

    def test_empty_tree_queries(self):
        qt = PointQuadtree(WORLD)
        assert list(qt.query_circle(Point(1, 1), 100.0)) == []

    def test_zero_radius_finds_exact_point(self):
        qt = PointQuadtree(WORLD)
        qt.insert(Point(3, 4), "hit")
        got = list(qt.query_circle(Point(3, 4), 0.0))
        assert got == [(Point(3, 4), "hit")]

    @given(
        st.lists(st.tuples(points(), st.integers()), min_size=0, max_size=60),
        points(),
        st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
    )
    def test_circle_matches_brute_force(self, items, center, radius):
        qt = PointQuadtree(WORLD, capacity=4, max_depth=8)
        qt.extend(items)
        got = sorted((p.as_tuple(), v) for p, v in qt.query_circle(center, radius))
        assert got == brute_circle(items, center, radius)
