"""Unit and property tests for repro.core.zorder."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro import BBox, GeometryError, Point, TQTreeConfig, ZID
from repro.core.errors import IndexError_
from repro.core.zorder import (
    boxes_meet,
    morton_decode,
    morton_decode_array,
    morton_encode,
    morton_encode_array,
    quarter_boxes,
    zid_of_point,
)

from .strategies import WORLD, box_row, leaf_cells, points


class TestZID:
    def test_digit_range_validated(self):
        with pytest.raises(GeometryError):
            ZID((0, 4))

    def test_lexicographic_order_matches_z_order(self):
        assert ZID((0,)) < ZID((0, 1)) < ZID((1,)) < ZID((1, 0)) < ZID((2,))

    def test_prefix_of(self):
        assert ZID((1,)).is_prefix_of(ZID((1, 2)))
        assert ZID(()).is_prefix_of(ZID((3, 3)))
        assert not ZID((1, 2)).is_prefix_of(ZID((1,)))
        assert ZID((2,)).is_prefix_of(ZID((2,)))

    def test_range_high_simple(self):
        assert ZID((1, 2)).range_high() == ZID((1, 3))

    def test_range_high_carry(self):
        assert ZID((1, 3)).range_high() == ZID((2,))
        assert ZID((2, 3, 3)).range_high() == ZID((3,))

    def test_range_high_saturated(self):
        assert ZID((3, 3)).range_high() is None
        assert ZID(()).range_high() is None

    def test_child(self):
        assert ZID((1,)).child(2) == ZID((1, 2))
        with pytest.raises(GeometryError):
            ZID(()).child(5)

    def test_str_paper_notation(self):
        assert str(ZID((0, 1, 2))) == "0.1.2"
        assert str(ZID(())) == "<root>"

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    def test_subtree_within_range(self, digits):
        """Every descendant id lies in [prefix, range_high)."""
        prefix = ZID(tuple(digits[: len(digits) // 2 + 1]))
        descendant = ZID(tuple(digits[: len(digits) // 2 + 1] + digits))
        assert prefix <= descendant
        high = prefix.range_high()
        if high is not None:
            assert descendant < high


class TestMorton:
    def test_encode_known_values(self):
        # depth 1: digit = x | (y << 1)
        assert morton_encode(0, 0, 1) == 0
        assert morton_encode(1, 0, 1) == 1
        assert morton_encode(0, 1, 1) == 2
        assert morton_encode(1, 1, 1) == 3

    def test_encode_depth_two(self):
        assert morton_encode(2, 0, 2) == 0b0100
        assert morton_encode(3, 3, 2) == 0b1111

    @given(st.integers(0, 7), st.integers(0, 7))
    def test_round_trip_depth3(self, ix, iy):
        assert morton_decode(morton_encode(ix, iy, 3), 3) == (ix, iy)

    def test_out_of_range_rejected(self):
        with pytest.raises(GeometryError):
            morton_encode(4, 0, 2)
        with pytest.raises(GeometryError):
            morton_decode(16, 2)

    def test_zero_depth(self):
        assert morton_encode(0, 0, 0) == 0
        assert morton_decode(0, 0) == (0, 0)

    def test_locality_monotone_along_row_block(self):
        """Codes in the same quadrant are contiguous before codes of the next."""
        d = 2
        sw = [morton_encode(x, y, d) for x in (0, 1) for y in (0, 1)]
        ne = [morton_encode(x, y, d) for x in (2, 3) for y in (2, 3)]
        assert max(sw) < min(ne)


class TestMortonArray:
    """The vectorised codecs must be bit-identical to the scalar
    MSB-first reference for every index and depth."""

    @given(
        st.integers(1, 10),
        st.integers(0, 1_000_000),
    )
    def test_matches_scalar_encoder(self, depth, seed):
        rng = np.random.default_rng(seed)
        n = 1 << depth
        xs = rng.integers(0, n, size=16)
        ys = rng.integers(0, n, size=16)
        codes = morton_encode_array(xs, ys, depth)
        assert codes.dtype == np.int64
        for x, y, c in zip(xs, ys, codes):
            assert int(c) == morton_encode(int(x), int(y), depth)

    @given(st.integers(0, 12), st.integers(0, 1_000_000))
    def test_round_trip(self, depth, seed):
        rng = np.random.default_rng(seed)
        n = 1 << depth
        xs = rng.integers(0, n, size=32)
        ys = rng.integers(0, n, size=32)
        dx, dy = morton_decode_array(morton_encode_array(xs, ys, depth), depth)
        assert np.array_equal(dx, xs)
        assert np.array_equal(dy, ys)

    def test_boundary_indices_at_every_depth(self):
        """The axis extremes — 0 and 2**depth - 1 — encode and round-trip
        at every depth up to the 31-bit cap."""
        for depth in (1, 2, 12, 30, 31):
            hi = (1 << depth) - 1
            xs = np.array([0, hi, 0, hi], dtype=np.int64)
            ys = np.array([0, 0, hi, hi], dtype=np.int64)
            codes = morton_encode_array(xs, ys, depth)
            assert int(codes.min()) == 0
            assert int(codes.max()) == (1 << (2 * depth)) - 1
            dx, dy = morton_decode_array(codes, depth)
            assert np.array_equal(dx, xs)
            assert np.array_equal(dy, ys)

    def test_depth_zero(self):
        codes = morton_encode_array(
            np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64), 0
        )
        assert codes.tolist() == [0, 0, 0]
        dx, dy = morton_decode_array(codes, 0)
        assert dx.tolist() == [0, 0, 0] and dy.tolist() == [0, 0, 0]

    def test_out_of_range_rejected(self):
        n = np.array([4], dtype=np.int64)
        ok = np.array([0], dtype=np.int64)
        with pytest.raises(GeometryError):
            morton_encode_array(n, ok, 2)
        with pytest.raises(GeometryError):
            morton_encode_array(ok, n, 2)
        with pytest.raises(GeometryError):
            morton_encode_array(-n, ok, 2)  # negative index: no wrap
        with pytest.raises(GeometryError):
            morton_decode_array(np.array([16], dtype=np.int64), 2)
        with pytest.raises(GeometryError):
            morton_decode_array(np.array([-1], dtype=np.int64), 2)

    def test_depth_cap_enforced(self):
        z = np.zeros(1, dtype=np.int64)
        with pytest.raises(GeometryError):
            morton_encode_array(z, z, 32)
        with pytest.raises(GeometryError):
            morton_encode_array(z, z, -1)

    def test_prefix_truncation_matches_coarse_encode(self):
        """Dropping d low digit pairs of a fine code equals encoding the
        right-shifted indices at the coarser depth — the invariant the
        cellstring tier's coarse reject leans on."""
        rng = np.random.default_rng(77)
        depth, drop = 10, 3
        n = 1 << depth
        xs = rng.integers(0, n, size=64)
        ys = rng.integers(0, n, size=64)
        fine = morton_encode_array(xs, ys, depth)
        coarse = morton_encode_array(xs >> drop, ys >> drop, depth - drop)
        assert np.array_equal(fine >> np.int64(2 * drop), coarse)


class TestZidOfPoint:
    def test_depth_zero_is_root(self):
        assert zid_of_point(Point(1, 1), WORLD, 0) == ZID(())

    def test_descends_correct_quadrants(self):
        box = BBox(0, 0, 100, 100)
        assert zid_of_point(Point(10, 10), box, 1) == ZID((0,))
        assert zid_of_point(Point(90, 10), box, 1) == ZID((1,))
        assert zid_of_point(Point(10, 90), box, 2).digits[0] == 2

    def test_outside_space_rejected(self):
        with pytest.raises(GeometryError):
            zid_of_point(Point(-1, 0), WORLD, 2)

    def test_negative_depth_rejected(self):
        with pytest.raises(GeometryError):
            zid_of_point(Point(1, 1), WORLD, -1)

    @given(points(), st.integers(0, 6))
    def test_prefix_consistency_across_depths(self, p, depth):
        """The depth-d id is a prefix of the depth-(d+1) id."""
        a = zid_of_point(p, WORLD, depth)
        b = zid_of_point(p, WORLD, depth + 1)
        assert a.is_prefix_of(b)


class TestCellKeyBoundaries:
    """Cell-key derivation pins for boundary points and negative
    coordinates: ties at quadrant seams resolve *high* (a seam point
    belongs to the upper/right child), the space's max corner is a
    valid point at every depth, and spaces spanning negative
    coordinates derive keys by the same descent — including the
    ``-0.0`` / ``0.0`` float identity."""

    def test_midline_tie_resolves_to_upper_right(self):
        box = BBox(0, 0, 100, 100)
        assert zid_of_point(Point(50, 50), box, 1) == ZID((3,))
        assert zid_of_point(Point(50, 0), box, 1) == ZID((1,))
        assert zid_of_point(Point(0, 50), box, 1) == ZID((2,))

    def test_max_corner_valid_at_depth(self):
        box = BBox(0, 0, 100, 100)
        for depth in (1, 3, 6):
            zid = zid_of_point(Point(100, 100), box, depth)
            assert zid.digits == (3,) * depth

    def test_negative_coordinate_space(self):
        box = BBox(-100, -100, 100, 100)
        assert zid_of_point(Point(-100, -100), box, 2) == ZID((0, 0))
        assert zid_of_point(Point(-1, -1), box, 1) == ZID((0,))
        # the origin sits exactly on both midlines: ties go high
        assert zid_of_point(Point(0, 0), box, 1) == ZID((3,))

    def test_negative_zero_is_zero(self):
        box = BBox(-100, -100, 100, 100)
        assert zid_of_point(Point(-0.0, -0.0), box, 2) == zid_of_point(
            Point(0.0, 0.0), box, 2
        )

    def test_point_outside_negative_space_rejected(self):
        box = BBox(-100, -100, 100, 100)
        with pytest.raises(GeometryError):
            zid_of_point(Point(-100.0000001, 0), box, 1)


def _xy(pts):
    return np.array([(p.x, p.y) for p in pts], dtype=np.float64).reshape(-1, 2)


def partition(pts, beta, max_depth=16):
    """:func:`quarter_boxes` over ``WORLD`` alone: the leaf cells in Z
    order as ``(zid, box)`` pairs, and each point's leaf rank."""
    boxes, offsets, ranks = quarter_boxes(
        np.array([box_row(WORLD)]), np.zeros(len(pts), dtype=np.int64), _xy(pts),
        beta, max_depth,
    )
    assert offsets.tolist() == [0, boxes.shape[0]]
    return leaf_cells(WORLD, boxes), ranks


class TestAdaptiveZGrid:
    """The adaptive partition (:func:`quarter_boxes`), one box at a time."""

    def test_no_split_when_few_points(self):
        leaves, ranks = partition([Point(1, 1), Point(2, 2)], beta=4)
        assert leaves == [(ZID(()), WORLD)]
        assert ranks.tolist() == [0, 0]

    def test_splits_until_beta(self):
        pts = [Point(10 * i, 10) for i in range(10)]
        _leaves, ranks = partition(pts, beta=2)
        # every leaf must contain at most beta driving points
        assert np.bincount(ranks).max() <= 2

    def test_depth_cap_stops_identical_points(self):
        pts = [Point(5, 5)] * 10
        leaves, ranks = partition(pts, beta=2, max_depth=3)
        assert leaves[ranks[0]][0] == ZID((0, 0, 0))
        assert np.bincount(ranks).max() == 10

    def test_beta_validated(self):
        """The partition trusts its caller; the tree's config is where a
        block size below one (and a depth cap whose digit paths would
        overflow an int64) is refused."""
        with pytest.raises(IndexError_):
            TQTreeConfig(beta=0)
        with pytest.raises(IndexError_):
            TQTreeConfig(z_max_depth=32)
        assert TQTreeConfig(z_max_depth=31).z_max_depth == 31

    def test_zid_outside_rejected(self):
        with pytest.raises(GeometryError):
            zid_of_point(Point(-5, 0), WORLD, 1)

    def test_cells_intersecting_full_space(self):
        pts = [Point(i * 100 + 1, i * 100 + 1) for i in range(9)]
        leaves, _ranks = partition(pts, beta=2)
        boxes = np.array([box_row(box) for _zid, box in leaves])
        assert boxes_meet(boxes, WORLD).all()

    def test_cells_intersecting_small_box(self):
        pts = [Point(i * 100 + 1, i * 100 + 1) for i in range(9)]
        leaves, _ranks = partition(pts, beta=2)
        boxes = np.array([box_row(box) for _zid, box in leaves])
        near = boxes_meet(boxes, BBox(0, 0, 10, 10))
        assert 1 <= np.count_nonzero(near) < len(leaves)

    def test_cells_sorted_in_z_order(self):
        pts = [Point(i * 37 % 1000, i * 91 % 1000) for i in range(40)]
        leaves, _ranks = partition(pts, beta=3)
        zids = [zid for zid, _box in leaves]
        assert zids == sorted(zids) and len(set(zids)) == len(zids)

    def test_leaf_cells_tile_space(self):
        pts = [Point(i * 97 % 1000, i * 61 % 1000) for i in range(30)]
        leaves, _ranks = partition(pts, beta=3)
        total_area = sum(box.area() for _, box in leaves)
        assert total_area == pytest.approx(WORLD.area())

    @given(st.lists(points(), min_size=0, max_size=40), points())
    def test_any_point_maps_to_a_leaf_covering_it(self, driving, probe):
        leaves, ranks = partition(driving + [probe], beta=3)
        assert leaves[ranks[-1]][1].contains_point(probe)

    @given(st.lists(points(), min_size=1, max_size=40))
    def test_cells_where_is_sound(self, driving):
        """A leaf intersecting the query box is always reported."""
        leaves, _ranks = partition(driving, beta=3)
        box = BBox(100, 100, 300, 300)
        reported = boxes_meet(np.array([box_row(b) for _zid, b in leaves]), box)
        assert reported.tolist() == [b.intersects(box) for _zid, b in leaves]

    def test_two_boxes_split_independently(self):
        """Points of one box never count towards another's cells."""
        left, right = BBox(0, 0, 512, 512), BBox(512, 0, 1024, 512)
        xy = np.array([(10.0, 10.0)] * 3 + [(600.0, 10.0)] * 2)
        owner = np.array([0, 0, 0, 1, 1])
        boxes, offsets, ranks = quarter_boxes(
            np.array([box_row(left), box_row(right)]), owner, xy, 2, 2
        )
        assert offsets.tolist() == [0, 7, 8]  # two levels of four, less the split cell
        assert ranks.tolist() == [0, 0, 0, 0, 0]
        assert boxes[-1].tolist() == box_row(right)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_partition_matches_the_scalar_descent(self, data):
        """Over several boxes at once, duplicates, points on split lines
        and negative coordinates included: every point's leaf is the box
        ``zid_of_point`` descends to, no leaf above the depth cap holds
        more than ``beta`` points, every split cell held more than
        ``beta``, and the leaves tile each box in Z order."""
        beta = data.draw(st.integers(1, 4))
        max_depth = data.draw(st.integers(1, 5))
        roots = [
            BBox(x, y, x + w, y + h)
            for x, y, w, h in data.draw(st.lists(
                st.tuples(st.integers(-64, 64), st.integers(-64, 64),
                          st.sampled_from([1, 6, 32, 48]), st.sampled_from([1, 6, 32, 48])),
                min_size=1, max_size=4,
            ))
        ]
        owner, pts = [], []
        for j, root in enumerate(roots):
            # sixteenths of the box: split lines down to depth 4 get hit
            for fx, fy in data.draw(st.lists(
                st.tuples(st.integers(0, 16), st.integers(0, 16)), max_size=24
            )):
                owner.append(j)
                pts.append(Point(root.xmin + root.width * fx / 16, root.ymin + root.height * fy / 16))
        owner = np.array(owner, dtype=np.int64)
        boxes, offsets, ranks = quarter_boxes(
            np.array([box_row(r) for r in roots]), owner, _xy(pts), beta, max_depth
        )
        assert offsets[0] == 0 and offsets[-1] == boxes.shape[0]
        for j, root in enumerate(roots):
            leaves = leaf_cells(root, boxes[offsets[j] : offsets[j + 1]])
            zids = [zid for zid, _box in leaves]
            assert zids == sorted(zids)
            assert sum(box.area() for _zid, box in leaves) == pytest.approx(root.area())
            mine = np.flatnonzero(owner == j)
            held = np.bincount(ranks[mine], minlength=len(leaves))
            for i in mine.tolist():
                zid, box = leaves[ranks[i]]
                assert zid == zid_of_point(pts[i], root, zid.depth)
                assert box.contains_point(pts[i])
            for (zid, _box), n in zip(leaves, held.tolist()):
                assert n <= beta or zid.depth == max_depth
            # a cell was split only if it held more than beta points
            parents = {zid.digits[:d] for zid in zids for d in range(zid.depth)}
            for prefix in parents:
                inside = sum(
                    n for (zid, _box), n in zip(leaves, held.tolist())
                    if zid.digits[: len(prefix)] == prefix
                )
                assert inside > beta
