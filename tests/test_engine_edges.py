"""Edge-case tests for the uniform stop grid.

The grid's correctness argument (a stop within ``psi`` of a point is
always in the 3x3 cell neighbourhood because cells are at least ``psi``
wide) has sharp corners: empty stop sets, ``psi = 0``, points exactly
on cell boundaries, distances exactly equal to ``psi``, one-stop
facilities, and coordinates spanning negative/positive quadrants (the
grid origin is the stop bbox corner, but probe points may lie anywhere).
Each case is pinned against the dense oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BatchQueryEngine,
    GriddedStopSet,
    Point,
    ProximityBackend,
    QueryError,
    QueryRuntime,
    ServiceModel,
    ServiceSpec,
    ShardedStopGrid,
    StopSet,
    Trajectory,
    brute_force_service,
)


def _assert_grid_matches_dense(stop_coords, probe, psi):
    stops = np.asarray(stop_coords, dtype=np.float64).reshape(-1, 2)
    pts = np.asarray(probe, dtype=np.float64).reshape(-1, 2)
    dense = StopSet(stops)
    expected = dense.covered_mask(pts, psi)
    grid = ShardedStopGrid(stops, psi)
    gridded = GriddedStopSet(stops, psi)
    assert np.array_equal(expected, grid.covered_mask(pts, psi))
    assert np.array_equal(expected, gridded.covered_mask(pts, psi))
    return expected


class TestEmptyAndDegenerate:
    def test_empty_stop_set(self):
        empty = np.zeros((0, 2))
        probe = [[0.0, 0.0], [5.0, 5.0]]
        mask = _assert_grid_matches_dense(empty, probe, 10.0)
        assert not mask.any()
        grid = ShardedStopGrid(empty, 10.0)
        assert grid.is_empty and all(s.n_cells == 0 for s in grid.shards)
        assert not grid.covers_point(Point(0.0, 0.0), 10.0)

    def test_single_stop_facility(self):
        probe = [[0.0, 0.0], [3.0, 4.0], [3.0, 4.001], [-3.0, -4.0]]
        mask = _assert_grid_matches_dense([[0.0, 0.0]], probe, 5.0)
        assert mask.tolist() == [True, True, False, True]

    def test_all_stops_coincident(self):
        stops = [[7.0, 7.0]] * 12
        probe = [[7.0, 7.0], [7.0, 8.0], [8.1, 7.0]]
        mask = _assert_grid_matches_dense(stops, probe, 1.0)
        assert mask.tolist() == [True, True, False]

    def test_empty_probe_block(self):
        grid = ShardedStopGrid(np.array([[0.0, 0.0]]), 1.0)
        assert grid.covered_mask(np.zeros((0, 2)), 1.0).shape == (0,)


class TestPsiZero:
    def test_exact_coincidence_only(self):
        stops = [[1.0, 1.0], [2.0, 2.0]]
        probe = [[1.0, 1.0], [1.0, 1.0 + 1e-12], [2.0, 2.0], [1.5, 1.5]]
        mask = _assert_grid_matches_dense(stops, probe, 0.0)
        assert mask.tolist() == [True, False, True, False]

    def test_psi_zero_scores(self):
        users = [Trajectory(0, [(1.0, 1.0), (2.0, 2.0)]),
                 Trajectory(1, [(1.0, 1.0), (3.0, 3.0)])]
        from repro import FacilityRoute

        f = FacilityRoute(0, [(1.0, 1.0), (2.0, 2.0)])
        engine = BatchQueryEngine(
            users, runtime=QueryRuntime(backend=ProximityBackend.GRID)
        )
        for model in ServiceModel:
            spec = ServiceSpec(model, psi=0.0)
            assert engine.query(f, spec) == brute_force_service(users, f, spec)

    def test_negative_psi_rejected(self):
        with pytest.raises(QueryError):
            ShardedStopGrid(np.array([[0.0, 0.0]]), -1.0)
        with pytest.raises(QueryError):
            GriddedStopSet(np.array([[0.0, 0.0]]), -1.0)


class TestBoundaries:
    def test_points_on_cell_boundaries(self):
        """Stops on exact multiples of the cell size: a probe point on a
        shared cell edge must still find stops in every direction."""
        psi = 1.0
        stops = [[x * 1.0, y * 1.0] for x in range(5) for y in range(5)]
        probe = (
            [[x * 1.0, y * 1.0] for x in range(5) for y in range(5)]
            + [[x + 0.5, y + 0.5] for x in range(4) for y in range(4)]
            + [[2.0, 2.5], [2.5, 2.0], [0.0, 5.0], [5.0, 0.0]]
        )
        mask = _assert_grid_matches_dense(stops, probe, psi)
        assert mask[: 25].all()  # lattice points sit on stops

    def test_distance_exactly_psi_is_covered(self):
        """The serving disc is closed: d == psi counts (3-4-5 triangle)."""
        mask = _assert_grid_matches_dense(
            [[0.0, 0.0]], [[3.0, 4.0], [5.0, 0.0], [0.0, 5.0]], 5.0
        )
        assert mask.all()

    def test_distance_just_beyond_psi_is_not_covered(self):
        mask = _assert_grid_matches_dense(
            [[0.0, 0.0]], [[np.nextafter(5.0, 6.0), 0.0]], 5.0
        )
        assert not mask.any()

    def test_probe_far_outside_grid(self):
        """Points whose cells lie outside the stop grid band are
        definitively uncovered — no candidate gathering runs at all."""
        stops = [[0.0, 0.0], [10.0, 10.0]]
        probe = [[1e6, 1e6], [-1e6, 3.0], [5.0, -1e6]]
        mask = _assert_grid_matches_dense(stops, probe, 5.0)
        assert not mask.any()

    def test_psi_larger_than_cell_falls_back_dense(self):
        """Asking a built grid for a bigger radius must stay exact."""
        stops = np.array([[float(i), 0.0] for i in range(50)])
        grid = ShardedStopGrid(stops, 1.0)
        big_psi = 10.0
        assert big_psi > grid.cell_size
        expected = StopSet(stops).covered_mask(
            np.array([[25.0, 9.0], [25.0, 11.0]]), big_psi
        )
        assert np.array_equal(
            expected,
            grid.covered_mask(np.array([[25.0, 9.0], [25.0, 11.0]]), big_psi),
        )

    def test_cell_size_smaller_than_psi_rejected(self):
        with pytest.raises(QueryError):
            ShardedStopGrid(np.array([[0.0, 0.0]]), 5.0, cell_size=1.0)

    def test_large_psi_query_does_not_coarsen_the_grid(self):
        """One oversized query must not degrade later queries at the
        provisioned radius: the fine grid survives, a separate coarse
        grid serves the big radius, and both stay exact."""
        stops = np.array([[float(i % 20), float(i // 20)] for i in range(400)])
        gss = GriddedStopSet(stops, 1.0)
        probe = np.array([[5.2, 5.2], [30.0, 30.0], [0.0, 19.0]])
        dense = StopSet(stops)
        assert np.array_equal(
            gss.covered_mask(probe, 1.0), dense.covered_mask(probe, 1.0)
        )
        fine_cell = gss._grid.cell_size
        assert np.array_equal(
            gss.covered_mask(probe, 90.0), dense.covered_mask(probe, 90.0)
        )
        assert np.array_equal(
            gss.covered_mask(probe, 1.0), dense.covered_mask(probe, 1.0)
        )
        assert gss._grid.cell_size == fine_cell  # fine grid untouched
        assert gss._coarse_grid is not None
        assert gss._coarse_grid.cell_size >= 90.0


class TestDegenerateGeometryHardening:
    """Pins for the degenerate-input sweep: subnormal radii, huge
    coordinates, non-finite probes, and the floor-quotient clamp.  Each
    is differential against the dense oracle — the hardened paths must
    stay *exact*, not merely not-crash."""

    def test_huge_coordinates_subnormal_psi(self):
        """Coincident stops at 1e10 with psi at the float floor: cell
        derivation must not collapse to cell <= psi (strictness check)
        and origin snapping must not overflow to non-finite."""
        stops = np.full((6, 2), 1.0e10)
        probe = [[1.0e10, 1.0e10], [1.0e10 + 1.0, 1.0e10], [0.0, 0.0]]
        for psi in (1e-300, 5e-324, 0.0):
            mask = _assert_grid_matches_dense(stops, probe, psi)
            assert mask.tolist() == [True, False, False]
            grid = ShardedStopGrid(np.asarray(stops), psi)
            assert grid.cell_size > psi
            assert np.isfinite(grid._ox) and np.isfinite(grid._oy)
            assert grid._ox <= 1.0e10 and grid._oy <= 1.0e10

    def test_extent_zero_psi_zero(self):
        """Both degenerate knobs at once: coincident stops and a zero
        radius still derive a strictly positive cell."""
        stops = np.full((4, 2), 37.25)
        grid = ShardedStopGrid(stops, 0.0)
        assert grid.cell_size > 0.0
        mask = _assert_grid_matches_dense(stops, [[37.25, 37.25], [37.3, 37.25]], 0.0)
        assert mask.tolist() == [True, False]

    def test_max_cells_per_axis_clamp_stays_exact(self):
        """A wide extent with tiny psi trips the cells-per-axis clamp
        (coarser cells than psi would suggest); answers stay exact
        because the gather radius widens with the cell."""
        stops = np.array([[0.0, 0.0], [3.0e6, 0.0], [1.5e6, 7.0]])
        probe = [[0.0, 0.001], [3.0e6, 0.0011], [1.5e6, 7.0], [1.0e6, 0.0]]
        for psi in (0.001, 0.01):
            grid = ShardedStopGrid(stops, psi)
            assert grid.cell_size >= 3.0e6 / (1 << 20)  # the clamp engaged
            _assert_grid_matches_dense(stops, probe, psi)

    def test_far_probes_do_not_overflow_indices(self):
        """Probe points quintillions of cells away: the floor-quotient
        clamp keeps the int cast defined and the answer a clean miss."""
        stops = np.array([[0.0, 0.0], [10.0, 10.0]])
        probe = [[1e18, 1e18], [-1e18, 5.0], [5.0, -1e18], [1e308, -1e308]]
        mask = _assert_grid_matches_dense(stops, probe, 0.001)
        assert not mask.any()

    def test_overflowing_offsets_have_defined_results(self):
        """The two expressions that can leave the float range: a squared
        offset overflows to inf, which is *not covered* for any finite
        psi * psi; a floor quotient overflows to +-inf, which lands on the
        index clamp.  Neither may warn (tier-1 runs with RuntimeWarning
        as an error)."""
        from repro.core.service import psi_hit
        from repro.engine.grid import _INDEX_CLAMP, _cell_indices_of

        dx = np.array([1e308, -1e200, 3.0])
        dy = np.array([-1e308, 1e200, 4.0])
        assert psi_hit(dx, dy, 5.0).tolist() == [False, False, True]
        assert psi_hit(dx, dy, 1e150).tolist() == [False, False, True]
        pts = np.array([[1e308, -1e308], [0.5, -0.5], [0.0, 0.0]])
        clamp = int(_INDEX_CLAMP)
        assert _cell_indices_of(pts, 0.0, 0.0, 5e-324).tolist() == [
            [clamp, -clamp], [clamp, -clamp], [0, 0],
        ]
        assert _cell_indices_of(pts, -1e308, 1e308, 1.0).tolist() == [
            [clamp, -clamp], [clamp, -clamp], [clamp, -clamp],
        ]

    def test_nonfinite_probes_are_sound_misses(self):
        """NaN/inf probe coordinates: the dense kernel says False (NaN
        comparisons are false), and the grid must agree instead of
        feeding undefined casts into the gather."""
        stops = np.array([[0.0, 0.0], [10.0, 10.0]])
        probe = np.array(
            [[np.nan, 0.0], [0.0, np.nan], [np.inf, 0.0], [-np.inf, np.nan]]
        )
        mask = _assert_grid_matches_dense(stops, probe, 5.0)
        assert not mask.any()

    def test_single_stop_every_degenerate_psi(self):
        for psi in (0.0, 5e-324, 1e-300, 1e300):
            _assert_grid_matches_dense(
                [[2.5, -7.25]], [[2.5, -7.25], [2.5, -7.0], [100.0, 100.0]], psi
            )


class TestQuadrants:
    def test_negative_and_positive_coordinates(self):
        """Stops and probes spanning all four quadrants around the
        origin (cell indices relative to the bbox corner, probes with
        negative raw coordinates)."""
        stops = [[-10.0, -10.0], [-10.0, 10.0], [10.0, -10.0], [10.0, 10.0],
                 [0.0, 0.0], [-3.0, 4.0]]
        probe = [[-10.0, -10.0], [-12.0, -10.0], [-13.1, -10.0],
                 [0.0, 0.0], [-3.0, 4.0], [-6.0, 8.0], [9.0, 9.0],
                 [-10.0, 13.0], [13.0, -10.0], [0.1, 0.1]]
        for psi in (0.0, 1.0, 3.0, 5.0, 40.0):
            _assert_grid_matches_dense(stops, probe, psi)

    def test_batch_engine_negative_quadrants(self):
        users = [
            Trajectory(0, [(-5.0, -5.0), (5.0, 5.0)]),
            Trajectory(1, [(-5.0, 5.0), (5.0, -5.0), (0.0, 0.0)]),
        ]
        from repro import FacilityRoute

        f = FacilityRoute(0, [(-5.0, -5.0), (0.0, 0.0), (5.0, 5.0)])
        engine = BatchQueryEngine(
            users, runtime=QueryRuntime(backend=ProximityBackend.GRID)
        )
        for model in ServiceModel:
            for psi in (0.0, 2.0, 7.5):
                spec = ServiceSpec(model, psi=psi)
                assert engine.query(f, spec) == brute_force_service(
                    users, f, spec
                )
