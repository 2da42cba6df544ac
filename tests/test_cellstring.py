"""Differential tests: the cellstring tier must be *bit-identical* to
the dense ``core.service`` oracle, for every input.

Rasterization is conservative by construction — cover-inflation plus
interior-deflation means float misclassification only moves cells from
the membership-accept path to the exact-kernel path — so every
comparison here is ``==`` / ``array_equal``, never ``approx``.  The
suite drives Hypothesis-generated adversarial inputs (ties at exactly
``psi``, zero radii, world-spanning radii) through
:class:`CellstringIndex` and :class:`CellstringStopSet`, plus the
structural edge cases: empty stop sets, coincident stops, huge
coordinates with subnormal radii, and radius-mismatch fallback.  The
:class:`ShardStore` cellstring cache is held to the same standard as
its shard cache: content addressing with bitwise re-verification,
bounded oldest-first retention, and exact rebuilds after eviction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro import (
    CellstringIndex,
    CellstringStopSet,
    QueryStats,
    ShardStore,
    StopSet,
    build_cellstring_index,
)
from repro.core.errors import QueryError
from repro.core.geometry import Point

from .strategies import WORLD, dense_facilities, engine_psis, trajectory_sets


def _probe_block(users) -> np.ndarray:
    return np.concatenate([u.coords for u in users])


class TestCellstringMaskOracle:
    """CellstringIndex / CellstringStopSet masks vs the dense broadcast."""

    @settings(max_examples=50, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=12, min_points=1, max_points=6),
        dense_facilities(min_stops=16, max_stops=96),
        engine_psis(),
    )
    def test_masks_bit_identical(self, users, facility, psi):
        dense = StopSet.of_facility(facility)
        block = _probe_block(users)
        expected = dense.covered_mask(block, psi)
        idx = build_cellstring_index(facility.stop_coords, psi)
        assert np.array_equal(expected, idx.covered_mask(block, psi))
        sset = CellstringStopSet(facility.stop_coords, psi)
        assert np.array_equal(expected, sset.covered_mask(block, psi))

    @settings(max_examples=30, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=6, min_points=1, max_points=4),
        dense_facilities(min_stops=16, max_stops=64),
        engine_psis(),
    )
    def test_covers_point_bit_identical(self, users, facility, psi):
        dense = StopSet.of_facility(facility)
        sset = CellstringStopSet(facility.stop_coords, psi)
        for u in users:
            for p in u.points:
                assert sset.covers_point(p, psi) == dense.covers_point(p, psi)

    @settings(max_examples=30, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=10, min_points=1, max_points=6),
        dense_facilities(min_stops=16, max_stops=96),
        engine_psis(),
    )
    def test_stats_deterministic_and_bounded(self, users, facility, psi):
        """Stop-set and raw-index probes account identical work, and the
        kernel-pair count never exceeds the dense all-pairs cost."""
        block = _probe_block(users)
        idx = build_cellstring_index(facility.stop_coords, psi)
        s_idx = QueryStats()
        m_idx = idx.covered_mask(block, psi, s_idx)
        sset = CellstringStopSet(facility.stop_coords, psi)
        s_set = QueryStats()
        m_set = sset.covered_mask(block, psi, s_set)
        assert np.array_equal(m_idx, m_set)
        assert s_idx == s_set
        assert s_idx.points_scanned <= block.shape[0]
        assert s_idx.distance_evals <= block.shape[0] * facility.n_stops

    @settings(max_examples=25, deadline=None)
    @given(dense_facilities(min_stops=16, max_stops=96), engine_psis())
    def test_restriction_preserves_tier_and_results(self, facility, psi):
        dense = StopSet.of_facility(facility)
        sset = CellstringStopSet(facility.stop_coords, psi)
        box = WORLD.quadrant(1).expanded(psi)
        d_sub = dense.restricted_to(box)
        s_sub = sset.restricted_to(box)
        assert isinstance(s_sub, CellstringStopSet)
        assert np.array_equal(d_sub.coords, s_sub.coords)
        probe = np.array([[p, 1024.0 - p] for p in np.linspace(0.0, 1024.0, 41)])
        assert np.array_equal(
            d_sub.covered_mask(probe, psi), s_sub.covered_mask(probe, psi)
        )

    @settings(max_examples=20, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=6, min_points=1, max_points=4),
        dense_facilities(min_stops=16, max_stops=64),
        engine_psis(),
        engine_psis(),
    )
    def test_radius_mismatch_falls_back_exact(self, users, facility, built, asked):
        """An index built for one radius answers any other radius through
        the dense kernel — never wrong, just not fast."""
        block = _probe_block(users)
        idx = build_cellstring_index(facility.stop_coords, built)
        expected = StopSet.of_facility(facility).covered_mask(block, asked)
        assert np.array_equal(expected, idx.covered_mask(block, asked))


class TestCellstringEdgeCases:
    def test_empty_stop_set(self):
        idx = build_cellstring_index(np.zeros((0, 2)), 5.0)
        assert idx.is_empty
        assert idx.n_cells == 0
        probe = np.array([[1.0, 2.0], [0.0, 0.0]])
        assert idx.covered_mask(probe, 5.0).tolist() == [False, False]

    def test_empty_probe_block(self):
        idx = build_cellstring_index(np.array([[1.0, 1.0]]), 2.0)
        assert idx.covered_mask(np.zeros((0, 2)), 2.0).size == 0

    def test_single_stop_psi_zero_is_exact_coincidence(self):
        """psi == 0 degenerates to exact equality: no interior cells,
        the kernel decides every hit."""
        idx = build_cellstring_index(np.array([[3.25, 7.5]]), 0.0)
        assert idx.interior_keys.size == 0
        probe = np.array([[3.25, 7.5], [3.25, 7.5 + 1e-12], [0.0, 0.0]])
        mask = idx.covered_mask(probe, 0.0)
        assert mask.tolist() == [True, False, False]

    def test_all_coincident_stops(self):
        stops = np.full((40, 2), 37.25)
        idx = build_cellstring_index(stops, 1.0)
        probe = np.array([[37.25, 37.25], [38.25, 37.25], [38.3, 37.25]])
        expected = StopSet(stops).covered_mask(probe, 1.0)
        assert np.array_equal(expected, idx.covered_mask(probe, 1.0))
        assert expected.tolist() == [True, True, False]

    def test_huge_coordinates_subnormal_radius(self):
        """Coordinates at 1e10 with psi down at the float floor: the
        geometry derivation must stay finite, the mask exact, and the
        lattice no finer than the classification slack (1e-7 of the
        coordinate scale) the discs are inflated by."""
        stops = np.full((8, 2), 1.0e10)
        for psi in (1e-300, 5e-324, 0.0):
            idx = build_cellstring_index(stops, psi)
            assert idx.boundary_keys.size <= 64
            probe = np.array([[1.0e10, 1.0e10], [1.0e10 + 1.0, 1.0e10]])
            expected = StopSet(stops).covered_mask(probe, psi)
            assert np.array_equal(expected, idx.covered_mask(probe, psi))

    def test_probes_far_outside_space_reject(self):
        """Points flooring outside the lattice are sound rejections,
        including coordinates extreme enough to overflow naive casts."""
        stops = np.random.default_rng(5).uniform(0, 100, size=(32, 2))
        idx = build_cellstring_index(stops, 3.0)
        probe = np.array(
            [[1e18, 1e18], [-1e18, 50.0], [50.0, np.inf], [np.nan, 50.0]]
        )
        assert idx.covered_mask(probe, 3.0).tolist() == [False] * 4

    def test_world_spanning_radius_accepts_everything_near(self):
        stops = np.random.default_rng(6).uniform(0, 100, size=(16, 2))
        probe = np.random.default_rng(7).uniform(-200, 300, size=(64, 2))
        psi = 1000.0
        idx = build_cellstring_index(stops, psi)
        expected = StopSet(stops).covered_mask(probe, psi)
        assert np.array_equal(expected, idx.covered_mask(probe, psi))
        assert expected.all()

    def test_min_stops_threshold_keeps_small_sets_dense(self):
        coords = np.random.default_rng(8).uniform(0, 50, size=(10, 2))
        sset = CellstringStopSet(coords, 5.0, min_stops=48)
        assert sset._index_for(5.0) is None
        probe = np.random.default_rng(9).uniform(0, 50, size=(30, 2))
        assert np.array_equal(
            StopSet(coords).covered_mask(probe, 5.0),
            sset.covered_mask(probe, 5.0),
        )

    def test_psi_memo_is_bounded(self):
        coords = np.random.default_rng(10).uniform(0, 50, size=(32, 2))
        sset = CellstringStopSet(coords, 5.0)
        for psi in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0):
            sset._index_for(psi)
        assert len(sset._memo) <= 4
        # evicted radii rebuild with the same answers
        probe = np.random.default_rng(11).uniform(0, 50, size=(40, 2))
        assert np.array_equal(
            StopSet(coords).covered_mask(probe, 1.0),
            sset.covered_mask(probe, 1.0),
        )

    def test_invalid_inputs_raise(self):
        with pytest.raises(QueryError):
            build_cellstring_index(np.zeros((3, 3)), 1.0)
        with pytest.raises(QueryError):
            build_cellstring_index(np.zeros((3, 2)), -1.0)
        with pytest.raises(QueryError):
            CellstringStopSet(np.zeros((3, 2)), -0.5)

    def test_coarse_keys_are_prefixes_of_fine(self):
        """Every interior/boundary key truncates into the coarse array —
        the two levels describe one lattice by construction."""
        stops = np.random.default_rng(12).uniform(0, 200, size=(64, 2))
        idx = build_cellstring_index(stops, 4.0)
        fine = np.concatenate([idx.interior_keys, idx.boundary_keys])
        shifted = np.unique(fine >> np.int64(idx.coarse_shift))
        assert np.array_equal(shifted, idx.coarse_keys)
        # CSR invariant: indptr is monotone and spans the stops array
        assert idx.boundary_indptr[0] == 0
        assert idx.boundary_indptr[-1] == idx.boundary_stops.size
        assert (np.diff(idx.boundary_indptr) >= 1).all()


class TestCellstringStore:
    def test_identical_stop_sets_share_one_build(self):
        rng = np.random.default_rng(11)
        coords = rng.uniform(0, 500, size=(128, 2))
        store = ShardStore()
        i1 = store.cellstring_index(coords, 10.0)
        i2 = store.cellstring_index(coords.copy(), 10.0)
        assert i1 is i2
        assert store.cellstring_hits == 1 and store.cellstring_misses == 1

    def test_different_content_never_aliases(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(0, 100, size=(64, 2))
        b = a.copy()
        b[0, 0] += 0.5  # one stop nudged: different content
        store = ShardStore()
        ia = store.cellstring_index(a, 5.0)
        ib = store.cellstring_index(b, 5.0)
        assert ia is not ib
        probe = rng.uniform(0, 100, size=(100, 2))
        assert np.array_equal(
            StopSet(a).covered_mask(probe, 5.0), ia.covered_mask(probe, 5.0)
        )
        assert np.array_equal(
            StopSet(b).covered_mask(probe, 5.0), ib.covered_mask(probe, 5.0)
        )

    def test_distinct_radii_are_distinct_builds(self):
        rng = np.random.default_rng(18)
        coords = rng.uniform(0, 100, size=(48, 2))
        store = ShardStore()
        i1 = store.cellstring_index(coords, 5.0)
        i2 = store.cellstring_index(coords, 6.0)
        assert i1 is not i2
        assert store.cellstring_misses == 2

    def test_store_retention_is_bounded(self):
        rng = np.random.default_rng(29)
        store = ShardStore(max_cellstrings=3)
        sets = [rng.uniform(0, 300, size=(48, 2)) for _ in range(8)]
        for coords in sets:
            store.cellstring_index(coords, 5.0)
        assert len(store._cellstrings) <= 3
        probe = rng.uniform(0, 300, size=(60, 2))
        misses_before = store.cellstring_misses
        evicted = store.cellstring_index(sets[0], 5.0)  # rebuild, not a hit
        assert store.cellstring_misses == misses_before + 1
        assert np.array_equal(
            StopSet(sets[0]).covered_mask(probe, 5.0),
            evicted.covered_mask(probe, 5.0),
        )

    def test_stop_set_builds_through_store(self):
        rng = np.random.default_rng(19)
        coords = rng.uniform(0, 500, size=(96, 2))
        store = ShardStore()
        s1 = CellstringStopSet(coords, 10.0, store=store)
        s2 = CellstringStopSet(coords.copy(), 10.0, store=store)
        probe = rng.uniform(0, 500, size=(50, 2))
        m1 = s1.covered_mask(probe, 10.0)
        m2 = s2.covered_mask(probe, 10.0)
        assert np.array_equal(m1, m2)
        assert store.cellstring_hits >= 1  # the second set reused the build

    def test_clear_and_len_cover_cellstrings(self):
        rng = np.random.default_rng(20)
        store = ShardStore()
        store.cellstring_index(rng.uniform(0, 100, size=(32, 2)), 5.0)
        assert len(store) >= 1
        store.clear()
        assert len(store._cellstrings) == 0


@pytest.mark.engine_smoke
def test_cellstring_smoke(taxi_users, facilities):
    """Fast cellstring-vs-oracle smoke check (runs in the default suite)."""
    block = np.concatenate([u.coords for u in taxi_users[:100]])
    for f in facilities[:3]:
        dense = StopSet.of_facility(f)
        expected = dense.covered_mask(block, 400.0)
        idx = build_cellstring_index(f.stop_coords, 400.0)
        assert np.array_equal(expected, idx.covered_mask(block, 400.0))
        assert CellstringStopSet(f.stop_coords, 400.0).covers_point(
            Point(float(block[0, 0]), float(block[0, 1])), 400.0
        ) == dense.covers_point(Point(float(block[0, 0]), float(block[0, 1])), 400.0)
