"""Differential tests: the stop grid must be *bit-identical* to the
dense ``core.service`` oracle, for every shard count.

Sharding never changes an answer — each shard applies the same ``psi_hit``
kernel to a disjoint slice of grid cells and the mask union is
order-independent — so every comparison here is ``==`` / ``array_equal``,
never ``approx``.  The suite drives shard counts {1, 2, 7, AUTO} across
Hypothesis-generated adversarial inputs (ties at exactly ``psi``, zero
radii, world-spanning radii), plus the structural edge cases: empty
shards (stops concentrated in fewer cells than shards) and stops
straddling shard boundaries.  Work accounting is held to the same
standard: per-shard ``QueryStats`` merged via ``QueryStats.merge`` must
equal a brute-force count over each point's 3x3 cell neighbourhood
(:func:`_reference_counts` — test code, not a second engine).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    SHARDS_AUTO,
    GriddedStopSet,
    QueryStats,
    ShardedStopGrid,
    ShardStore,
    StopSet,
)
from repro.core.errors import QueryError
from repro.core.service import coverage_kernel
from repro.engine.shards import grid_spill_name

from .strategies import WORLD, dense_facilities, engine_psis, trajectory_sets

SHARD_COUNTS = (1, 2, 7, SHARDS_AUTO)


def _probe_block(users) -> np.ndarray:
    return np.concatenate([u.coords for u in users])


def _reference_counts(grid: ShardedStopGrid, pts: np.ndarray) -> QueryStats:
    """The grid's work-accounting contract, counted the slow way: per
    probe point, the stops in the 3x3 block of cells around it are its
    ``distance_evals``, the populated cells among those nine its
    ``cells_probed``, and it is ``points_scanned`` iff it met a stop."""
    origin = np.array([grid._ox, grid._oy])
    stop_ij = np.floor((grid.coords - origin) / grid.cell_size).astype(np.int64)
    pt_ij = np.floor((pts - origin) / grid.cell_size).astype(np.int64)
    out = QueryStats()
    for ij in pt_ij:
        near = stop_ij[(np.abs(stop_ij - ij) <= 1).all(axis=1)]
        out.distance_evals += len(near)
        out.cells_probed += len({tuple(c) for c in near.tolist()})
        out.points_scanned += bool(len(near))
    return out


class TestShardedMaskOracle:
    """ShardedStopGrid / GriddedStopSet masks vs the dense broadcast."""

    @settings(max_examples=50, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=12, min_points=1, max_points=6),
        dense_facilities(min_stops=16, max_stops=96),
        engine_psis(),
    )
    def test_masks_bit_identical_all_shard_counts(self, users, facility, psi):
        dense = StopSet.of_facility(facility)
        block = _probe_block(users)
        expected = dense.covered_mask(block, psi)
        for n_shards in SHARD_COUNTS:
            grid = ShardedStopGrid(facility.stop_coords, psi, n_shards)
            assert np.array_equal(expected, grid.covered_mask(block, psi))
            sset = GriddedStopSet(facility.stop_coords, psi, shards=n_shards)
            assert np.array_equal(expected, sset.covered_mask(block, psi))

    @settings(max_examples=30, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=6, min_points=1, max_points=4),
        dense_facilities(min_stops=16, max_stops=64),
        engine_psis(),
    )
    def test_covers_point_bit_identical(self, users, facility, psi):
        dense = StopSet.of_facility(facility)
        grid = ShardedStopGrid(facility.stop_coords, psi, 2)
        for u in users:
            for p in u.points:
                assert grid.covers_point(p, psi) == dense.covers_point(p, psi)

    @settings(max_examples=60, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=10, min_points=1, max_points=6),
        dense_facilities(min_stops=16, max_stops=96),
        engine_psis(),
        st.sampled_from([None, 1.5, 40.0]),
        st.sampled_from([1.0, 0.5, 3.0, 100.0]),
        st.booleans(),
    )
    def test_grid_contract_every_shard_count(
        self, users, facility, psi, cell_factor, query_factor, concentrate
    ):
        """Mask ``==`` the dense kernel and counters ``==`` the 3x3
        reference, for every shard count: derived and forced cell sizes,
        query radii below / at / far above the provisioned one (at or
        past the cell size the grid answers by the dense kernel, with
        its all-pairs accounting), psi = 0, and stops concentrated into
        fewer cells than shards."""
        block = _probe_block(users)
        stops = facility.stop_coords
        if concentrate:
            stops = np.tile(stops[:2], (8, 1))  # at most two populated cells
        cell_size = None if cell_factor is None else max(psi, 1.0) * cell_factor
        query_psi = psi * query_factor
        expected_mask = coverage_kernel(block, stops, query_psi)
        for n_shards in SHARD_COUNTS:
            grid = ShardedStopGrid(stops, psi, n_shards, cell_size=cell_size)
            if concentrate and n_shards == 7:
                assert sum(1 for s in grid.shards if not s.n_stops) >= 5
            expected = QueryStats()
            if query_psi >= grid.cell_size:
                coverage_kernel(block, stops, query_psi, expected)
            else:
                expected = _reference_counts(grid, block)
            got = QueryStats()
            mask = grid.covered_mask(block, query_psi, got)
            assert np.array_equal(expected_mask, mask), n_shards
            assert got == expected, n_shards

    @settings(max_examples=25, deadline=None)
    @given(dense_facilities(min_stops=16, max_stops=96), engine_psis())
    def test_restriction_preserves_sharding_and_results(self, facility, psi):
        dense = StopSet.of_facility(facility)
        sharded = GriddedStopSet(facility.stop_coords, psi, shards=2)
        box = WORLD.quadrant(1).expanded(psi)
        d_sub = dense.restricted_to(box)
        s_sub = sharded.restricted_to(box)
        assert isinstance(s_sub, GriddedStopSet) and s_sub.shards == 2
        assert np.array_equal(d_sub.coords, s_sub.coords)
        probe = np.array([[p, 1024.0 - p] for p in np.linspace(0.0, 1024.0, 41)])
        assert np.array_equal(
            d_sub.covered_mask(probe, psi), s_sub.covered_mask(probe, psi)
        )


class TestShardEdgeCases:
    def test_empty_shards_from_concentrated_stops(self):
        """All stops in one cell with 7 shards: six shards are empty and
        the answer is still exact."""
        stops = np.full((24, 2), 37.25)
        grid = ShardedStopGrid(stops, 1.0, 7)
        assert grid.n_shards == 7
        assert sum(1 for s in grid.shards if s.n_stops == 0) == 6
        probe = np.array([[37.25, 37.25], [38.25, 37.25], [38.3, 37.25], [0.0, 0.0]])
        expected = StopSet(stops).covered_mask(probe, 1.0)
        assert np.array_equal(expected, grid.covered_mask(probe, 1.0))
        assert expected.tolist() == [True, True, False, False]

    def test_probe_straddling_shard_boundary(self):
        """A probe point whose 3x3 neighbourhood spans two shards must
        union candidates from both."""
        # two stop clusters in adjacent cell columns; 2 shards cut between
        stops = np.array(
            [[x, 5.0] for x in (0.5, 1.5, 2.5, 3.5)]
            + [[x, 5.0] for x in (6.5, 7.5, 8.5, 9.5)]
        )
        grid = ShardedStopGrid(stops, 1.0, 2, cell_size=5.0)
        lows = {int(s.key_lo) for s in grid.shards if s.n_stops}
        assert len(lows) == 2  # genuinely two populated shards
        # point between the clusters: within psi of a stop in each shard
        probe = np.array([[4.3, 5.0], [5.7, 5.0], [5.0, 5.0]])
        expected = StopSet(stops).covered_mask(probe, 1.0)
        assert np.array_equal(expected, grid.covered_mask(probe, 1.0))
        assert expected.tolist() == [True, True, False]
        # each boundary point's serving stop lives in a different shard
        only_lo = ShardedStopGrid(stops[:4], 1.0, 1, cell_size=5.0)
        only_hi = ShardedStopGrid(stops[4:], 1.0, 1, cell_size=5.0)
        assert only_lo.covered_mask(probe, 1.0).tolist() == [True, False, False]
        assert only_hi.covered_mask(probe, 1.0).tolist() == [False, True, False]

    def test_stop_cells_never_straddle_shards(self):
        rng = np.random.default_rng(7)
        stops = np.round(rng.uniform(0, 200, size=(300, 2)))
        grid = ShardedStopGrid(stops, 3.0, 7)
        seen = set()
        last_hi = None
        for shard in grid.shards:
            if not shard.n_stops:
                continue
            keys = set(int(k) for k in shard.keys)
            assert not keys & seen  # no cell in two shards
            seen |= keys
            if last_hi is not None:
                assert int(shard.key_lo) > last_hi
            last_hi = int(shard.key_hi)
        assert sum(s.n_stops for s in grid.shards) == 300

    def test_oversized_radius_falls_back_dense(self):
        rng = np.random.default_rng(3)
        stops = rng.uniform(0, 100, size=(64, 2))
        probe = rng.uniform(-10, 110, size=(40, 2))
        grid = ShardedStopGrid(stops, 1.0, 2)
        big = 10.0 * grid.cell_size
        stats = QueryStats()
        mask = grid.covered_mask(probe, big, stats)
        assert np.array_equal(StopSet(stops).covered_mask(probe, big), mask)
        # dense fallback: all-pairs accounting
        assert stats.distance_evals == 40 * 64
        assert stats.cells_probed == 0

    def test_empty_inputs(self):
        empty_grid = ShardedStopGrid(np.zeros((0, 2)), 1.0, 3)
        assert empty_grid.is_empty
        probe = np.array([[1.0, 2.0]])
        assert empty_grid.covered_mask(probe, 1.0).tolist() == [False]
        grid = ShardedStopGrid(np.array([[1.0, 1.0]]), 1.0, 2)
        assert grid.covered_mask(np.zeros((0, 2)), 1.0).size == 0

    def test_invalid_inputs_raise(self):
        with pytest.raises(QueryError):
            ShardedStopGrid(np.zeros((3, 3)), 1.0)
        with pytest.raises(QueryError):
            ShardedStopGrid(np.zeros((3, 2)), -1.0)
        with pytest.raises(QueryError):
            ShardedStopGrid(np.zeros((3, 2)), 1.0, -2)
        with pytest.raises(QueryError):
            GriddedStopSet(np.zeros((3, 2)), 1.0, shards=-1)
        with pytest.raises(QueryError):
            # manual cell_size creating more rows than the key stride:
            # row keys would alias, breaking stats parity
            ShardedStopGrid(
                np.array([[0.0, 0.0], [0.0, 3.0e6]]), 1.0, 1, cell_size=1.01
            )


class TestShardStore:
    def test_identical_stop_sets_share_one_build(self):
        rng = np.random.default_rng(11)
        coords = rng.uniform(0, 500, size=(128, 2))
        store = ShardStore()
        g1 = store.sharded_grid(coords, 10.0, 4)
        g2 = store.sharded_grid(coords.copy(), 10.0, 4)
        assert g1 is g2
        assert store.grid_hits == 1 and store.grid_misses == 1

    def test_auto_and_the_count_it_resolves_to_are_one_entry(self):
        """The key carries the *resolved* shard count: ``AUTO`` landing
        on 1 and an explicit 1 are one build and one spill file."""
        coords = np.random.default_rng(12).uniform(0, 500, size=(128, 2))
        store = ShardStore()
        auto = store.sharded_grid(coords, 10.0, SHARDS_AUTO)
        assert auto.n_shards == 1
        assert store.sharded_grid(coords, 10.0, 1) is auto
        assert store.grid_misses == 1 and store.grid_hits == 1
        name = grid_spill_name(coords, 10.0, 1)
        assert grid_spill_name(coords, 10.0, SHARDS_AUTO) == name
        assert grid_spill_name(coords, 10.0, 2) != name

    def test_overlapping_stop_sets_share_shards(self):
        """A superset facility reuses the subset's built shard: the
        shared region sorts into a content-identical slice."""
        rng = np.random.default_rng(13)
        base = rng.uniform(0, 100, size=(80, 2))
        extras = rng.uniform(5_000, 6_000, size=(80, 2))
        superset = np.vstack([base, extras])
        store = ShardStore()
        g_base = store.sharded_grid(base, 5.0, 1)
        assert store.shard_hits == 0
        g_super = store.sharded_grid(superset, 5.0, 2)
        # the superset's lower slice is exactly the base set's shard
        assert store.shard_hits >= 1
        assert any(
            s is g_base.shards[0] for s in g_super.shards
        ), "expected the built shard object itself to be shared"
        # and answers stay exact for both
        probe = rng.uniform(0, 6_000, size=(200, 2))
        assert np.array_equal(
            StopSet(superset).covered_mask(probe, 5.0),
            g_super.covered_mask(probe, 5.0),
        )

    def test_different_content_never_aliases(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(0, 100, size=(64, 2))
        b = a.copy()
        b[0, 0] += 0.5  # one stop nudged: different content
        store = ShardStore()
        ga = store.sharded_grid(a, 5.0, 2)
        gb = store.sharded_grid(b, 5.0, 2)
        assert ga is not gb
        probe = rng.uniform(0, 100, size=(100, 2))
        assert np.array_equal(
            StopSet(a).covered_mask(probe, 5.0), ga.covered_mask(probe, 5.0)
        )
        assert np.array_equal(
            StopSet(b).covered_mask(probe, 5.0), gb.covered_mask(probe, 5.0)
        )

    def test_store_retention_is_bounded(self):
        """Past the caps the oldest builds are evicted — a long-lived
        store's memory stays flat — and evicted content simply rebuilds
        with the same (exact) answers."""
        rng = np.random.default_rng(29)
        store = ShardStore(max_grids=3, max_shards=6)
        sets = [rng.uniform(0, 300, size=(48, 2)) for _ in range(8)]
        for coords in sets:
            store.sharded_grid(coords, 5.0, 2)
        assert len(store._grids) <= 3
        assert len(store._shards) <= 6
        probe = rng.uniform(0, 300, size=(60, 2))
        evicted = store.sharded_grid(sets[0], 5.0, 2)  # rebuild, not a hit
        assert np.array_equal(
            StopSet(sets[0]).covered_mask(probe, 5.0),
            evicted.covered_mask(probe, 5.0),
        )

    def test_gridded_stop_set_builds_through_store(self):
        rng = np.random.default_rng(19)
        coords = rng.uniform(0, 500, size=(96, 2))
        store = ShardStore()
        s1 = GriddedStopSet(coords, 10.0, shards=3, store=store)
        s2 = GriddedStopSet(coords.copy(), 10.0, shards=3, store=store)
        probe = rng.uniform(0, 500, size=(50, 2))
        m1 = s1.covered_mask(probe, 10.0)
        m2 = s2.covered_mask(probe, 10.0)
        assert np.array_equal(m1, m2)
        assert store.grid_hits >= 1  # the second set reused the build


class TestShardStoreEviction:
    """Retention is oldest-first and eviction is always recoverable:
    the store is a content-addressed cache, so an evicted build simply
    reconstructs (exactly) when requested again."""

    def test_eviction_is_oldest_first(self):
        rng = np.random.default_rng(31)
        store = ShardStore(max_grids=2, max_shards=100)
        sets = [rng.uniform(0, 300, size=(32, 2)) for _ in range(3)]
        grids = [store.sharded_grid(c, 5.0, 2) for c in sets]
        # cap 2: inserting the third evicted exactly the first build
        assert len(store._grids) == 2
        retained = list(store._grids.values())
        assert grids[1] in retained and grids[2] in retained
        assert grids[0] not in retained
        # the survivors still hit; the evicted one misses
        assert store.sharded_grid(sets[1], 5.0, 2) is grids[1]
        assert store.sharded_grid(sets[2], 5.0, 2) is grids[2]

    def test_reinsertion_after_eviction(self):
        rng = np.random.default_rng(32)
        store = ShardStore(max_grids=1, max_shards=4)
        a = rng.uniform(0, 300, size=(40, 2))
        b = rng.uniform(0, 300, size=(40, 2))
        ga = store.sharded_grid(a, 5.0, 2)
        store.sharded_grid(b, 5.0, 2)  # evicts a
        misses_before = store.grid_misses
        ga2 = store.sharded_grid(a, 5.0, 2)  # rebuild, not a hit
        assert store.grid_misses == misses_before + 1
        assert ga2 is not ga
        probe = rng.uniform(0, 300, size=(64, 2))
        np.testing.assert_array_equal(
            ga.covered_mask(probe, 5.0), ga2.covered_mask(probe, 5.0)
        )
        # and the re-inserted build is served from the store again
        assert store.sharded_grid(a, 5.0, 2) is ga2

    def test_eviction_never_breaks_live_grids(self):
        """A grid evicted from the store keeps answering: the store
        holds builds, it does not own them."""
        rng = np.random.default_rng(33)
        store = ShardStore(max_grids=1, max_shards=2)
        a = rng.uniform(0, 300, size=(48, 2))
        ga = store.sharded_grid(a, 5.0, 2)
        for _ in range(4):  # churn the store well past both caps
            store.sharded_grid(rng.uniform(0, 300, size=(48, 2)), 5.0, 2)
        probe = rng.uniform(0, 300, size=(64, 2))
        np.testing.assert_array_equal(
            ga.covered_mask(probe, 5.0),
            StopSet(a).covered_mask(probe, 5.0),
        )

    def test_sharing_across_views_of_one_buffer(self):
        """Facilities whose stop arrays are views of the same buffer —
        equal slices, or a strided view vs. its materialised copy —
        share one build: content addressing sees values, not layout."""
        rng = np.random.default_rng(34)
        buffer = rng.uniform(0, 300, size=(200, 2))
        store = ShardStore()
        g1 = store.sharded_grid(buffer[:120], 5.0, 2)
        g2 = store.sharded_grid(buffer[:120], 5.0, 2)  # same view again
        assert g2 is g1
        assert store.grid_hits == 1
        # a non-contiguous view and its contiguous copy are one build too
        strided = buffer[::2]
        assert not strided.flags["C_CONTIGUOUS"]
        g3 = store.sharded_grid(strided, 5.0, 2)
        g4 = store.sharded_grid(np.ascontiguousarray(strided), 5.0, 2)
        assert g4 is g3
        probe = rng.uniform(0, 300, size=(64, 2))
        np.testing.assert_array_equal(
            g3.covered_mask(probe, 5.0),
            StopSet(strided).covered_mask(probe, 5.0),
        )

    def test_overlapping_views_share_shard_slices(self):
        """Two facilities slicing one buffer share interned shards where
        their sorted layouts coincide, and evicted slices re-intern."""
        rng = np.random.default_rng(35)
        base = np.sort(rng.uniform(0, 400, size=(160, 2)), axis=0)
        store = ShardStore(max_grids=8, max_shards=2)
        store.sharded_grid(base[:100], 5.0, 1)
        hits_before = store.shard_hits
        store.sharded_grid(base[:100], 5.0, 2)
        # the 2-shard cut of an identical stop set reuses at least the
        # grid build; slice interning shows up as shard hits when cuts
        # coincide with the 1-shard slice
        assert store.grid_misses >= 2
        assert store.shard_hits >= hits_before
        # churn past max_shards: interning stays bounded and recoverable
        for i in range(4):
            store.sharded_grid(base[: 40 + i * 20], 5.0, 2)
        assert len(store._shards) <= 2


@pytest.mark.engine_smoke
def test_sharded_smoke(taxi_users, facilities):
    """Fast sharded-vs-oracle smoke check (runs in the default suite)."""
    block = np.concatenate([u.coords for u in taxi_users[:100]])
    for f in facilities[:3]:
        dense = StopSet.of_facility(f)
        expected = dense.covered_mask(block, 400.0)
        for n_shards in SHARD_COUNTS:
            grid = ShardedStopGrid(f.stop_coords, 400.0, n_shards)
            assert np.array_equal(expected, grid.covered_mask(block, 400.0))
