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
its grid cache: content addressing with bitwise re-verification,
bounded oldest-first retention, and exact rebuilds after eviction.
The blocked build is held to ``==`` against a one-pass reference
builder kept here, array for array, and to a memory bound.
"""

from __future__ import annotations

import asyncio
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from repro import (
    CellstringIndex,
    CellstringStopSet,
    FacilityRoute,
    ProximityBackend,
    QueryRuntime,
    QueryService,
    QueryStats,
    RuntimeConfig,
    ServiceModel,
    ServiceSpec,
    ShardStore,
    StopSet,
    build_cellstring_index,
    build_demo_catalog,
    evaluate_service,
)
from repro.core.errors import QueryError
from repro.core.geometry import Point
from repro.core.service import PAIRS_PER_PASS
from repro.core.zorder import morton_encode_array
from repro.datasets import CityModel, generate_bus_routes
from repro.engine.cellstring import (
    AUTO_CELLSTRING_MIN_STOPS,
    _COARSE_LEVEL_DROP,
    _cellstring_geometry,
    _pass_bounds,
    _stop_windows,
)
from repro.service.http import wire

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

    @pytest.mark.parametrize("psi", [1e155, 1e308])
    def test_huge_finite_radius_matches_dense(self, psi):
        """Past ``sqrt(max float)`` the radius's square overflows and
        ``psi_hit`` covers every point with no NaN offset.  The build
        used to overflow (RuntimeWarnings from about 1e155) and, at
        1e308, serve nothing; on the demo catalog it must answer ==
        dense, direct and through a CELLSTRING runtime."""
        catalog = build_demo_catalog()
        tree = catalog.tree("demo")
        facility = catalog.facility("demo", 0)
        block = np.concatenate(
            [_probe_block(tree.trajectories()), [[1e300, -1e300], [np.inf, 0.0]]]
        )
        expected = StopSet.of_facility(facility).covered_mask(block, psi)
        idx = build_cellstring_index(facility.stop_coords, psi)
        assert np.array_equal(expected, idx.covered_mask(block, psi))
        assert expected.all()
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=psi)
        answers = {
            backend: evaluate_service(
                tree, facility, spec,
                runtime=QueryRuntime(RuntimeConfig(backend=backend)),
            )
            for backend in (ProximityBackend.DENSE, ProximityBackend.CELLSTRING)
        }
        assert answers[ProximityBackend.CELLSTRING] == answers[ProximityBackend.DENSE]
        assert answers[ProximityBackend.DENSE] == len(list(tree.trajectories()))

    @pytest.mark.parametrize("psi", [1e155, 1e308])
    def test_huge_finite_radius_through_a_cellstring_service(self, psi):
        """A wire-decoded evaluate served by a CELLSTRING runtime's
        :class:`QueryService` — the path ``serve --backend cellstring``
        takes — answers what a DENSE service answers."""
        catalog = build_demo_catalog()
        payload = {"type": "evaluate", "tree": "demo", "facility_set": "demo",
                   "facility_id": 0, "spec": {"model": "endpoint", "psi": psi}}

        async def serve(backend):
            with QueryRuntime(RuntimeConfig(backend=backend)) as runtime:
                async with QueryService(runtime) as service:
                    return await service.submit(
                        wire.decode_request(payload, catalog)
                    )

        dense = asyncio.run(serve(ProximityBackend.DENSE))
        cellstring = asyncio.run(serve(ProximityBackend.CELLSTRING))
        assert cellstring.value == dense.value
        assert dense.value == len(list(catalog.tree("demo").trajectories()))

    @pytest.mark.parametrize("psi", [1e155, 1e308])
    def test_huge_finite_radius_under_auto_past_the_cellstring_threshold(
        self, psi
    ):
        """AUTO builds cellstrings for a facility of at least
        ``AUTO_CELLSTRING_MIN_STOPS`` stops; at a huge radius it must
        still answer == DENSE."""
        tree = build_demo_catalog().tree("demo")
        coords = np.random.default_rng(17).uniform(
            0, 10_000, size=(AUTO_CELLSTRING_MIN_STOPS, 2)
        )
        facility = FacilityRoute(0, [tuple(xy) for xy in coords])
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=psi)
        answers = {}
        for backend in (ProximityBackend.AUTO, ProximityBackend.DENSE):
            with QueryRuntime(RuntimeConfig(backend=backend)) as runtime:
                if backend is ProximityBackend.AUTO:
                    dressed = runtime.stop_set(StopSet.of_facility(facility), psi)
                    assert isinstance(dressed, CellstringStopSet)
                answers[backend] = evaluate_service(
                    tree, facility, spec, runtime=runtime
                )
        assert answers[ProximityBackend.AUTO] == answers[ProximityBackend.DENSE]
        assert answers[ProximityBackend.DENSE] == len(list(tree.trajectories()))

    def test_largest_finite_radius_matches_dense(self):
        stops = np.random.default_rng(13).uniform(0, 100, size=(16, 2))
        probe = np.array([[5.0, 5.0], [-1e308, 1e308], [np.nan, 0.0]])
        psi = np.finfo(np.float64).max
        idx = build_cellstring_index(stops, psi)
        assert idx.covered_mask(probe, psi).tolist() == [True, True, False]
        assert np.array_equal(
            StopSet(stops).covered_mask(probe, psi), idx.covered_mask(probe, psi)
        )

    def test_min_stops_threshold_keeps_small_sets_dense(self):
        coords = np.random.default_rng(8).uniform(0, 50, size=(10, 2))
        sset = CellstringStopSet(coords, 5.0, min_stops=48)
        probe = np.random.default_rng(9).uniform(0, 50, size=(30, 2))
        assert np.array_equal(
            StopSet(coords).covered_mask(probe, 5.0),
            sset.covered_mask(probe, 5.0),
        )
        assert sset._index is None

    def test_psi_memo_is_bounded(self):
        """A dressed set builds one index, at its own radius: probes at
        psi / 8, psi, 4 psi and psi again keep that index object, and
        every mask stays exact through the index's own fallback."""
        coords = np.random.default_rng(10).uniform(0, 50, size=(32, 2))
        store = ShardStore()
        sset = CellstringStopSet(coords, 5.0, store=store)
        probe = np.random.default_rng(11).uniform(0, 50, size=(40, 2))
        indexes = []
        for psi in (0.625, 5.0, 20.0, 5.0):
            expected = StopSet(coords).covered_mask(probe, psi)
            assert np.array_equal(sset.covered_mask(probe, psi), expected)
            indexes.append(sset._index)
        assert all(i is indexes[0] for i in indexes) and indexes[0].psi == 5.0
        assert store.cellstring_misses == 1

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


def _one_pass_reference(coords: np.ndarray, psi: float) -> CellstringIndex:
    """The build as one flat pass over every (stop, window cell) pair,
    grouped with ``np.unique`` — the form the blocked build replaces."""
    arr = np.ascontiguousarray(coords, dtype=np.float64)
    m = arr.shape[0]
    ox, oy, cell, depth, eps = _cellstring_geometry(arr, psi)
    n_axis = np.int64(1) << np.int64(depth)
    r_out = psi + eps
    r_in = max(psi - 4.0 * eps, 0.0)
    sx = arr[:, 0]
    sy = arr[:, 1]
    ix0 = np.clip(np.floor((sx - r_out - ox) / cell) - 1, 0, float(n_axis - 1))
    ix1 = np.clip(np.floor((sx + r_out - ox) / cell) + 1, 0, float(n_axis - 1))
    iy0 = np.clip(np.floor((sy - r_out - oy) / cell) - 1, 0, float(n_axis - 1))
    iy1 = np.clip(np.floor((sy + r_out - oy) / cell) + 1, 0, float(n_axis - 1))
    ix0 = ix0.astype(np.int64)
    iy0 = iy0.astype(np.int64)
    wy = iy1.astype(np.int64) - iy0 + 1
    counts = (ix1.astype(np.int64) - ix0 + 1) * wy
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    stop_idx = np.repeat(np.arange(m, dtype=np.int64), counts)
    local = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    wys = np.repeat(wy, counts)
    cix = np.repeat(ix0, counts) + local // wys
    ciy = np.repeat(iy0, counts) + local % wys
    cx0 = ox + cix * cell
    cy0 = oy + ciy * cell
    cx1 = cx0 + cell
    cy1 = cy0 + cell
    sxp = sx[stop_idx]
    syp = sy[stop_idx]
    ndx = sxp - np.clip(sxp, cx0, cx1)
    ndy = syp - np.clip(syp, cy0, cy1)
    mind2 = ndx * ndx + ndy * ndy
    fdx = np.maximum(np.abs(sxp - cx0), np.abs(sxp - cx1))
    fdy = np.maximum(np.abs(syp - cy0), np.abs(syp - cy1))
    maxd2 = fdx * fdx + fdy * fdy
    covered = mind2 <= r_out * r_out
    interior = covered & (r_in > 0.0) & (maxd2 <= r_in * r_in)
    keys_cov = morton_encode_array(cix[covered], ciy[covered], depth)
    stops_cov = stop_idx[covered]
    interior_cov = interior[covered]
    uniq_keys, inverse = np.unique(keys_cov, return_inverse=True)
    interior_cell = (
        np.bincount(
            inverse, weights=interior_cov.astype(np.float64),
            minlength=uniq_keys.size,
        )
        > 0.0
    )
    bmask = ~interior_cell[inverse]
    bkeys = keys_cov[bmask]
    order = np.argsort(bkeys, kind="stable")
    boundary_keys, bcounts = np.unique(bkeys[order], return_counts=True)
    boundary_indptr = np.zeros(boundary_keys.size + 1, dtype=np.int64)
    np.cumsum(bcounts, out=boundary_indptr[1:])
    coarse_shift = 2 * min(_COARSE_LEVEL_DROP, depth)
    return CellstringIndex(
        arr, psi, ox, oy, cell, depth, coarse_shift,
        np.unique(uniq_keys >> np.int64(coarse_shift)),
        uniq_keys[interior_cell],
        boundary_keys,
        boundary_indptr,
        stops_cov[bmask][order],
    )


def _assert_same_index(got: CellstringIndex, want: CellstringIndex) -> None:
    for name in CellstringIndex.__slots__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        else:
            assert type(a) is type(b) and a == b, name


def _window_pairs(coords: np.ndarray, psi: float) -> np.ndarray:
    """Per-stop (stop, window cell) pair counts of the build."""
    ox, oy, cell, depth, eps = _cellstring_geometry(coords, psi)
    _, _, wx, wy = _stop_windows(coords, ox, oy, cell, depth, psi + eps)
    return wx * wy


def _stops_with_pairs(total: int, psi: float) -> np.ndarray:
    """Copies of four distinct stops, shuffled, whose windows hold
    ``total`` pairs in all.  The lattice depends only on the bounding
    box and ``psi``, so copies leave every stop's window as it was."""
    base = np.array([[0.0, 0.0], [1000.0, 1000.0], [500.0, 230.0], [123.4, 777.7]])
    c = _window_pairs(base, psi)
    rest = total - int(c[1:3].sum())
    first = next(
        r for r in range(1, rest // int(c[0]) + 1)
        if (rest - r * int(c[0])) % int(c[3]) == 0
    )
    reps = [first, 1, 1, (rest - first * int(c[0])) // int(c[3])]
    coords = np.repeat(base, reps, axis=0)
    return coords[np.random.default_rng(13).permutation(coords.shape[0])]


@pytest.mark.engine_smoke
class TestBlockedBuild:
    """The build classifies pairs a block of stops at a time; the index
    must come out ``==`` the one-pass build, dtypes included."""

    def test_single_stop(self):
        stops = np.array([[3.25, 7.5]])
        for psi in (0.0, 2.0):
            _assert_same_index(
                build_cellstring_index(stops, psi), _one_pass_reference(stops, psi)
            )

    @pytest.mark.parametrize("extra, passes", [(0, 1), (1, 2)])
    def test_pass_boundary(self, extra, passes):
        """Pair totals of exactly one pass, and of one pass plus one pair."""
        psi = 50.0
        stops = _stops_with_pairs(PAIRS_PER_PASS + extra, psi)
        counts = _window_pairs(stops, psi)
        assert int(counts.sum()) == PAIRS_PER_PASS + extra
        assert len(list(_pass_bounds(counts))) == passes
        _assert_same_index(
            build_cellstring_index(stops, psi), _one_pass_reference(stops, psi)
        )

    def test_pass_bounds_cover_every_stop_once(self):
        counts = np.array([5, PAIRS_PER_PASS + 3, 1, PAIRS_PER_PASS, 7, 2])
        bounds = list(_pass_bounds(counts))
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert bounds[-1][1] == counts.size
        for lo, hi in bounds:
            assert hi - lo == 1 or counts[lo:hi].sum() <= PAIRS_PER_PASS

    def test_psi_zero_and_coincident_stops(self):
        rng = np.random.default_rng(14)
        stops = np.repeat(rng.uniform(0, 500, size=(300, 2)), 7, axis=0)
        stops = stops[rng.permutation(stops.shape[0])]
        for psi in (0.0, 12.0):
            _assert_same_index(
                build_cellstring_index(stops, psi), _one_pass_reference(stops, psi)
            )

    def test_huge_coordinates(self):
        rng = np.random.default_rng(15)
        stops = 1.0e12 + rng.uniform(0, 1.0e6, size=(3000, 2))
        for psi in (0.0, 1e-300, 2.0e4):
            _assert_same_index(
                build_cellstring_index(stops, psi), _one_pass_reference(stops, psi)
            )

    def test_network_of_8192_stops(self):
        """A whole bus network as one stop set, as Fig. 11's multipoint
        datasets probe it: many passes, shared cells across passes."""
        city = CityModel.generate(seed=42, size=12_000.0)
        lines = generate_bus_routes(64, city, seed=17, n_stops=128)
        stops = np.array([[s.x, s.y] for r in lines for s in r.stops])
        assert stops.shape == (8192, 2)
        assert len(list(_pass_bounds(_window_pairs(stops, 300.0)))) > 1
        _assert_same_index(
            build_cellstring_index(stops, 300.0), _one_pass_reference(stops, 300.0)
        )

    def test_build_memory_is_bounded(self):
        """8,192 uniform stops at psi = 300 in a 12 km square: about 700k
        window pairs, whose one-pass columns peaked near 110 MB."""
        stops = np.random.default_rng(16).uniform(0, 12_000.0, size=(8192, 2))
        tracemalloc.start()
        try:
            build_cellstring_index(stops, 300.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


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
