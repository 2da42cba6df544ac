"""Differential tests: the proximity engine must be *bit-identical* to
the brute-force ``core.service`` oracle.

The engine (grid masks, batch scores, cached tree evaluation) is a pure
accelerator — not an approximation — so every comparison here is ``==``
on floats and ``array_equal`` on masks, never ``approx``.  Hypothesis
drives adversarial inputs: stop-dense facilities, serving distances
commensurate with the snapped coordinate grid (distance-exactly-psi
ties), radii from zero to world-spanning.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro import (
    BatchQueryEngine,
    CoverageCache,
    GriddedStopSet,
    ProximityBackend,
    QueryRuntime,
    ServiceModel,
    ServiceSpec,
    ShardedStopGrid,
    StopSet,
    TQTree,
    TQTreeConfig,
    brute_force_matches,
    brute_force_service,
    evaluate_service,
    maxkcov_tq,
    top_k_facilities,
)

from .strategies import (
    WORLD,
    dense_facilities,
    engine_psis,
    facility_sets,
    trajectory_sets,
)

ALL_MODELS = (ServiceModel.ENDPOINT, ServiceModel.COUNT, ServiceModel.LENGTH)
ALL_BACKENDS = (
    ProximityBackend.DENSE,
    ProximityBackend.GRID,
    ProximityBackend.AUTO,
)


def _rt(backend, cache=None):
    return QueryRuntime(backend=backend, cache=cache)


class TestGridMaskOracle:
    """ShardedStopGrid / GriddedStopSet masks vs the dense StopSet broadcast."""

    @settings(max_examples=50, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=12, min_points=1, max_points=6),
        dense_facilities(min_stops=16, max_stops=96),
        engine_psis(),
    )
    def test_grid_mask_bit_identical(self, users, facility, psi):
        dense = StopSet.of_facility(facility)
        grid = ShardedStopGrid(facility.stop_coords, psi)
        gridded = GriddedStopSet(facility.stop_coords, psi)
        for u in users:
            expected = dense.covered_mask(u.coords, psi)
            assert np.array_equal(expected, grid.covered_mask(u.coords, psi))
            assert np.array_equal(expected, gridded.covered_mask(u.coords, psi))

    @settings(max_examples=50, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=8, min_points=1, max_points=4),
        dense_facilities(min_stops=16, max_stops=64),
        engine_psis(),
    )
    def test_covers_point_bit_identical(self, users, facility, psi):
        dense = StopSet.of_facility(facility)
        grid = ShardedStopGrid(facility.stop_coords, psi)
        gridded = GriddedStopSet(facility.stop_coords, psi)
        for u in users:
            for p in u.points:
                expected = dense.covers_point(p, psi)
                assert grid.covers_point(p, psi) == expected
                assert gridded.covers_point(p, psi) == expected

    @settings(max_examples=30, deadline=None)
    @given(dense_facilities(min_stops=16, max_stops=96), engine_psis())
    def test_restriction_preserves_grid_and_results(self, facility, psi):
        dense = StopSet.of_facility(facility)
        gridded = GriddedStopSet(facility.stop_coords, psi)
        box = WORLD.quadrant(2).expanded(psi)
        d_sub = dense.restricted_to(box)
        g_sub = gridded.restricted_to(box)
        assert isinstance(g_sub, GriddedStopSet)
        assert np.array_equal(d_sub.coords, g_sub.coords)
        probe = np.array([[p, p] for p in np.linspace(0.0, 1024.0, 37)])
        assert np.array_equal(
            d_sub.covered_mask(probe, psi), g_sub.covered_mask(probe, psi)
        )


class TestBatchEngineOracle:
    """BatchQueryEngine scores vs ``brute_force_service`` — all three
    service models, normalised and raw, every backend."""

    @settings(max_examples=40, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=16, min_points=1, max_points=6),
        facility_sets(min_size=1, max_size=3, min_stops=1, max_stops=24),
        engine_psis(),
    )
    def test_scores_bit_identical_small_facilities(self, users, facs, psi):
        for backend in ALL_BACKENDS:
            engine = BatchQueryEngine(users, runtime=_rt(backend))
            for model in ALL_MODELS:
                for normalize in (True, False):
                    spec = ServiceSpec(model, psi=psi, normalize=normalize)
                    for f in facs:
                        assert engine.query(f, spec) == brute_force_service(
                            users, f, spec
                        ), (backend, model, normalize)

    @settings(max_examples=25, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=12, min_points=2, max_points=5),
        dense_facilities(min_stops=48, max_stops=120),
        engine_psis(),
    )
    def test_scores_bit_identical_dense_facilities(self, users, facility, psi):
        engine = BatchQueryEngine(users, runtime=_rt(ProximityBackend.GRID))
        for model in ALL_MODELS:
            spec = ServiceSpec(model, psi=psi)
            assert engine.query(facility, spec) == brute_force_service(
                users, facility, spec
            ), (model, psi)

    @settings(max_examples=25, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=10, min_points=1, max_points=5),
        dense_facilities(min_stops=16, max_stops=64),
        engine_psis(),
    )
    def test_matches_equal_brute_force(self, users, facility, psi):
        engine = BatchQueryEngine(users, runtime=_rt(ProximityBackend.GRID))
        assert engine.matches(facility, psi) == brute_force_matches(
            users, facility, psi
        )

    @settings(max_examples=20, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=10, min_points=2, max_points=4),
        facility_sets(min_size=2, max_size=4, min_stops=2, max_stops=32),
        engine_psis(),
    )
    def test_batched_run_equals_sequential_oracle(self, users, facs, psi):
        """One run() over a request grid (facility x model) matches the
        oracle per request, and the shared-mask path changes nothing."""
        engine = BatchQueryEngine(users, runtime=_rt(ProximityBackend.AUTO))
        requests = [
            (f, ServiceSpec(model, psi=psi))
            for f in facs
            for model in ALL_MODELS
        ]
        result = engine.run(requests)
        expected = tuple(
            brute_force_service(users, f, spec) for f, spec in requests
        )
        assert result.scores == expected
        # the three models of one facility share one mask
        assert result.stats.cache_hits >= 2 * len(facs)


class TestTreePathOracle:
    """evaluate_service / top-k / MaxkCovRST through a runtime vs the
    plain dense tree path (itself oracle-tested elsewhere)."""

    @settings(max_examples=20, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=16, min_points=2, max_points=2),
        dense_facilities(min_stops=24, max_stops=64),
        engine_psis(),
    )
    def test_evaluate_service_backend_identical(self, users, facility, psi):
        cache = CoverageCache()
        for use_zorder in (True, False):
            tree = TQTree.build(
                users, TQTreeConfig(beta=3, use_zorder=use_zorder), space=WORLD
            )
            for model in ALL_MODELS:
                spec = ServiceSpec(model, psi=psi, normalize=False)
                plain = evaluate_service(tree, facility, spec)
                for backend in ALL_BACKENDS:
                    got = evaluate_service(
                        tree, facility, spec, runtime=_rt(backend, cache)
                    )
                    assert got == plain, (use_zorder, model, backend)
                # cached replay must be identical too
                again = evaluate_service(
                    tree, facility, spec,
                    runtime=_rt(ProximityBackend.GRID, cache),
                )
                assert again == plain

    def test_topk_and_maxkcov_backend_identical(self, taxi_users, facilities):
        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=400.0)
        plain_topk = top_k_facilities(tree, facilities, 4, spec)
        plain_cov = maxkcov_tq(tree, facilities, 3, spec)
        cache = CoverageCache()
        fast_topk = top_k_facilities(
            tree, facilities, 4, spec,
            runtime=_rt(ProximityBackend.GRID, cache),
        )
        fast_cov = maxkcov_tq(
            tree, facilities, 3, spec,
            runtime=_rt(ProximityBackend.GRID, cache),
        )
        assert fast_topk.ranking == plain_topk.ranking
        assert fast_cov.facility_ids() == plain_cov.facility_ids()
        assert fast_cov.combined_service == plain_cov.combined_service
        assert fast_cov.users_fully_served == plain_cov.users_fully_served
        assert cache.hits > 0

    def test_cache_never_aliases_facilities_sharing_an_id(self, taxi_users, facilities):
        """Two distinct facilities with the same facility_id must each
        get their own (correct) answer from a shared cache — the stored
        component coordinates disambiguate them."""
        from repro import FacilityRoute

        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        spec = ServiceSpec(ServiceModel.COUNT, psi=400.0)
        f_a = FacilityRoute(7, facilities[0].stops)
        f_b = FacilityRoute(7, facilities[1].stops)
        cache = CoverageCache()
        for f in (f_a, f_b, f_a, f_b):
            got = evaluate_service(
                tree, f, spec, runtime=_rt(ProximityBackend.AUTO, cache)
            )
            assert got == brute_force_service(taxi_users, f, spec)

    def test_a_reused_id_with_other_stops_misses_on_every_node(
        self, taxi_users, facilities
    ):
        """A walk's table is verified against its stop coordinates once:
        a facility reusing a warm facility's id with other stops gets
        no hit at all — as many misses as on a cold cache."""
        from repro import FacilityRoute, QueryStats

        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        spec = ServiceSpec(ServiceModel.COUNT, psi=400.0)
        warm = FacilityRoute(7, facilities[0].stops)
        other = FacilityRoute(7, facilities[1].stops)
        cache = CoverageCache()
        for _ in range(2):
            evaluate_service(tree, warm, spec, runtime=_rt(ProximityBackend.AUTO, cache))
        assert cache.hits > 0
        cold = CoverageCache()
        evaluate_service(tree, other, spec, runtime=_rt(ProximityBackend.AUTO, cold))
        hits, misses, stats = cache.hits, cache.misses, QueryStats()
        got = evaluate_service(
            tree, other, spec, stats=stats, runtime=_rt(ProximityBackend.AUTO, cache)
        )
        assert got == brute_force_service(taxi_users, other, spec)
        assert stats.cache_hits == 0 and cache.hits == hits
        assert cache.misses - misses == cold.misses > 0

    def test_shared_cache_across_engines_with_different_users(
        self, taxi_users, checkin_users, facilities
    ):
        """One CoverageCache serving two engines over different user
        sets must never hand one engine the other's mask — even when
        both queries name the very same StopSet object."""
        shared = CoverageCache()
        spec = ServiceSpec(ServiceModel.COUNT, psi=400.0)
        stops = StopSet.of_facility(facilities[0])
        e1 = BatchQueryEngine(
            taxi_users, runtime=_rt(ProximityBackend.DENSE, shared)
        )
        e2 = BatchQueryEngine(
            checkin_users, runtime=_rt(ProximityBackend.DENSE, shared)
        )
        for _ in range(2):  # interleave to hit both cache slots
            assert e1.query(stops, spec) == brute_force_service(
                taxi_users, facilities[0], spec
            )
            assert e2.query(stops, spec) == brute_force_service(
                checkin_users, facilities[0], spec
            )

    def test_match_sets_reused_across_maxkcov_calls(self, taxi_users, facilities):
        """Repeated maxkcov_tq calls through one cache reuse match sets:
        independently created tq_match_fn closures share semantic keys."""
        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=400.0)
        cache = CoverageCache()
        first = maxkcov_tq(
            tree, facilities, 3, spec,
            runtime=_rt(ProximityBackend.GRID, cache),
        )
        hits_before = cache.hits
        second = maxkcov_tq(
            tree, facilities, 3, spec,
            runtime=_rt(ProximityBackend.GRID, cache),
        )
        assert second.facility_ids() == first.facility_ids()
        assert second.combined_service == first.combined_service
        # the second call's match collection is served from the cache
        assert cache.hits >= hits_before + len(first.selection)

    def test_cache_survives_repeated_queries(self, taxi_users, facilities):
        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        spec = ServiceSpec(ServiceModel.COUNT, psi=400.0)
        cache = CoverageCache()
        first = [
            evaluate_service(
                tree, f, spec, runtime=_rt(ProximityBackend.AUTO, cache)
            )
            for f in facilities
        ]
        hits_after_first = cache.hits
        second = [
            evaluate_service(
                tree, f, spec, runtime=_rt(ProximityBackend.AUTO, cache)
            )
            for f in facilities
        ]
        assert first == second
        assert cache.hits > hits_after_first

    def test_cache_is_bounded_and_an_evicted_walk_recomputes(
        self, taxi_users, facilities, monkeypatch
    ):
        """``psi`` is a client-supplied float, so a sweep never repeats a
        walk: the cache drops whole walks, oldest first, to stay within
        the cap — never the walk being filled — and a walk whose results
        went is a miss that recomputes the same answer."""
        from repro.engine import cache as cache_module
        from repro.queries import MatchCollector

        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        sweep = [
            (f, ServiceSpec(ServiceModel.COUNT, psi=300.0 + 7.0 * step))
            for step in range(12) for f in facilities[:4]
        ]

        def walk(cache, f, spec):
            collector = MatchCollector()
            value = evaluate_service(
                tree, f, spec, collector=collector,
                runtime=_rt(ProximityBackend.AUTO, cache),
            )
            assert len(cache) <= cache_module.MAX_ENTRIES
            return value, collector.as_dict()

        def run(cache):
            return [walk(cache, f, spec) for f, spec in sweep]

        roomy = CoverageCache()
        want = run(roomy)
        assert len(roomy) > 32 and roomy.hits == 0
        assert run(roomy) == want and roomy.hits > 0  # nothing was evicted
        monkeypatch.setattr(cache_module, "MAX_ENTRIES", 32)
        bounded = CoverageCache()
        assert run(bounded) == want
        assert 0 < len(bounded) <= 32
        # every walk's results went before the sweep came round again:
        # all misses, same answers
        assert run(bounded) == want
        assert bounded.hits == 0
        # ... but never the walk being filled: the same walk at once
        # again is answered from the cache on every node
        for (f, spec), answer in zip(sweep, want):
            assert walk(bounded, f, spec) == answer
            misses = bounded.misses
            assert walk(bounded, f, spec) == answer
            assert bounded.misses == misses
        # ... even when it is the oldest walk held, filled again
        coords, cache = np.zeros((1, 2)), CoverageCache()

        def fill(key, ids):
            table, _held = cache.lookup_walk(key, coords, ids)
            cache.store_walk(key, coords, table, {i: (None, ids, ids) for i in ids}, 0)

        fill("old", list(range(20)))
        fill("new", list(range(12)))
        fill("old", list(range(20, 26)))
        assert all(cache.lookup_walk("old", coords, list(range(26)))[1])
        assert len(cache) == 26


@pytest.mark.engine_smoke
def test_engine_smoke(taxi_users, facilities, endpoint_spec):
    """Fast engine-vs-oracle smoke check (runs in the default suite)."""
    engine = BatchQueryEngine(taxi_users, runtime=_rt(ProximityBackend.GRID))
    for f in facilities[:4]:
        assert engine.query(f, endpoint_spec) == brute_force_service(
            taxi_users, f, endpoint_spec
        )
