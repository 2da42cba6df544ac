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
    RuntimeConfig,
    ServiceModel,
    ServiceSpec,
    ShardedStopGrid,
    StopSet,
    TQTree,
    TQTreeConfig,
    brute_force_matches,
    brute_force_service,
    build_tq_zorder,
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


def _rt(backend):
    return QueryRuntime(RuntimeConfig(backend=backend))


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
                one = np.array([[p.x, p.y]])
                assert grid.covered_mask(one, psi).tolist() == [expected]
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

    def test_each_radius_is_dressed_at_that_radius(self, taxi_users, facilities):
        """One facility asked at two radii gets a dressed set per radius,
        each indexed at its own psi, and both answers stay exact."""
        engine = BatchQueryEngine(
            taxi_users, runtime=_rt(ProximityBackend.CELLSTRING)
        )
        for psi in (200.0, 400.0, 200.0):
            spec = ServiceSpec(ServiceModel.COUNT, psi=psi)
            assert engine.query(facilities[0], spec) == brute_force_service(
                taxi_users, facilities[0], spec
            )
            assert engine.resolve_stops(facilities[0], psi).cs_psi == psi

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
        runtimes = {backend: _rt(backend) for backend in ALL_BACKENDS}
        for use_zorder in (True, False):
            tree = TQTree.build(
                users, TQTreeConfig(beta=3, use_zorder=use_zorder), space=WORLD
            )
            for model in ALL_MODELS:
                spec = ServiceSpec(model, psi=psi, normalize=False)
                plain = evaluate_service(tree, facility, spec)
                for backend, runtime in runtimes.items():
                    got = evaluate_service(tree, facility, spec, runtime=runtime)
                    assert got == plain, (use_zorder, model, backend)
                # cached replay must be identical too
                again = evaluate_service(
                    tree, facility, spec, runtime=runtimes[ProximityBackend.GRID]
                )
                assert again == plain

    def test_topk_and_maxkcov_backend_identical(self, taxi_users, facilities):
        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=400.0)
        plain_topk = top_k_facilities(tree, facilities, 4, spec)
        plain_cov = maxkcov_tq(tree, facilities, 3, spec)
        runtime = _rt(ProximityBackend.GRID)
        fast_topk = top_k_facilities(tree, facilities, 4, spec, runtime=runtime)
        fast_cov = maxkcov_tq(tree, facilities, 3, spec, runtime=runtime)
        assert fast_topk.ranking == plain_topk.ranking
        assert fast_cov.facility_ids() == plain_cov.facility_ids()
        assert fast_cov.combined_service == plain_cov.combined_service
        assert fast_cov.users_fully_served == plain_cov.users_fully_served
        # k' = min(|F|, 4 * 3) keeps every candidate: a second MaxkCov
        # reads each candidate's match set off its walk record
        hits = runtime.cache.hits
        again = maxkcov_tq(tree, facilities, 3, spec, runtime=runtime)
        assert again.facility_ids() == plain_cov.facility_ids()
        assert runtime.cache.hits - hits == len(facilities)

    def test_cache_never_aliases_facilities_sharing_an_id(self, taxi_users, facilities):
        """Two distinct facilities with the same facility_id must each
        get their own (correct) answer from one runtime's cache — the
        stored component coordinates disambiguate them."""
        from repro import FacilityRoute

        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        spec = ServiceSpec(ServiceModel.COUNT, psi=400.0)
        f_a = FacilityRoute(7, facilities[0].stops)
        f_b = FacilityRoute(7, facilities[1].stops)
        runtime = _rt(ProximityBackend.AUTO)
        for f in (f_a, f_b, f_a, f_b):
            got = evaluate_service(tree, f, spec, runtime=runtime)
            assert got == brute_force_service(taxi_users, f, spec)

    @pytest.mark.parametrize("backend", [ProximityBackend.GRID, ProximityBackend.CELLSTRING])
    def test_records_never_hold_a_probed_stop_set(self, taxi_users, facilities, backend):
        """After a sweep of evaluates, kMaxRRSTs and MaxkCovs, every walk
        record keeps its dressed stop set as it was before its first
        probe: no record pins a grid or a cellstring index past the shard
        store's cap."""
        from repro import CellstringStopSet

        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        spec = ServiceSpec(ServiceModel.COUNT, psi=400.0)
        runtime = _rt(backend)
        for _ in range(2):
            for f in facilities:
                evaluate_service(tree, f, spec, runtime=runtime)
            top_k_facilities(tree, facilities, 4, spec, runtime=runtime)
            maxkcov_tq(tree, facilities, 3, spec, runtime=runtime)
        records = list(runtime.cache._records.values())
        assert len(records) == len(facilities)
        for record in records:
            assert isinstance(record.stops, (GriddedStopSet, CellstringStopSet))
            if isinstance(record.stops, GriddedStopSet):
                assert record.stops._grid is None
            else:
                assert record.stops._index is None
        assert runtime.stats.cells_probed > 0

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
        runtime, cold = _rt(ProximityBackend.AUTO), _rt(ProximityBackend.AUTO)
        for _ in range(2):
            evaluate_service(tree, warm, spec, runtime=runtime)
        cache = runtime.cache
        assert cache.hits > 0
        evaluate_service(tree, other, spec, runtime=cold)
        hits, misses, stats = cache.hits, cache.misses, QueryStats()
        got = evaluate_service(tree, other, spec, stats=stats, runtime=runtime)
        assert got == brute_force_service(taxi_users, other, spec)
        assert stats.cache_hits == 0 and cache.hits == hits
        assert cache.misses - misses == cold.cache.misses > 0

    def test_shared_cache_across_engines_with_different_users(
        self, taxi_users, checkin_users, facilities
    ):
        """One runtime serving two engines over different user sets must
        never hand one engine the other's mask — even when both queries
        name the very same StopSet object."""
        shared = _rt(ProximityBackend.DENSE)
        spec = ServiceSpec(ServiceModel.COUNT, psi=400.0)
        stops = StopSet.of_facility(facilities[0])
        e1 = BatchQueryEngine(taxi_users, runtime=shared)
        e2 = BatchQueryEngine(checkin_users, runtime=shared)
        for _ in range(2):  # interleave to hit both cache slots
            assert e1.query(stops, spec) == brute_force_service(
                taxi_users, facilities[0], spec
            )
            assert e2.query(stops, spec) == brute_force_service(
                checkin_users, facilities[0], spec
            )

    def test_match_sets_reused_across_maxkcov_calls(self, taxi_users, facilities):
        """Repeated maxkcov_tq calls through one runtime reuse match sets:
        independently created tq_match_fn closures find them on the same
        walk records."""
        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=400.0)
        runtime = _rt(ProximityBackend.GRID)
        cache = runtime.cache
        first = maxkcov_tq(tree, facilities, 3, spec, runtime=runtime)
        hits_before = cache.hits
        second = maxkcov_tq(tree, facilities, 3, spec, runtime=runtime)
        assert second.facility_ids() == first.facility_ids()
        assert second.combined_service == first.combined_service
        # the second call's match collection is served from the cache
        assert cache.hits >= hits_before + len(first.selection)

    def test_cache_survives_repeated_queries(self, taxi_users, facilities):
        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        spec = ServiceSpec(ServiceModel.COUNT, psi=400.0)
        runtime = _rt(ProximityBackend.AUTO)
        cache = runtime.cache
        first = [evaluate_service(tree, f, spec, runtime=runtime) for f in facilities]
        hits_after_first = cache.hits
        second = [evaluate_service(tree, f, spec, runtime=runtime) for f in facilities]
        assert first == second
        assert cache.hits > hits_after_first

    def test_cache_is_bounded_and_an_evicted_walk_recomputes(
        self, taxi_users, facilities, monkeypatch
    ):
        """``psi`` is a client-supplied float, so a sweep never repeats a
        walk: the cache drops whole walk records, least recently used
        first, to stay within the row bound — never the walk being
        filled — and a walk whose record went is a miss that recomputes
        the same answer."""
        from repro.engine import cache as cache_module

        tree = TQTree.build(taxi_users, TQTreeConfig(beta=16))
        n = len(tree.frame())
        sweep = [
            (f, ServiceSpec(ServiceModel.COUNT, psi=300.0 + 7.0 * step))
            for step in range(12) for f in facilities[:4]
        ]

        def walk(runtime, f, spec):
            value = evaluate_service(tree, f, spec, runtime=runtime)
            assert runtime.cache._rows <= cache_module.MAX_ROWS
            return value

        def run(runtime):
            return [walk(runtime, f, spec) for f, spec in sweep]

        roomy_rt = _rt(ProximityBackend.AUTO)
        roomy = roomy_rt.cache
        want = run(roomy_rt)
        assert len(roomy) > 32 and roomy.hits == 0
        assert run(roomy_rt) == want and roomy.hits > 0  # nothing was evicted
        # a record is a division, n rows; its COUNT answer adds none
        monkeypatch.setattr(cache_module, "MAX_ROWS", 4 * n)
        bounded_rt = _rt(ProximityBackend.AUTO)
        bounded = bounded_rt.cache
        assert run(bounded_rt) == want
        assert 0 < len(bounded._records) <= 4
        # every walk's record went before the sweep came round again:
        # all misses, same answers
        assert run(bounded_rt) == want
        assert bounded.hits == 0
        # ... but never the walk being filled: the same walk at once
        # again is answered from the cache on every node
        for (f, spec), answer in zip(sweep, want):
            assert walk(bounded_rt, f, spec) == answer
            misses = bounded.misses
            assert walk(bounded_rt, f, spec) == answer
            assert bounded.misses == misses
        # ... even when it is the least recently used record, filled
        # again: the others go first
        monkeypatch.setattr(cache_module, "MAX_ROWS", 30)
        coords, cache = np.zeros((1, 2)), CoverageCache()
        division = (np.zeros(10, dtype=bool),) * 3
        stops = StopSet(coords)
        old = cache.store_record("old", coords, division, stops)
        new = cache.store_record("new", coords, division, stops)
        cache.store_matches(new, self._match_set(5))
        cache.store_answer(old, "c", (1.0, 1), 10)  # an answer adds no row
        assert list(cache._records) == ["old", "new"] and cache._rows == 25
        cache.store_matches(old, self._match_set(10))
        assert list(cache._records) == ["old"] and cache._rows == 20
        assert old.answers == {"c": (1.0, 1)} and len(cache) == 2

    def test_a_store_replaces_the_keys_record(self):
        """A store holds a new record as its key's, replacing the one
        held — answers, match set and all, of equal stops or not — and
        ``_rows`` drops the replaced record's rows for the new one's."""
        cache, coords = CoverageCache(), np.zeros((4, 2))
        division = (np.zeros(4, dtype=bool),) * 3
        stops = StopSet(coords)
        first = cache.store_record("walk", coords, division, stops)
        cache.store_answer(first, "c", (4.0, 4), 4)
        cache.store_matches(first, self._match_set(4))
        assert cache._rows == 8 and len(cache) == 2
        for made_of in (coords.copy(), coords + 1.0):
            held = cache.lookup_record("walk", coords)
            record = cache.store_record("walk", made_of, division, stops)
            assert record is not held and not record.answers and record.matches is None
            assert cache._rows == 4 and len(cache) == 0
            assert list(cache._records.values()) == [record]
        assert cache.lookup_record("walk", coords) is None

    @staticmethod
    def _fill_records(cache, rounds, walks):
        """Read and fill the answers of ``walks`` four-node walk records,
        walk ``w`` listing ``1 + w % 4`` nodes, through the calls the
        query path makes; returns how many listed-node reads were made."""
        coords = np.zeros((4, 2))
        division = (np.zeros(4, dtype=bool),) * 3
        stops = StopSet(coords)
        reads = 0
        for _ in range(rounds):
            for w in range(walks):
                key = ("walk", w)
                record = cache.lookup_record(key, coords)
                if record is None:
                    record = cache.store_record(key, coords, division, stops)
                # every walk sees the one dressing and gets its own
                # unprobed copy of it
                assert record.stops is stops and record.stops.unprobed() is not stops
                listed = 1 + w % 4
                held = cache.read_answer(record, "c", listed)
                if held is None:
                    cache.store_answer(record, "c", (1.0 + w, 10 + w), listed)
                else:
                    # a held answer is the walk's value and its count
                    assert held == (1.0 + w, 10 + w)
                reads += listed
        return reads

    def test_record_counters_account_for_every_node_read(self):
        cache = CoverageCache()
        reads = self._fill_records(cache, rounds=50, walks=4)
        # every listed node of a read either hit or was stored (the miss)
        assert cache.hits + cache.misses == reads
        assert cache.misses == 1 + 2 + 3 + 4  # each walk filled once
        assert len(cache) == 4  # one answer per walk

    def test_record_eviction_keeps_the_row_bound(self, monkeypatch):
        from repro.engine import cache as cache_module

        monkeypatch.setattr(cache_module, "MAX_ROWS", 10)
        cache = CoverageCache()
        reads = self._fill_records(cache, rounds=50, walks=6)
        assert cache.hits + cache.misses == reads
        assert cache.misses > 24  # records were evicted and filled again
        # the held count is the records' sizes, never above the cap
        assert cache._rows == sum(r.rows for r in cache._records.values()) <= 10

    @staticmethod
    def _match_set(slots):
        from repro.core.service import MatchSet

        return MatchSet(None, np.arange(slots))

    def test_match_sets_keep_the_first_store(self):
        """Match sets asked for and stored on four records the way
        ``walk_matches`` does: every call is one hit or one miss, each
        record keeps the first set stored, and every later read returns
        that very set."""
        cache, stops = CoverageCache(), StopSet(np.zeros((1, 2)))
        division = (np.zeros(4, dtype=bool),) * 3
        coords = [np.full((1, 2), float(i)) for i in range(4)]
        for i in range(4):
            cache.store_record(("walk", i), coords[i], division, stops)
        rounds, seen = 50, {}
        for _ in range(rounds):
            for i in range(4):
                record = cache.lookup_record(("walk", i), coords[i].copy())
                got = cache.read_matches(record)
                if got is None:
                    cache.store_matches(record, self._match_set(i + 1))
                else:
                    assert seen.setdefault(i, got) is got
        assert cache.hits + cache.misses == rounds * 4 and cache.misses == 4
        # a later store on a record holding a set is a miss that keeps the first
        first = cache.lookup_record(("walk", 0), coords[0])
        cache.store_matches(first, self._match_set(9))
        assert cache.read_matches(first) is seen[0]
        # a record the cache no longer holds takes no set
        cache.store_record(("walk", 0), coords[0], division, stops)
        cache.store_matches(first, self._match_set(9))
        held = {key[1]: r.matches for key, r in cache._records.items() if r.matches is not None}
        assert len(held) == 3 and len(cache) == 3
        assert held == {i: seen[i] for i in (1, 2, 3)}
        for i, matches in held.items():
            assert matches.slots.size == i + 1
        # four divisions of four rows, one row per slot of each set held
        assert cache._rows == 16 + (2 + 3 + 4)

    def test_match_tables_and_clear_stay_consistent(self):
        """Match sets stored, counted and cleared in turn: ``clear()``
        between stores leaves ``len()`` and the row count matching the
        records held, and a cleared set is a miss stored again."""
        cache, coords = CoverageCache(), np.zeros((1, 2))
        division, stops = (np.zeros(5, dtype=bool),) * 3, StopSet(coords)
        calls = 0
        for r in range(100):
            key = ("walk", r % 3)
            for _ in range(4):
                calls += 1
                record = cache.lookup_record(key, coords)
                if record is None:
                    record = cache.store_record(key, coords, division, stops)
                if cache.read_matches(record) is None:
                    cache.store_matches(record, self._match_set(2))
                assert 0 <= len(cache) <= 3
                assert cache._rows == sum(r.rows for r in cache._records.values())
            if r % 25 == 0:
                cache.clear()
                assert len(cache) == 0 and cache._rows == 0
        assert cache.hits + cache.misses == calls
        # round 0 stores one record's set; after each of the four clears
        # (rounds 0, 25, 50 and 75) all three records' sets are misses
        # stored again
        assert cache.misses == 1 + 4 * 3
        assert len(cache) == sum(r.matches is not None for r in cache._records.values()) == 3

    @pytest.mark.engine_smoke
    def test_repeated_walks_under_a_row_bound_share_sound_plans(
        self, monkeypatch, taxi_users, facilities, endpoint_spec
    ):
        """Walks of the same facilities under two specs through one
        runtime, repeated in rotated orders and ranked with kMaxRRST,
        with a row bound smaller than the working set: every answer,
        ranking and plan (its stops included) ``==`` a roomy runtime's,
        every answer held ``==`` the roomy answer (value and count), and
        the records held stay within the bound."""
        from repro.engine import cache as cache_module
        from repro.queries.evaluate import walk_plan

        tree = build_tq_zorder(taxi_users, beta=16)
        specs = [endpoint_spec, ServiceSpec(ServiceModel.COUNT, psi=endpoint_spec.psi)]
        walks = [(f, spec) for f in facilities for spec in specs]
        with QueryRuntime() as roomy:
            want = [evaluate_service(tree, f, spec, runtime=roomy) for f, spec in walks]
            want += [top_k_facilities(tree, facilities, 3, s, runtime=roomy).ranking for s in specs]
            records = roomy.cache._records
            answers = {
                (key, column): held
                for key, record in records.items()
                for column, held in record.answers.items()
            }
        assert len(answers) == len(walks)
        assert want[: len(walks)] == [evaluate_service(tree, f, spec) for f, spec in walks]
        plans = [walk_plan(tree, f, spec.psi, None) for f, spec in walks]
        n = len(tree.frame())
        monkeypatch.setattr(cache_module, "MAX_ROWS", 5 * n)
        assert len(facilities) > 5
        with QueryRuntime() as runtime:
            cache = runtime.cache
            for turn in range(4):
                order = list(range(turn, len(walks))) + list(range(turn))
                got_values = [None] * (len(walks) + len(specs))
                for j in order:
                    f, spec = walks[j]
                    got_values[j] = evaluate_service(tree, f, spec, runtime=runtime)
                    got, plan = walk_plan(tree, f, spec.psi, runtime), plans[j]
                    assert np.array_equal(got.stops.coords, plan.stops.coords)
                    assert np.array_equal(got.served, plan.served)
                    assert np.array_equal(got.visited, plan.visited)
                    assert np.array_equal(got.envelopes, plan.envelopes, equal_nan=True)
                    column = (spec.model, spec.normalize)
                    held = got.record.answers.get(column)
                    if held is not None:
                        assert held == answers[(got.record.key, column)]
                for s, spec in enumerate(specs[turn % 2 :] + specs[: turn % 2]):
                    ranking = top_k_facilities(tree, facilities, 3, spec, runtime=runtime).ranking
                    got_values[len(walks) + (s + turn) % 2] = ranking
                assert got_values == want
                assert cache._rows == sum(r.rows for r in cache._records.values()) <= 5 * n


@pytest.mark.engine_smoke
def test_engine_smoke(taxi_users, facilities, endpoint_spec):
    """Fast engine-vs-oracle smoke check (runs in the default suite)."""
    engine = BatchQueryEngine(taxi_users, runtime=_rt(ProximityBackend.GRID))
    for f in facilities[:4]:
        assert engine.query(f, endpoint_spec) == brute_force_service(
            taxi_users, f, endpoint_spec
        )
