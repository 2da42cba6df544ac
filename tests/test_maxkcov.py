"""Tests for MaxkCovRST: combined semantics, greedy behaviour, agreement
between G-BL / G-TQ(B) / G-TQ(Z)."""

from __future__ import annotations

from dataclasses import astuple

import pytest
from hypothesis import given, settings

from repro import (
    BaselineIndex,
    FacilityRoute,
    GeneticConfig,
    QueryError,
    QueryRuntime,
    ServiceModel,
    ServiceSpec,
    TQTree,
    TQTreeConfig,
    Trajectory,
    brute_force_combined_service,
    build_tq_basic,
    build_tq_zorder,
    exact_max_k_coverage,
    genetic_max_k_coverage,
    greedy_max_k_coverage,
    maxkcov_baseline,
    maxkcov_tq,
    top_k_facilities,
)
from repro.queries import (
    baseline_match_fn,
    maxkcov_core,
    top_k_core,
    tq_match_fn,
)
from repro.service import KMaxRRSTRequest, MaxKCovRequest
from repro.service.http import Catalog, wire

from .strategies import WORLD, facility_sets, psis, trajectory_sets


class TestCombinedSemantics:
    def test_lemma1_cross_facility_serving(self):
        """The paper's non-submodularity construction: one facility near
        the source, another near the destination — together they serve
        the user, separately they do not."""
        user = Trajectory(0, [(0, 0), (1000, 0)])
        near_start = FacilityRoute(0, [(0, 5)])
        near_end = FacilityRoute(1, [(1000, 5)])
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=10.0)
        assert brute_force_combined_service([user], [near_start], spec) == 0.0
        assert brute_force_combined_service([user], [near_end], spec) == 0.0
        assert (
            brute_force_combined_service([user], [near_start, near_end], spec) == 1.0
        )

    def test_non_submodularity_witness(self):
        """Marginal gain of x on superset B exceeds its gain on A ⊂ B —
        impossible for submodular functions (Lemma 1)."""
        user = Trajectory(0, [(0, 0), (1000, 0)])
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=10.0)
        a = FacilityRoute(0, [(500, 500)])  # serves nothing of the user
        b = FacilityRoute(1, [(0, 5)])  # serves the source
        x = FacilityRoute(2, [(1000, 5)])  # serves the destination
        users = [user]

        def so(facs):
            return brute_force_combined_service(users, facs, spec)

        gain_on_a = so([a, x]) - so([a])
        gain_on_ab = so([a, b, x]) - so([a, b])
        assert gain_on_ab > gain_on_a  # diminishing returns violated

    def test_greedy_finds_cross_facility_pair(self):
        users = [Trajectory(i, [(0, i * 30), (1000, i * 30)]) for i in range(5)]
        near_start = FacilityRoute(0, [(0, 60)])
        near_end = FacilityRoute(1, [(1000, 60)])
        decoy = FacilityRoute(2, [(500, 500)])
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=200.0)
        tree = TQTree.build(users, TQTreeConfig(beta=4), space=WORLD)
        result = greedy_max_k_coverage(
            users, [near_start, near_end, decoy], 2, spec, tq_match_fn(tree, spec)
        )
        assert set(result.facility_ids()) == {0, 1}
        assert result.users_fully_served == 5


class TestGreedy:
    def test_invalid_k(self, taxi_users, facilities, endpoint_spec):
        tree = build_tq_zorder(taxi_users, beta=16)
        with pytest.raises(QueryError):
            maxkcov_tq(tree, facilities, 0, endpoint_spec)

    def test_invalid_prune_factor(self, taxi_users, facilities, endpoint_spec):
        tree = build_tq_zorder(taxi_users, beta=16)
        with pytest.raises(QueryError):
            maxkcov_tq(tree, facilities, 2, endpoint_spec, prune_factor=0)

    def test_combined_value_is_exact(self, taxi_users, facilities, endpoint_spec):
        """The reported combined service equals the oracle on the chosen set."""
        tree = build_tq_zorder(taxi_users, beta=16)
        result = maxkcov_tq(tree, facilities, 3, endpoint_spec)
        assert result.combined_service == pytest.approx(
            brute_force_combined_service(
                taxi_users, list(result.selection), endpoint_spec
            )
        )

    def test_all_strategies_agree(self, taxi_users, facilities, endpoint_spec):
        """G-BL, G-TQ(B), G-TQ(Z) consume identical match sets, so the
        greedy outcome must coincide (prune wide enough to not bite)."""
        tz = build_tq_zorder(taxi_users, beta=16)
        tb = build_tq_basic(taxi_users, beta=16)
        bl = BaselineIndex.build(taxi_users)
        k = 3
        r_bl = maxkcov_baseline(bl, taxi_users, facilities, k, endpoint_spec)
        r_tz = maxkcov_tq(tz, facilities, k, endpoint_spec, prune_factor=len(facilities))
        r_tb = maxkcov_tq(tb, facilities, k, endpoint_spec, prune_factor=len(facilities))
        assert r_bl.combined_service == pytest.approx(r_tz.combined_service)
        assert r_bl.combined_service == pytest.approx(r_tb.combined_service)
        assert r_bl.facility_ids() == r_tz.facility_ids() == r_tb.facility_ids()

    def test_greedy_at_least_best_single(self, taxi_users, facilities, endpoint_spec):
        from repro import brute_force_service

        tree = build_tq_zorder(taxi_users, beta=16)
        result = maxkcov_tq(tree, facilities, 3, endpoint_spec)
        best_single = max(
            brute_force_service(taxi_users, f, endpoint_spec) for f in facilities
        )
        assert result.combined_service >= best_single - 1e-9

    def test_monotone_in_k(self, taxi_users, facilities, endpoint_spec):
        tree = build_tq_zorder(taxi_users, beta=16)
        values = [
            maxkcov_tq(tree, facilities, k, endpoint_spec).combined_service
            for k in (1, 2, 4, 8)
        ]
        assert values == sorted(values)

    def test_step_gains_recorded(self, taxi_users, facilities, endpoint_spec):
        tree = build_tq_zorder(taxi_users, beta=16)
        result = maxkcov_tq(tree, facilities, 3, endpoint_spec)
        assert len(result.step_gains) == len(result.selection)
        assert sum(result.step_gains) == pytest.approx(result.combined_service)

    def test_stops_early_when_nothing_servable(self, endpoint_spec):
        users = [Trajectory(0, [(0, 0), (10, 0)])]
        far = [
            FacilityRoute(i, [(900 + i, 900)]) for i in range(4)
        ]  # serve nothing
        tree = TQTree.build(users, TQTreeConfig(beta=4), space=WORLD)
        result = greedy_max_k_coverage(
            users, far, 3, endpoint_spec, tq_match_fn(tree, endpoint_spec)
        )
        assert result.selection == ()
        assert result.combined_service == 0.0

    def test_count_model_coverage(self, checkin_users, facilities, count_spec):
        from repro import build_segmented

        tree = build_segmented(checkin_users, beta=16)
        result = maxkcov_tq(tree, facilities, 3, count_spec)
        assert result.combined_service == pytest.approx(
            brute_force_combined_service(
                checkin_users, list(result.selection), count_spec
            )
        )

    def test_small_prune_factor_no_worse_than_single(self, taxi_users, facilities, endpoint_spec):
        tree = build_tq_zorder(taxi_users, beta=16)
        tight = maxkcov_tq(tree, facilities, 2, endpoint_spec, prune_factor=1)
        wide = maxkcov_tq(tree, facilities, 2, endpoint_spec, prune_factor=6)
        assert wide.combined_service >= tight.combined_service - 1e-9


class TestPropertyGreedy:
    @settings(max_examples=20, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=12, min_points=2, max_points=2),
        facility_sets(min_size=1, max_size=5),
        psis(),
    )
    def test_greedy_value_equals_oracle_on_selection(self, users, facs, psi):
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=psi)
        tree = TQTree.build(users, TQTreeConfig(beta=3), space=WORLD)
        result = greedy_max_k_coverage(users, facs, 2, spec, tq_match_fn(tree, spec))
        assert result.combined_service == pytest.approx(
            brute_force_combined_service(users, list(result.selection), spec)
        )

    @settings(max_examples=20, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=10, min_points=2, max_points=2),
        facility_sets(min_size=2, max_size=5),
        psis(),
    )
    def test_baseline_and_tq_match_fns_identical(self, users, facs, psi):
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=psi)
        tree = TQTree.build(users, TQTreeConfig(beta=3), space=WORLD)
        bl = BaselineIndex.build(users)
        fn_tq = tq_match_fn(tree, spec)
        fn_bl = baseline_match_fn(bl, spec)
        for f in facs:
            assert dict(fn_tq(f)) == dict(fn_bl(f))


class TestMatchSetsOnWalkRecords:
    """A match set lives on its facility's walk record, per
    ``(model, normalize)``: one table, bounded by ``MAX_ROWS``."""

    def test_one_record_per_facility_carries_every_product(
        self, taxi_users, facilities, count_spec
    ):
        """kMaxRRST and then MaxkCov over the same candidates leave one
        record per facility, holding its division, its values and its
        match set."""
        tree = build_tq_zorder(taxi_users, beta=16)
        column = (count_spec.model, count_spec.normalize)
        with QueryRuntime() as rt:
            top_k_facilities(tree, facilities, len(facilities), count_spec, runtime=rt)
            maxkcov_tq(tree, facilities, 3, count_spec, runtime=rt)
            records = rt.cache._records
            assert sorted(key[0] for key in records) == sorted(f.facility_id for f in facilities)
            for record in records.values():
                assert record.division[0].size == len(tree.frame())
                assert set(record.columns) == set(record.matches) == {column}
                assert rt.cache._rows == sum(r.rows for r in records.values())

    def test_equal_routes_hit_on_every_match_set(self, taxi_users, facilities, endpoint_spec):
        """A second MaxkCov over new ``FacilityRoute`` objects of the same
        ids and stops walks nothing: its match sets are the records'."""
        tree = build_tq_zorder(taxi_users, beta=16)
        twins = [FacilityRoute(f.facility_id, f.stops) for f in facilities]
        column = (endpoint_spec.model, endpoint_spec.normalize)
        with QueryRuntime() as rt:
            first = maxkcov_tq(tree, facilities, 3, endpoint_spec, runtime=rt)
            held = {key[0]: r.matches[column] for key, r in rt.cache._records.items()}
            assert len(held) == len(facilities)  # the shortlist is every candidate
            misses, scanned = rt.cache.misses, rt.stats.points_scanned
            second = maxkcov_tq(tree, twins, 3, endpoint_spec, runtime=rt)
            assert rt.cache.misses == misses and rt.stats.points_scanned == scanned
            hits, fn = rt.cache.hits, tq_match_fn(tree, endpoint_spec, runtime=rt)
            assert all(fn(f) is held[f.facility_id] for f in twins)
            assert rt.cache.hits - hits == len(twins)
        assert second.facility_ids() == first.facility_ids()
        assert second.combined_service == first.combined_service

    def test_routes_sharing_an_id_never_share_a_match_set(
        self, taxi_users, facilities, endpoint_spec
    ):
        from repro import brute_force_matches

        tree = build_tq_zorder(taxi_users, beta=16)
        f_a = FacilityRoute(7, facilities[0].stops)
        f_b = FacilityRoute(7, facilities[1].stops)
        with QueryRuntime() as rt:
            fn = tq_match_fn(tree, endpoint_spec, runtime=rt)
            for f in (f_a, f_b, f_a, f_b):
                assert dict(fn(f)) == brute_force_matches(taxi_users, f, endpoint_spec.psi)
            # each switch replaced the other's record: no hit at all
            assert rt.cache.hits == 0 and rt.cache.misses == 4

    def test_caller_made_match_fns_hold_nothing(self, taxi_users, facilities, endpoint_spec):
        """Exact and genetic solvers no longer memoise a caller's match
        fn: 200 calls of each with a fresh baseline fn leave the cache
        empty (each call used to pin its fn and hold six match sets)."""
        index = BaselineIndex.build(taxi_users)
        subset = facilities[:6]
        config = GeneticConfig(population_size=4, iterations=1)
        with QueryRuntime() as rt:
            for _ in range(200):
                fn = baseline_match_fn(index, endpoint_spec)
                exact_max_k_coverage(taxi_users, subset, 2, endpoint_spec, fn, runtime=rt)
            for _ in range(200):
                fn = baseline_match_fn(index, endpoint_spec)
                genetic_max_k_coverage(
                    taxi_users, subset, 2, endpoint_spec, fn, config, runtime=rt
                )
            assert len(rt.cache) == 0 and not rt.cache._records


def _entry_points(tree, users, facilities, spec):
    """Every kMaxRRST / MaxkCov entry point, as ``name -> f(k, prune_factor)``."""

    def fn(facility):
        return tq_match_fn(tree, spec)(facility)

    return {
        "top_k_facilities": lambda k, p: top_k_facilities(tree, facilities, k, spec),
        "top_k_core": lambda k, p: top_k_core(tree, facilities, k, spec),
        "maxkcov_tq": lambda k, p: maxkcov_tq(tree, facilities, k, spec, prune_factor=p),
        "maxkcov_core": lambda k, p: maxkcov_core(tree, facilities, k, spec, p),
        "greedy_max_k_coverage": lambda k, p: greedy_max_k_coverage(
            users, facilities, k, spec, fn
        ),
        "exact_max_k_coverage": lambda k, p: exact_max_k_coverage(
            users, facilities, k, spec, fn
        ),
        "genetic_max_k_coverage": lambda k, p: genetic_max_k_coverage(
            users, facilities, k, spec, fn
        ),
        "KMaxRRSTRequest": lambda k, p: KMaxRRSTRequest(tree, facilities, k, spec),
        "MaxKCovRequest": lambda k, p: MaxKCovRequest(tree, facilities, k, spec, p),
    }


_ENTRY_NAMES = sorted(_entry_points(None, None, None, None))


class TestPositiveIntegerArguments:
    """``k`` and ``prune_factor`` are integers >= 1 everywhere: NaN and
    2.5 used to answer (all candidates, or none), 2.0 to raise a raw
    ``TypeError`` and ``True`` to run as 1."""

    @pytest.fixture(scope="class")
    def world(self, taxi_users, facilities):
        users = taxi_users[:300]
        return build_tq_zorder(users, beta=16), users, facilities[:8]

    @pytest.mark.parametrize("entry_point", _ENTRY_NAMES)
    @pytest.mark.parametrize("k", [float("nan"), 2.5, 2.0, True, 0], ids=str)
    def test_k_must_be_a_positive_integer(self, world, endpoint_spec, entry_point, k):
        call = _entry_points(*world, endpoint_spec)[entry_point]
        with pytest.raises(QueryError, match="k must be"):
            call(k, 4)

    @pytest.mark.parametrize("entry_point", ["maxkcov_tq", "maxkcov_core", "MaxKCovRequest"])
    @pytest.mark.parametrize("prune_factor", [float("nan"), 1.5, 2.0, True, 0], ids=str)
    def test_prune_factor_must_be_a_positive_integer(
        self, world, endpoint_spec, entry_point, prune_factor
    ):
        call = _entry_points(*world, endpoint_spec)[entry_point]
        with pytest.raises(QueryError, match="prune_factor must be"):
            call(2, prune_factor)

    @pytest.fixture(scope="class")
    def wire_catalog(self, world):
        tree, _, facilities = world
        catalog = Catalog()
        catalog.add_tree("taxi", tree, source="conftest taxi users")
        catalog.add_facility_set("buses", facilities, source="conftest bus routes")
        return catalog

    @staticmethod
    def _wire_payload(rtype, spec, **fields):
        return {"type": rtype, "tree": "taxi", "facility_set": "buses",
                "spec": {"model": "endpoint", "psi": spec.psi}, **fields}

    @pytest.mark.parametrize("rtype", ["kmaxrrst", "maxkcov"])
    @pytest.mark.parametrize("k", [float("nan"), 2.5, 2.0, True, 0], ids=str)
    def test_wire_k_must_be_a_positive_integer(
        self, wire_catalog, endpoint_spec, rtype, k
    ):
        """The wire decoder, the entry point a server reaches, refuses
        the same values: by its own integer check, or (0) by the
        request's."""
        payload = self._wire_payload(rtype, endpoint_spec, k=k)
        with pytest.raises(QueryError, match="k'? must be"):
            wire.decode_request(payload, wire_catalog)

    @pytest.mark.parametrize("prune_factor", [float("nan"), 1.5, 2.0, True, 0], ids=str)
    def test_wire_prune_factor_must_be_a_positive_integer(
        self, wire_catalog, endpoint_spec, prune_factor
    ):
        payload = self._wire_payload(
            "maxkcov", endpoint_spec, k=2, prune_factor=prune_factor
        )
        with pytest.raises(QueryError, match="prune_factor'? must be"):
            wire.decode_request(payload, wire_catalog)


#: Cold MaxkCovs over the 12 fixture routes, per (tree, model, k):
#: ``(facility_ids, combined_service, users_fully_served)`` and the
#: request's ``QueryStats`` as a tuple, recorded while every MaxkCov
#: still ran its kMaxRRST shortlist.  k = 3 keeps every candidate
#: (k' = min(12, 4k) = 12), so the recorded counters include the
#: shortlist's, given in :data:`_SHORTLIST_STATS`; k = 2 shortlists 8.
#: Re-recorded when kMaxRRST became one evaluate per candidate (fleets
#: unchanged): ``states_relaxed`` 48 / 46 / 45 -> 0, and the k = 2
#: shortlist evaluates every candidate whole — (nodes_visited,
#: entries_considered, entries_scored, points_scanned, distance_evals)
#: TQ(Z) ENDPOINT 140 / 7769 / 3410 / 6820 / 109120 -> 142 / 7779 /
#: 3411 / 6822 / 109152, TQ(B) COUNT 139 / 7764 / 6681 / 13362 / 213792
#: -> 142 / 7779 / 6687 / 13374 / 213984.
_FLEET_GOLDEN = {
    ("TQ(Z)", "ENDPOINT", 3): (((5, 11, 10), 211.0, 211), (170, 9314, 4399, 0, 0, 8798, 140768, 0, 0)),
    ("TQ(Z)", "COUNT", 3): (((5, 3, 10), 585.0, 208), (170, 9314, 6988, 0, 0, 13976, 223616, 0, 0)),
    ("TQ(B)", "ENDPOINT", 3): (((5, 11, 10), 211.0, 211), (170, 9314, 4933, 0, 0, 9866, 157856, 0, 0)),
    ("TQ(B)", "COUNT", 3): (((5, 3, 10), 585.0, 208), (170, 9314, 7872, 0, 0, 15744, 251904, 0, 0)),
    ("TQ(Z)", "ENDPOINT", 2): (((5, 11), 152.0, 152), (142, 7779, 3411, 0, 0, 6822, 109152, 0, 0)),
    ("TQ(B)", "COUNT", 2): (((5, 11), 499.0, 152), (142, 7779, 6687, 0, 0, 13374, 213984, 0, 0)),
}

#: The counters of the cold ``top_k_core(tree, routes, 12, spec)`` each
#: k = 3 MaxkCov above ran as its shortlist (``states_relaxed`` re-recorded
#: 48 -> 0 with :data:`_FLEET_GOLDEN`).
_SHORTLIST_STATS = {
    ("TQ(Z)", "ENDPOINT"): (85, 4657, 905, 0, 0, 1810, 28960, 0, 0),
    ("TQ(Z)", "COUNT"): (85, 4657, 3494, 0, 0, 6988, 111808, 0, 0),
    ("TQ(B)", "ENDPOINT"): (85, 4657, 997, 0, 0, 1994, 31904, 0, 0),
    ("TQ(B)", "COUNT"): (85, 4657, 3936, 0, 0, 7872, 125952, 0, 0),
}


class TestShortlistOfEveryCandidate:
    """k' = |F| runs no kMaxRRST: every candidate goes to the greedy,
    which orders them by facility id anyway."""

    @pytest.mark.parametrize("tree_name, model, k", sorted(_FLEET_GOLDEN, key=str))
    @pytest.mark.parametrize("with_runtime", [False, True])
    def test_fleets_and_counters(
        self, taxi_users, facilities, tree_name, model, k, with_runtime
    ):
        build = build_tq_zorder if tree_name == "TQ(Z)" else build_tq_basic
        tree = build(taxi_users, beta=16)
        spec = ServiceSpec(ServiceModel[model], psi=400.0, normalize=False)
        runtime = QueryRuntime() if with_runtime else None
        result, stats = maxkcov_core(tree, facilities, k, spec, 4, runtime)
        fleet, recorded = _FLEET_GOLDEN[tree_name, model, k]
        assert (result.facility_ids(), result.combined_service, result.users_fully_served) == fleet
        if 4 * k >= len(facilities):
            shortlist = _SHORTLIST_STATS[tree_name, model]
            recorded = tuple(a - b for a, b in zip(recorded, shortlist))
        assert astuple(stats) == recorded
