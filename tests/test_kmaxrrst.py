"""Tests for the best-first kMaxRRST query (Algorithms 3 and 4)."""

from __future__ import annotations

import hashlib
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings

from repro import (
    BBox,
    FacilityRoute,
    ProximityBackend,
    QueryError,
    QueryRuntime,
    QueryStats,
    RuntimeConfig,
    ServiceModel,
    ServiceSpec,
    TQTree,
    TQTreeConfig,
    Trajectory,
    brute_force_service,
    build_full,
    build_segmented,
    build_tq_basic,
    build_tq_zorder,
    evaluate_service,
)
from repro.datasets import generate_bus_routes, generate_taxi_trips
from repro.queries import kmaxrrst as kmaxrrst_module
from repro.queries import top_k_facilities

from .strategies import WORLD, facility_sets, psis, trajectory_sets


def exhaustive_ranking(users, facilities, spec):
    """Reference ranking by brute-force service value."""
    return sorted(
        ((brute_force_service(users, f, spec), f.facility_id) for f in facilities),
        key=lambda t: (-t[0], t[1]),
    )


def assert_topk_valid(result, users, facilities, spec, k):
    """The returned scores must be exact and no unreturned facility may
    beat a returned one (ties make the exact id set ambiguous)."""
    assert len(result.ranking) == min(k, len(facilities))
    scores = [fs.service for fs in result.ranking]
    assert scores == sorted(scores, reverse=True)
    for fs in result.ranking:
        assert fs.service == pytest.approx(
            brute_force_service(users, fs.facility, spec)
        )
    if result.ranking:
        cutoff = result.ranking[-1].service
        returned = {fs.facility.facility_id for fs in result.ranking}
        for f in facilities:
            if f.facility_id not in returned:
                assert brute_force_service(users, f, spec) <= cutoff + 1e-9


class TestTopK:
    @pytest.mark.parametrize("k", [1, 3, 12, 100])
    def test_matches_exhaustive_on_fixture(self, taxi_users, facilities, endpoint_spec, k):
        tree = build_tq_zorder(taxi_users, beta=16)
        result = top_k_facilities(tree, facilities, k, endpoint_spec)
        assert_topk_valid(result, taxi_users, facilities, endpoint_spec, k)

    def test_tq_basic_same_answer(self, taxi_users, facilities, endpoint_spec):
        tz = build_tq_zorder(taxi_users, beta=16)
        tb = build_tq_basic(taxi_users, beta=16)
        rz = top_k_facilities(tz, facilities, 5, endpoint_spec)
        rb = top_k_facilities(tb, facilities, 5, endpoint_spec)
        assert rz.services() == pytest.approx(rb.services())

    def test_count_model_on_segmented(self, checkin_users, facilities, count_spec):
        tree = build_segmented(checkin_users, beta=16)
        result = top_k_facilities(tree, facilities, 4, count_spec)
        assert_topk_valid(result, checkin_users, facilities, count_spec, 4)

    def test_length_model_on_full(self, checkin_users, facilities, length_spec):
        tree = build_full(checkin_users, beta=16)
        result = top_k_facilities(tree, facilities, 4, length_spec)
        assert_topk_valid(result, checkin_users, facilities, length_spec, 4)

    def test_raw_count_model_on_full(self, checkin_users, facilities):
        spec = ServiceSpec(ServiceModel.COUNT, psi=400.0, normalize=False)
        tree = build_full(checkin_users, beta=16)
        result = top_k_facilities(tree, facilities, 6, spec)
        assert_topk_valid(result, checkin_users, facilities, spec, 6)

    def test_k_larger_than_facilities(self, taxi_users, facilities, endpoint_spec):
        tree = build_tq_zorder(taxi_users, beta=16)
        result = top_k_facilities(tree, facilities, 999, endpoint_spec)
        assert len(result.ranking) == len(facilities)

    def test_invalid_k(self, taxi_users, facilities, endpoint_spec):
        tree = build_tq_zorder(taxi_users, beta=16)
        with pytest.raises(QueryError):
            top_k_facilities(tree, facilities, 0, endpoint_spec)
        with pytest.raises(QueryError):
            top_k_facilities(tree, facilities, -2, endpoint_spec)

    def test_empty_facility_list_rejected(self, taxi_users, endpoint_spec):
        # an empty candidate set is a malformed query, not an empty
        # ranking (the serving-layer hardening fix: over HTTP the old
        # behaviour was a 200 with an empty answer)
        tree = build_tq_zorder(taxi_users, beta=16)
        with pytest.raises(QueryError, match="facilities must be non-empty"):
            top_k_facilities(tree, [], 3, endpoint_spec)

    def test_facility_serving_nothing_ranks_zero(self, taxi_users, endpoint_spec):
        tree = build_tq_zorder(taxi_users, beta=16)
        far = FacilityRoute(0, [(10**6, 10**6), (10**6 + 10, 10**6)])
        result = top_k_facilities(tree, [far], 1, endpoint_spec)
        assert result.services() == (0.0,)

    def test_result_accessors(self, taxi_users, facilities, endpoint_spec):
        tree = build_tq_zorder(taxi_users, beta=16)
        result = top_k_facilities(tree, facilities, 3, endpoint_spec)
        assert len(result.facilities()) == 3
        assert len(result.services()) == 3
        assert result.stats.states_relaxed >= 0


class TestBestFirstBehaviour:
    def test_best_first_explores_fewer_nodes_than_full_eval(
        self, taxi_users, facilities, endpoint_spec
    ):
        """For k=1 the search should not fully evaluate every facility."""
        from repro.queries import QueryStats, evaluate_service

        tree = build_tq_zorder(taxi_users, beta=16)
        top1 = top_k_facilities(tree, facilities, 1, endpoint_spec)
        full_stats = QueryStats()
        for f in facilities:
            evaluate_service(tree, f, endpoint_spec, stats=full_stats)
        assert top1.stats.nodes_visited <= full_stats.nodes_visited

    def test_deterministic_across_runs(self, taxi_users, facilities, endpoint_spec):
        tree = build_tq_zorder(taxi_users, beta=16)
        a = top_k_facilities(tree, facilities, 4, endpoint_spec)
        b = top_k_facilities(tree, facilities, 4, endpoint_spec)
        assert [f.facility_id for f in a.facilities()] == [
            f.facility_id for f in b.facilities()
        ]


class TestPropertyTopK:
    @settings(max_examples=25, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=15, min_points=2, max_points=2),
        facility_sets(min_size=1, max_size=6),
        psis(),
    )
    def test_random_endpoint_instances(self, users, facs, psi):
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=psi)
        for use_zorder in (True, False):
            tree = TQTree.build(
                users, TQTreeConfig(beta=3, use_zorder=use_zorder), space=WORLD
            )
            result = top_k_facilities(tree, facs, 3, spec)
            assert_topk_valid(result, users, facs, spec, 3)

    @settings(max_examples=20, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=12, min_points=2, max_points=5),
        facility_sets(min_size=1, max_size=4),
        psis(),
    )
    def test_random_multipoint_instances(self, users, facs, psi):
        spec = ServiceSpec(ServiceModel.COUNT, psi=psi, normalize=False)
        for builder in (build_segmented, build_full):
            tree = builder(users, beta=3, space=WORLD)
            result = top_k_facilities(tree, facs, 2, spec)
            assert_topk_valid(result, users, facs, spec, 2)


#: The anchor regression's space: both split lines of the root at 500.
SPLIT_WORLD = BBox(0, 0, 1000, 1000)


def _quadrant_fillers():
    """Three short trips inside each quadrant of ``SPLIT_WORLD``, far
    from its split lines."""
    return [
        Trajectory(100 + 3 * q + j, [(x + 20 * j, y), (x + 20 * j, y + 30)])
        for q, (x, y) in enumerate([(100, 100), (700, 100), (100, 700), (700, 700)])
        for j in range(3)
    ]


class TestAnchorOnASplitLine:
    @pytest.mark.parametrize(
        "user", [[(500, 100), (500, 120)], [(499.5, 100), (500, 120)]],
        ids=["routed-east", "straddling"],
    )
    @pytest.mark.parametrize("use_zorder", [False, True], ids=["TQ(B)", "TQ(Z)"])
    def test_anchor_follows_the_routing_rule(self, user, use_zorder):
        """The serving envelope ``(480, 90, 500, 130)`` ends on the root's
        split line ``x = 500``.  Closed containment anchored it in the
        west child, but the routing rule sends a box reaching ``x = 500``
        east (``>=``): the user on the line sits in the east child, the
        straddling one at the root, and both were ranked 0.  Anchored by
        the routing rule, kMaxRRST == evaluate-all == the oracle."""
        users = _quadrant_fillers() + [Trajectory(0, user)]
        config = TQTreeConfig(beta=2, use_zorder=use_zorder)
        tree = TQTree.build(users, config, space=SPLIT_WORLD)
        facility = FacilityRoute(0, [(490, 100), (490, 120)])
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=10.0)
        want = brute_force_service(users, facility, spec)
        assert want == 1.0
        assert evaluate_service(tree, facility, spec) == want
        assert top_k_facilities(tree, [facility], 1, spec).services() == (want,)


#: The counters of exact distance work: a node whose value a warm
#: runtime knows probes nothing, so these may only drop.
_PROBE_FIELDS = ("points_scanned", "distance_evals", "cells_probed")


@pytest.mark.engine_smoke
@pytest.mark.parametrize("builder", [build_tq_zorder, build_tq_basic])
def test_warm_rankings_break_ties_like_cold_ones(city, builder):
    """Random ENDPOINT and raw COUNT instances, most with tied services,
    ranked on a cold, a partly warm (some candidates evaluated first)
    and a fully warm runtime: the ``FacilityScore`` tuples ``==`` those
    with no runtime, every ``QueryStats`` field ``==`` but
    ``cache_hits``, and the probe counters no higher.

    Complete states with equal ``fserve`` pop in the order they were
    pushed complete, so a warm state must still complete round by round:
    one pushed complete at init would order its ties by candidate
    order.  The no-runtime rankings are pinned by their sha1, recorded
    while every relax round still scored its own frontier."""
    rng = np.random.default_rng(17)
    tree = builder(generate_taxi_trips(300, city, seed=4))
    pool = generate_bus_routes(40, city, seed=8, n_stops=6)
    tied, rankings = 0, []
    for _ in range(30):
        candidates = [pool[i] for i in rng.choice(len(pool), size=12, replace=False)]
        model = (ServiceModel.ENDPOINT, ServiceModel.COUNT)[int(rng.integers(2))]
        spec = ServiceSpec(model, psi=float(rng.choice([250.0, 400.0])), normalize=False)
        k = int(rng.integers(1, 8))
        want = top_k_facilities(tree, candidates, k, spec)
        rankings.append([(fs.facility.facility_id, fs.service) for fs in want.ranking])
        services = want.services()
        tied += len(set(services)) < len(services)
        for warm_share in (0.0, 0.5, 1.0):
            with QueryRuntime() as runtime:
                for f in candidates:
                    if rng.random() < warm_share:
                        evaluate_service(tree, f, spec, runtime=runtime)
                got = top_k_facilities(tree, candidates, k, spec, runtime=runtime)
            assert got.ranking == want.ranking
            for field in fields(QueryStats):
                value, cold = getattr(got.stats, field.name), getattr(want.stats, field.name)
                if field.name in _PROBE_FIELDS:
                    assert value <= cold, field.name
                elif field.name != "cache_hits":
                    assert value == cold, field.name
    assert tied >= 10, tied
    digest = hashlib.sha1(repr(rankings).encode()).hexdigest()
    assert digest == "b7afa3cc19f827235bfe9f1b70e30a7490c7ccf6"



# ----------------------------------------------------------------------
# a cold state is walked once
# ----------------------------------------------------------------------
#: A cold ``top_k_facilities`` with k = |F| (every state completes) per
#: (tree, model, runtime backend or None): the first 12 hex digits of
#: the sha1 of its ``(facility_id, service)`` ranking and its
#: ``QueryStats`` as a tuple, recorded while every relax round still
#: scored its own frontier.  Scoring a state's whole walk at its first
#: relax and replaying the rounds must count exactly this.
_COLD_GOLDEN = {
    ("TQ(Z)", "ENDPOINT", None): ("7ffab09d5ff1", (85, 4657, 905, 48, 0, 1810, 28960, 0, 0)),
    ("TQ(Z)", "ENDPOINT", "AUTO"): ("7ffab09d5ff1", (85, 4657, 905, 48, 0, 1810, 28960, 0, 0)),
    ("TQ(Z)", "ENDPOINT", "GRID"): ("7ffab09d5ff1", (85, 4657, 905, 48, 0, 1355, 3228, 2843, 0)),
    ("TQ(Z)", "ENDPOINT", "CELLSTRING"): ("7ffab09d5ff1", (85, 4657, 905, 48, 0, 1476, 589, 389, 0)),
    ("TQ(Z)", "COUNT", None): ("b150335dab66", (85, 4657, 3494, 48, 0, 6988, 111808, 0, 0)),
    ("TQ(Z)", "COUNT", "AUTO"): ("b150335dab66", (85, 4657, 3494, 48, 0, 6988, 111808, 0, 0)),
    ("TQ(B)", "ENDPOINT", None): ("7ffab09d5ff1", (85, 4657, 997, 48, 0, 1994, 31904, 0, 0)),
    ("TQ(B)", "ENDPOINT", "AUTO"): ("7ffab09d5ff1", (85, 4657, 997, 48, 0, 1994, 31904, 0, 0)),
    ("TQ(B)", "COUNT", None): ("b150335dab66", (85, 4657, 3936, 48, 0, 7872, 125952, 0, 0)),
    ("TQ(B)", "COUNT", "AUTO"): ("b150335dab66", (85, 4657, 3936, 48, 0, 7872, 125952, 0, 0)),
    ("F-TQ(Z)", "COUNT", None): ("ccfe0137b38d", (58, 1742, 1546, 36, 0, 8671, 138736, 0, 0)),
    ("F-TQ(Z)", "COUNT", "AUTO"): ("ccfe0137b38d", (58, 1742, 1546, 36, 0, 8671, 138736, 0, 0)),
    ("F-TQ(Z)", "COUNT", "GRID"): ("ccfe0137b38d", (58, 1742, 1546, 36, 0, 2206, 5686, 4881, 0)),
    ("F-TQ(Z)", "COUNT", "CELLSTRING"): ("ccfe0137b38d", (58, 1742, 1546, 36, 0, 2579, 1039, 679, 0)),
    ("F-TQ(Z)", "LENGTH", None): ("042061a3ea20", (58, 1742, 1546, 36, 0, 8671, 138736, 0, 0)),
    ("F-TQ(Z)", "LENGTH", "AUTO"): ("042061a3ea20", (58, 1742, 1546, 36, 0, 8671, 138736, 0, 0)),
    ("F-TQ(B)", "COUNT", None): ("ccfe0137b38d", (58, 1742, 1546, 36, 0, 8671, 138736, 0, 0)),
    ("F-TQ(B)", "COUNT", "AUTO"): ("ccfe0137b38d", (58, 1742, 1546, 36, 0, 8671, 138736, 0, 0)),
    ("F-TQ(B)", "LENGTH", None): ("042061a3ea20", (58, 1742, 1546, 36, 0, 8671, 138736, 0, 0)),
    ("F-TQ(B)", "LENGTH", "AUTO"): ("042061a3ea20", (58, 1742, 1546, 36, 0, 8671, 138736, 0, 0)),
}

_COLD_TREES = {
    "TQ(Z)": lambda taxi, chk: build_tq_zorder(taxi, beta=16),
    "TQ(B)": lambda taxi, chk: build_tq_basic(taxi, beta=16),
    "F-TQ(Z)": lambda taxi, chk: build_full(chk, beta=16),
    "F-TQ(B)": lambda taxi, chk: build_full(chk, beta=16, use_zorder=False),
}


def _ranking_digest(result) -> str:
    pairs = [(fs.facility.facility_id, fs.service) for fs in result.ranking]
    return hashlib.sha1(repr(pairs).encode()).hexdigest()


def _cold_runtime(backend):
    return None if backend is None else QueryRuntime(RuntimeConfig(backend=ProximityBackend[backend]))


@pytest.mark.parametrize("tree_name, model, backend", sorted(_COLD_GOLDEN, key=str))
def test_a_complete_cold_state_counts_what_round_by_round_scoring_counted(
    taxi_users, checkin_users, facilities, tree_name, model, backend
):
    tree = _COLD_TREES[tree_name](taxi_users, checkin_users)
    spec = ServiceSpec(ServiceModel[model], psi=400.0, normalize=False)
    result = top_k_facilities(
        tree, facilities, len(facilities), spec, runtime=_cold_runtime(backend)
    )
    digest, stats = _COLD_GOLDEN[tree_name, model, backend]
    assert (_ranking_digest(result)[:12], astuple(result.stats)) == (digest, stats)


@pytest.mark.engine_smoke
@pytest.mark.parametrize("tree_name, model", [("TQ(Z)", "ENDPOINT"), ("F-TQ(Z)", "COUNT")])
def test_a_cold_state_probes_once_and_leaves_its_script(
    taxi_users, checkin_users, facilities, probe_calls, tree_name, model
):
    """A cold state probes at most once for its ancestor scan and once
    for its whole walk; a state that ran leaves its level script on its
    walk record, so the same query again probes nothing."""
    tree = _COLD_TREES[tree_name](taxi_users, checkin_users)
    spec = ServiceSpec(ServiceModel[model], psi=400.0, normalize=False)
    column = (spec.model, spec.normalize)
    with QueryRuntime() as runtime:
        for facility in facilities:
            stats = QueryStats()
            del probe_calls[:]
            state = kmaxrrst_module._initial_state(tree, facility, spec, stats, runtime)
            assert len(probe_calls) <= 1
            del probe_calls[:]
            while not state.complete:
                state = kmaxrrst_module._relax_state(tree, state, spec, stats, runtime)
            assert len(probe_calls) <= 1
            assert state.aserve == evaluate_service(tree, facility, spec)
        runtime.cache.clear()
        del probe_calls[:]
        cold = top_k_facilities(tree, facilities, len(facilities), spec, runtime=runtime)
        assert len(probe_calls) <= 2 * len(facilities)
        records = runtime.cache._records.values()
        assert len(records) == len(facilities)
        assert all(column in record.scripts for record in records)
        del probe_calls[:]
        warm = top_k_facilities(tree, facilities, len(facilities), spec, runtime=runtime)
        assert probe_calls == []
    assert warm.ranking == cold.ranking


@pytest.mark.parametrize("k", [1, 3])
def test_every_relaxed_state_leaves_its_script(taxi_users, facilities, k):
    """With k < |F| a state left incomplete has scored its whole walk
    at its first relax too: every state that relaxed leaves a script,
    and a state never relaxed leaves none."""
    tree = build_tq_zorder(taxi_users, beta=16)
    spec = ServiceSpec(ServiceModel.COUNT, psi=400.0, normalize=False)
    with QueryRuntime() as runtime:
        result = top_k_facilities(tree, facilities, k, spec, runtime=runtime)
        scripted = {key[0] for key, r in runtime.cache._records.items() if r.scripts}
    assert {f.facility_id for f in result.facilities()} <= scripted
    assert len(scripted) <= result.stats.states_relaxed
