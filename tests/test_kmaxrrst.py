"""Tests for the best-first kMaxRRST query (Algorithms 3 and 4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import (
    BBox,
    FacilityRoute,
    QueryError,
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
