"""Tests for the BL baseline (point-quadtree range queries)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import (
    BaselineIndex,
    FacilityRoute,
    QueryError,
    ServiceModel,
    ServiceSpec,
    Trajectory,
    brute_force_matches,
    brute_force_service,
    build_tq_basic,
    build_tq_zorder,
    top_k_facilities,
)

from .strategies import facility_sets, psis, trajectory_sets


class TestBaselineIndex:
    def test_build_counts_points(self, taxi_users):
        index = BaselineIndex.build(taxi_users)
        assert index.n_users == len(taxi_users)
        assert index.n_points == sum(u.n_points for u in taxi_users)

    def test_empty_users_rejected(self):
        with pytest.raises(QueryError):
            BaselineIndex.build([])

    def test_duplicate_ids_rejected(self):
        users = [Trajectory(1, [(0, 0), (1, 1)]), Trajectory(1, [(2, 2), (3, 3)])]
        with pytest.raises(QueryError):
            BaselineIndex.build(users)

    def test_negative_psi_rejected(self, taxi_users, facilities):
        index = BaselineIndex.build(taxi_users)
        with pytest.raises(QueryError):
            index.covered_indices(facilities[0], -1.0)

    def test_service_matches_oracle_all_models(self, taxi_users, facilities):
        index = BaselineIndex.build(taxi_users)
        for model in ServiceModel:
            for norm in (True, False):
                spec = ServiceSpec(model, psi=400.0, normalize=norm)
                for f in facilities:
                    assert index.service_value(f, spec) == pytest.approx(
                        brute_force_service(taxi_users, f, spec)
                    )

    def test_service_on_multipoint(self, checkin_users, facilities, count_spec):
        index = BaselineIndex.build(checkin_users)
        for f in facilities:
            assert index.service_value(f, count_spec) == pytest.approx(
                brute_force_service(checkin_users, f, count_spec)
            )

    def test_matches_equal_oracle(self, taxi_users, facilities):
        index = BaselineIndex.build(taxi_users)
        for f in facilities:
            assert index.matches(f, 400.0) == brute_force_matches(
                taxi_users, f, 400.0
            )

    def test_top_k_matches_sorting(self, taxi_users, facilities, endpoint_spec):
        index = BaselineIndex.build(taxi_users)
        result = index.top_k(facilities, 4, endpoint_spec)
        expected = sorted(
            (brute_force_service(taxi_users, f, endpoint_spec) for f in facilities),
            reverse=True,
        )[:4]
        assert list(result.services()) == pytest.approx(expected)

    def test_top_k_invalid_k(self, taxi_users, facilities, endpoint_spec):
        index = BaselineIndex.build(taxi_users)
        with pytest.raises(QueryError):
            index.top_k(facilities, 0, endpoint_spec)

    def test_top_k_ranks_ties_like_the_tree(self, taxi_users, facilities, endpoint_spec):
        """Tied ENDPOINT candidates (twin routes under other ids), out of
        id order: BL ranks the ids TQ(B) and TQ(Z) rank, exact ties by
        lowest facility id; a ``k`` that is no integer is rejected."""
        index = BaselineIndex.build(taxi_users)
        twins = [FacilityRoute(40 - f.facility_id, f.stops) for f in facilities]
        candidates = (twins + list(facilities))[::-1]
        want = index.top_k(candidates, 9, endpoint_spec)
        for build in (build_tq_basic, build_tq_zorder):
            got = top_k_facilities(build(taxi_users, beta=16), candidates, 9, endpoint_spec)
            assert got.facilities() == want.facilities()
            assert got.services() == want.services()
        pairs = [(-fs.service, fs.facility.facility_id) for fs in want.ranking]
        assert pairs[0][0] == pairs[1][0] and pairs == sorted(pairs)
        for k in (2.5, True):
            with pytest.raises(QueryError):
                index.top_k(candidates, k, endpoint_spec)

    def test_facility_outside_space(self, taxi_users, endpoint_spec):
        index = BaselineIndex.build(taxi_users)
        far = FacilityRoute(9, [(10**7, 10**7)])
        assert index.service_value(far, endpoint_spec) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=15, min_points=1, max_points=5),
        facility_sets(min_size=1, max_size=3),
        psis(),
    )
    def test_random_instances_match_oracle(self, users, facs, psi):
        index = BaselineIndex.build(users)
        for model in (ServiceModel.ENDPOINT, ServiceModel.COUNT, ServiceModel.LENGTH):
            spec = ServiceSpec(model, psi=psi, normalize=False)
            for f in facs:
                assert index.service_value(f, spec) == pytest.approx(
                    brute_force_service(users, f, spec)
                )
