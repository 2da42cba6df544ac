"""Unit and property tests for repro.core.service (the oracle layer)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

from repro import (
    CoverageState,
    FacilityRoute,
    Point,
    QueryError,
    ServiceModel,
    ServiceSpec,
    StopSet,
    Trajectory,
    brute_force_combined_service,
    brute_force_matches,
    brute_force_service,
    score_trajectory,
)
from repro.core.service import score_from_indices, served_point_indices

from .strategies import facility_sets, psis, trajectory_sets


def spec(model, psi=10.0, normalize=True):
    return ServiceSpec(model, psi=psi, normalize=normalize)


class TestServiceSpec:
    def test_negative_psi_rejected(self):
        with pytest.raises(QueryError):
            ServiceSpec(ServiceModel.ENDPOINT, psi=-1.0)

    def test_nan_psi_rejected(self):
        with pytest.raises(QueryError):
            ServiceSpec(ServiceModel.ENDPOINT, psi=float("nan"))

    def test_infinite_psi_rejected(self):
        # passed the old `psi >= 0` check, then died inside the walk as
        # GeometryError('non-finite bounding box coordinates')
        with pytest.raises(QueryError, match="finite"):
            ServiceSpec(ServiceModel.ENDPOINT, psi=float("inf"))

    def test_bad_model_rejected(self):
        with pytest.raises(QueryError):
            ServiceSpec("count", psi=1.0)  # type: ignore[arg-type]

    def test_zero_psi_allowed(self):
        assert ServiceSpec(ServiceModel.COUNT, psi=0.0).psi == 0.0


class TestStopSet:
    def test_covers_point_within_psi(self):
        stops = StopSet(np.array([[0.0, 0.0], [10.0, 0.0]]))
        assert stops.covers_point(Point(0, 3), 3.0)
        assert not stops.covers_point(Point(0, 3.1), 3.0)

    def test_boundary_is_inclusive(self):
        stops = StopSet(np.array([[0.0, 0.0]]))
        assert stops.covers_point(Point(3, 4), 5.0)

    def test_empty_covers_nothing(self):
        empty = StopSet(np.zeros((0, 2)))
        assert not empty.covers_point(Point(0, 0), 100.0)
        assert empty.bbox is None
        assert empty.embr(5.0) is None

    def test_covered_mask(self):
        stops = StopSet(np.array([[0.0, 0.0]]))
        mask = stops.covered_mask(np.array([[0.0, 1.0], [0.0, 9.0]]), 2.0)
        assert mask.tolist() == [True, False]

    def test_bad_shape_rejected(self):
        with pytest.raises(QueryError):
            StopSet(np.zeros((3,)))

    def test_restricted_to(self):
        from repro import BBox

        stops = StopSet(np.array([[0.0, 0.0], [10.0, 10.0], [20.0, 20.0]]))
        sub = stops.restricted_to(BBox(5, 5, 15, 15))
        assert sub.n_stops == 1
        assert sub.coords.tolist() == [[10.0, 10.0]]

    def test_bbox(self):
        stops = StopSet(np.array([[1.0, 5.0], [3.0, 2.0]]))
        box = stops.bbox
        assert (box.xmin, box.ymin, box.xmax, box.ymax) == (1, 2, 3, 5)


class TestEndpointModel:
    def test_served_when_both_endpoints_near(self):
        u = Trajectory(0, [(0, 0), (100, 100)])
        f = FacilityRoute(0, [(1, 0), (99, 100)])
        assert score_trajectory(u, StopSet.of_facility(f), spec(ServiceModel.ENDPOINT)) == 1.0

    def test_not_served_when_one_endpoint_far(self):
        u = Trajectory(0, [(0, 0), (100, 100)])
        f = FacilityRoute(0, [(1, 0)])
        assert score_trajectory(u, StopSet.of_facility(f), spec(ServiceModel.ENDPOINT)) == 0.0

    def test_single_point_trajectory(self):
        u = Trajectory(0, [(0, 0)])
        f = FacilityRoute(0, [(1, 0)])
        # start == end, so one nearby stop serves the whole "trip"
        assert score_trajectory(u, StopSet.of_facility(f), spec(ServiceModel.ENDPOINT)) == 1.0

    def test_interior_points_ignored(self):
        u = Trajectory(0, [(0, 0), (500, 500), (100, 0)])
        f = FacilityRoute(0, [(0, 1), (100, 1)])
        assert score_trajectory(u, StopSet.of_facility(f), spec(ServiceModel.ENDPOINT)) == 1.0


class TestCountModel:
    def test_fraction_of_points(self):
        u = Trajectory(0, [(0, 0), (50, 0), (1000, 0), (2000, 0)])
        f = FacilityRoute(0, [(0, 5), (50, 5)])
        s = score_trajectory(u, StopSet.of_facility(f), spec(ServiceModel.COUNT))
        assert s == pytest.approx(0.5)

    def test_raw_count(self):
        u = Trajectory(0, [(0, 0), (50, 0), (1000, 0)])
        f = FacilityRoute(0, [(0, 5), (50, 5)])
        s = score_trajectory(
            u, StopSet.of_facility(f), spec(ServiceModel.COUNT, normalize=False)
        )
        assert s == 2.0

    def test_no_points_served(self):
        u = Trajectory(0, [(0, 0), (10, 0)])
        f = FacilityRoute(0, [(1000, 1000)])
        assert score_trajectory(u, StopSet.of_facility(f), spec(ServiceModel.COUNT)) == 0.0


class TestLengthModel:
    def test_segment_requires_both_endpoints(self):
        u = Trajectory(0, [(0, 0), (30, 0), (1000, 0)])
        f = FacilityRoute(0, [(0, 5), (30, 5)])
        raw = score_trajectory(
            u, StopSet.of_facility(f), spec(ServiceModel.LENGTH, normalize=False)
        )
        assert raw == pytest.approx(30.0)  # only the first segment

    def test_normalized_by_total_length(self):
        u = Trajectory(0, [(0, 0), (30, 0), (90, 0)])
        f = FacilityRoute(0, [(0, 5), (30, 5)])
        s = score_trajectory(u, StopSet.of_facility(f), spec(ServiceModel.LENGTH))
        assert s == pytest.approx(30.0 / 90.0)

    def test_zero_length_trajectory(self):
        u = Trajectory(0, [(5, 5), (5, 5)])
        f = FacilityRoute(0, [(5, 5)])
        assert (
            score_trajectory(u, StopSet.of_facility(f), spec(ServiceModel.LENGTH)) == 0.0
        )


class TestScoreFromIndices:
    def test_matches_direct_scoring(self):
        u = Trajectory(0, [(0, 0), (10, 0), (20, 0)])
        f = FacilityRoute(0, [(0, 1), (20, 1)])
        stops = StopSet.of_facility(f)
        for model in ServiceModel:
            for norm in (True, False):
                sp = spec(model, psi=5.0, normalize=norm)
                idx = served_point_indices(u, stops, sp.psi)
                assert score_from_indices(u, idx, sp) == score_trajectory(u, stops, sp)

    def test_duplicates_in_indices_are_harmless(self):
        u = Trajectory(0, [(0, 0), (10, 0)])
        sp = spec(ServiceModel.COUNT, normalize=False)
        assert score_from_indices(u, [0, 0, 0], sp) == 1.0


class TestCoverageState:
    def _users(self):
        return [
            Trajectory(0, [(0, 0), (100, 0)]),
            Trajectory(1, [(200, 0), (300, 0)]),
        ]

    def test_cross_facility_endpoint_coverage(self):
        """The Lemma-1 situation: start served by one facility, end by
        another — combined state counts the user."""
        users = self._users()
        state = CoverageState(users, spec(ServiceModel.ENDPOINT, psi=5.0))
        state.add({0: (0,)})
        assert state.value == 0.0
        state.add({0: (1,)})
        assert state.value == 1.0
        assert state.users_fully_served() == 1

    def test_gain_without_mutation(self):
        users = self._users()
        state = CoverageState(users, spec(ServiceModel.COUNT, psi=5.0, normalize=False))
        g = state.gain({0: (0, 1)})
        assert g == 2.0
        assert state.value == 0.0  # unchanged

    def test_add_returns_realised_gain(self):
        users = self._users()
        state = CoverageState(users, spec(ServiceModel.COUNT, psi=5.0, normalize=False))
        assert state.add({0: (0,)}) == 1.0
        assert state.add({0: (0,)}) == 0.0  # idempotent
        assert state.value == 1.0

    def test_unknown_user_rejected(self):
        state = CoverageState(self._users(), spec(ServiceModel.COUNT))
        with pytest.raises(QueryError):
            state.gain({99: (0,)})
        with pytest.raises(QueryError):
            state.add({99: (0,)})

    def test_duplicate_user_ids_rejected(self):
        users = [Trajectory(0, [(0, 0)]), Trajectory(0, [(1, 1)])]
        with pytest.raises(QueryError):
            CoverageState(users, spec(ServiceModel.COUNT))

    def test_copy_is_independent(self):
        state = CoverageState(self._users(), spec(ServiceModel.COUNT, normalize=False))
        state.add({0: (0,)})
        clone = state.copy()
        clone.add({0: (1,)})
        assert state.value == 1.0
        assert clone.value == 2.0

    def test_copy_isolates_covered_sets_both_directions(self):
        """The clone must not share per-user index sets with the
        original: mutations on either side stay invisible to the other
        (the branch-and-bound search relies on this)."""
        state = CoverageState(self._users(), spec(ServiceModel.COUNT, normalize=False))
        state.add({0: (0,), 1: (0,)})
        clone = state.copy()
        clone.add({0: (1,)})  # touches a set the original also holds
        assert state.covered_indices(0) == frozenset({0})
        assert clone.covered_indices(0) == frozenset({0, 1})
        state.add({1: (1,)})  # and the other way round
        assert clone.covered_indices(1) == frozenset({0})
        assert state.covered_indices(1) == frozenset({0, 1})
        assert state.value == 3.0
        assert clone.value == 3.0

    def test_new_coverage_count_on_overlapping_matches(self):
        """Only genuinely new (user, point) slots count; slots already
        covered — the overlap — contribute nothing."""
        users = self._users()
        state = CoverageState(users, spec(ServiceModel.COUNT, normalize=False))
        assert state.new_coverage_count({0: (0,), 1: (0, 1)}) == 3  # untouched users
        state.add({0: (0,), 1: (0,)})
        # user 0: index 0 already covered, index 1 new; user 1: both old
        assert state.new_coverage_count({0: (0, 1), 1: (0,)}) == 1
        assert state.new_coverage_count({0: (0,), 1: (0,)}) == 0
        # duplicated indices in the candidate count once
        assert state.new_coverage_count({0: (1, 1, 1)}) == 1
        # pricing must not mutate the state
        assert state.covered_indices(0) == frozenset({0})
        assert state.value == 2.0

    def test_new_coverage_count_unknown_user_rejected(self):
        state = CoverageState(self._users(), spec(ServiceModel.COUNT))
        with pytest.raises(QueryError):
            state.new_coverage_count({99: (0,)})

    def test_length_coverage_combines_segments(self):
        u = Trajectory(0, [(0, 0), (60, 0)])
        state = CoverageState([u], spec(ServiceModel.LENGTH, psi=5.0, normalize=False))
        state.add({0: (0,)})
        assert state.value == 0.0
        state.add({0: (1,)})
        assert state.value == pytest.approx(60.0)


class TestBruteForce:
    def test_service_sums_over_users(self):
        users = [
            Trajectory(0, [(0, 0), (10, 0)]),
            Trajectory(1, [(0, 0), (500, 0)]),
        ]
        f = FacilityRoute(0, [(0, 1), (10, 1)])
        assert brute_force_service(users, f, spec(ServiceModel.ENDPOINT, psi=5.0)) == 1.0

    def test_matches_only_served_users(self):
        users = [
            Trajectory(0, [(0, 0), (10, 0)]),
            Trajectory(1, [(900, 900), (950, 950)]),
        ]
        f = FacilityRoute(0, [(0, 1)])
        got = brute_force_matches(users, f, 5.0)
        assert got == {0: (0,)}

    def test_combined_service_empty_facilities(self):
        users = [Trajectory(0, [(0, 0), (10, 0)])]
        assert brute_force_combined_service(users, [], spec(ServiceModel.ENDPOINT)) == 0.0

    @given(trajectory_sets(max_size=8), facility_sets(max_size=4), psis())
    def test_combined_at_least_best_single(self, users, facs, psi):
        """Union coverage dominates every single facility's coverage."""
        sp = ServiceSpec(ServiceModel.COUNT, psi=psi, normalize=False)
        combined = brute_force_combined_service(users, facs, sp)
        for f in facs:
            assert combined >= brute_force_service(users, f, sp) - 1e-9

    @given(trajectory_sets(max_size=8), facility_sets(max_size=3), psis())
    def test_coverage_state_matches_brute_force(self, users, facs, psi):
        """Adding every facility's exact matches reproduces SO(U, F')."""
        for model in (ServiceModel.ENDPOINT, ServiceModel.COUNT, ServiceModel.LENGTH):
            sp = ServiceSpec(model, psi=psi, normalize=False)
            state = CoverageState(users, sp)
            for f in facs:
                state.add(brute_force_matches(users, f, psi))
            expected = brute_force_combined_service(users, facs, sp)
            assert state.value == pytest.approx(expected)
