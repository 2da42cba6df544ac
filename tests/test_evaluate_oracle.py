"""Oracle tests: every indexed evaluator must equal brute force.

This is the correctness gate for the whole reproduction: TQ(B), TQ(Z),
all three variants, all three service models, normalised and raw — each
compared against the index-free reference implementation on both fixture
data and hypothesis-generated adversarial data.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import (
    IndexVariant,
    QueryError,
    ServiceModel,
    ServiceSpec,
    TQTree,
    TQTreeConfig,
    brute_force_matches,
    brute_force_service,
    build_full,
    build_segmented,
    build_tq_basic,
    build_tq_zorder,
)
from repro.queries import QueryStats, evaluate_service, walk_matches

from .strategies import WORLD, facility_sets, psis, trajectory_sets

ALL_SPECS = [
    ServiceSpec(ServiceModel.ENDPOINT, psi=400.0),
    ServiceSpec(ServiceModel.COUNT, psi=400.0, normalize=True),
    ServiceSpec(ServiceModel.COUNT, psi=400.0, normalize=False),
    ServiceSpec(ServiceModel.LENGTH, psi=400.0, normalize=True),
    ServiceSpec(ServiceModel.LENGTH, psi=400.0, normalize=False),
]


def _compatible(spec: ServiceSpec, variant: IndexVariant, users) -> bool:
    if spec.model is ServiceModel.ENDPOINT and variant is IndexVariant.SEGMENTED:
        return False
    if (
        spec.model is not ServiceModel.ENDPOINT
        and variant is IndexVariant.ENDPOINT
        and any(u.n_points > 2 for u in users)
    ):
        return False
    return True


class TestFixtureOracle:
    """Exhaustive comparison on the deterministic fixture city."""

    @pytest.mark.parametrize("use_zorder", [True, False], ids=["TQ(Z)", "TQ(B)"])
    def test_endpoint_data_all_specs(self, taxi_users, facilities, use_zorder):
        tree = TQTree.build(
            taxi_users, TQTreeConfig(beta=16, use_zorder=use_zorder)
        )
        for spec in ALL_SPECS:
            for f in facilities:
                expected = brute_force_service(taxi_users, f, spec)
                got = evaluate_service(tree, f, spec)
                assert got == pytest.approx(expected), (spec, f.facility_id)

    @pytest.mark.parametrize("use_zorder", [True, False], ids=["S-TQ(Z)", "S-TQ(B)"])
    def test_segmented_multipoint(self, checkin_users, facilities, use_zorder):
        tree = build_segmented(checkin_users, beta=16, use_zorder=use_zorder)
        for spec in ALL_SPECS:
            if spec.model is ServiceModel.ENDPOINT:
                continue
            for f in facilities:
                expected = brute_force_service(checkin_users, f, spec)
                got = evaluate_service(tree, f, spec)
                assert got == pytest.approx(expected), (spec, f.facility_id)

    @pytest.mark.parametrize("use_zorder", [True, False], ids=["F-TQ(Z)", "F-TQ(B)"])
    def test_full_multipoint(self, checkin_users, facilities, use_zorder):
        tree = build_full(checkin_users, beta=16, use_zorder=use_zorder)
        for spec in ALL_SPECS:
            for f in facilities:
                expected = brute_force_service(checkin_users, f, spec)
                got = evaluate_service(tree, f, spec)
                assert got == pytest.approx(expected), (spec, f.facility_id)

    def test_match_collection_equals_brute_force(self, taxi_users, facilities):
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=400.0)
        for builder in (build_tq_zorder, build_tq_basic):
            tree = builder(taxi_users, beta=16)
            for f in facilities:
                matches, _stats = walk_matches(tree, f, spec.psi)
                assert matches.as_dict() == brute_force_matches(
                    taxi_users, f, spec.psi
                )

    def test_match_collection_multipoint(self, checkin_users, facilities):
        spec = ServiceSpec(ServiceModel.COUNT, psi=400.0)
        for builder in (build_segmented, build_full):
            tree = builder(checkin_users, beta=16)
            for f in facilities:
                matches, _stats = walk_matches(tree, f, spec.psi)
                assert matches.as_dict() == brute_force_matches(
                    checkin_users, f, spec.psi
                )


class TestEdgeCases:
    def test_facility_outside_space(self, taxi_users):
        from repro import FacilityRoute

        tree = build_tq_zorder(taxi_users, beta=16)
        far = FacilityRoute(0, [(10**6, 10**6)])
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=100.0)
        assert evaluate_service(tree, far, spec) == 0.0

    def test_psi_zero(self, taxi_users, facilities):
        tree = build_tq_zorder(taxi_users, beta=16)
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=0.0)
        for f in facilities[:3]:
            assert evaluate_service(tree, f, spec) == pytest.approx(
                brute_force_service(taxi_users, f, spec)
            )

    def test_huge_psi_serves_everyone(self, taxi_users, facilities):
        tree = build_tq_zorder(taxi_users, beta=16)
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=10**6)
        assert evaluate_service(tree, facilities[0], spec) == len(taxi_users)

    def test_incompatible_spec_rejected(self, checkin_users):
        tree = build_tq_zorder(
            checkin_users, beta=16, variant=IndexVariant.ENDPOINT
        )
        with pytest.raises(QueryError):
            evaluate_service(tree, None, ServiceSpec(ServiceModel.COUNT, psi=1.0))

    def test_stats_counters_populate(self, taxi_users, facilities):
        tree = build_tq_zorder(taxi_users, beta=16)
        stats = QueryStats()
        evaluate_service(
            tree, facilities[0], ServiceSpec(ServiceModel.ENDPOINT, psi=400.0),
            stats=stats,
        )
        assert stats.nodes_visited >= 1

    def test_zreduce_prunes_most_entries(self, taxi_users, facilities):
        """The pruning-effectiveness claim behind Figure 6: zReduce
        exact-checks only a small fraction of the entries stored in the
        visited nodes (TQ(B) must touch every one of them)."""
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=200.0)
        tree = build_tq_zorder(taxi_users, beta=16)
        stats = QueryStats()
        for f in facilities:
            evaluate_service(tree, f, spec, stats=stats)
        assert stats.entries_scored < stats.entries_considered
        assert stats.entries_scored <= 0.5 * stats.entries_considered


class TestPropertyOracle:
    """Hypothesis-driven adversarial comparison."""

    @settings(max_examples=30, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=20, min_points=2, max_points=2),
        facility_sets(min_size=1, max_size=3),
        psis(),
    )
    def test_endpoint_variant_random(self, users, facs, psi):
        for use_zorder in (True, False):
            tree = TQTree.build(
                users,
                TQTreeConfig(beta=3, use_zorder=use_zorder),
                space=WORLD,
            )
            for model in (ServiceModel.ENDPOINT, ServiceModel.COUNT, ServiceModel.LENGTH):
                spec = ServiceSpec(model, psi=psi, normalize=False)
                for f in facs:
                    assert evaluate_service(tree, f, spec) == pytest.approx(
                        brute_force_service(users, f, spec)
                    )

    @settings(max_examples=30, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=15, min_points=1, max_points=6),
        facility_sets(min_size=1, max_size=3),
        psis(),
    )
    def test_multipoint_variants_random(self, users, facs, psi):
        for variant in (IndexVariant.SEGMENTED, IndexVariant.FULL):
            for use_zorder in (True, False):
                tree = TQTree.build(
                    users,
                    TQTreeConfig(beta=3, variant=variant, use_zorder=use_zorder),
                    space=WORLD,
                )
                for spec in ALL_SPECS:
                    if not _compatible(spec, variant, users):
                        continue
                    spec = ServiceSpec(spec.model, psi=psi, normalize=spec.normalize)
                    for f in facs:
                        assert evaluate_service(tree, f, spec) == pytest.approx(
                            brute_force_service(users, f, spec)
                        ), (variant, spec)

    @settings(max_examples=25, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=12, min_points=2, max_points=5),
        facility_sets(min_size=1, max_size=2),
        psis(),
    )
    def test_match_collection_random(self, users, facs, psi):
        for variant in (IndexVariant.SEGMENTED, IndexVariant.FULL):
            tree = TQTree.build(
                users, TQTreeConfig(beta=3, variant=variant), space=WORLD
            )
            for f in facs:
                matches, _stats = walk_matches(tree, f, psi)
                assert matches.as_dict() == brute_force_matches(users, f, psi)
