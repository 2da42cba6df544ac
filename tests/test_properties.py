"""Cross-cutting property tests: invariants that tie the layers together.

These go beyond per-module tests: they assert relationships *between*
components (bulk build vs incremental inserts, TQ(B) vs TQ(Z), query
monotonicity) on adversarial hypothesis-generated inputs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CoverageState,
    IndexVariant,
    ServiceModel,
    ServiceSpec,
    TQTree,
    TQTreeConfig,
    brute_force_combined_service,
    brute_force_matches,
    brute_force_service,
    evaluate_service,
    top_k_facilities,
)
from repro.index.stats import storage_report

from .strategies import WORLD, facility_sets, psis, trajectory_sets


class TestBuildEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        trajectory_sets(min_size=2, max_size=25, min_points=2, max_points=4),
        facility_sets(min_size=1, max_size=3),
        psis(),
        st.integers(min_value=1, max_value=20),
    )
    def test_incremental_equals_bulk_answers(self, users, facs, psi, split):
        """A tree built by inserts answers every query identically to a
        bulk-built tree over the same data."""
        split = min(split, len(users))
        cfg = TQTreeConfig(beta=3, variant=IndexVariant.FULL)
        bulk = TQTree.build(users, cfg, space=WORLD)
        inc = TQTree.build(users[:split], cfg, space=WORLD)
        for u in users[split:]:
            inc.insert(u)
        spec = ServiceSpec(ServiceModel.COUNT, psi=psi, normalize=False)
        for f in facs:
            assert evaluate_service(inc, f, spec) == pytest.approx(
                evaluate_service(bulk, f, spec)
            )

    @settings(max_examples=20, deadline=None)
    @given(trajectory_sets(min_size=1, max_size=30, min_points=2, max_points=4))
    def test_incremental_storage_invariant(self, users):
        cfg = TQTreeConfig(beta=3, variant=IndexVariant.SEGMENTED)
        inc = TQTree(WORLD, cfg)
        for u in users:
            inc.insert(u)
        report = storage_report(inc)
        assert report.stores_each_entry_once


class TestZOrderEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=25, min_points=2, max_points=2),
        facility_sets(min_size=1, max_size=3),
        psis(),
    )
    def test_tqb_and_tqz_identical_scores(self, users, facs, psi):
        """z-ordering is a pure access-path optimisation: TQ(B) and
        TQ(Z) must produce bit-identical service sums (same entries;
        ENDPOINT scores are whole numbers, so no order of adding them
        can round)."""
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=psi)
        tb = TQTree.build(users, TQTreeConfig(beta=3, use_zorder=False), space=WORLD)
        tz = TQTree.build(users, TQTreeConfig(beta=3, use_zorder=True), space=WORLD)
        for f in facs:
            assert evaluate_service(tb, f, spec) == evaluate_service(tz, f, spec)


class TestQueryMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=15, min_points=2, max_points=2),
        facility_sets(min_size=2, max_size=6),
        psis(),
    )
    def test_topk_scores_prefix_stable(self, users, facs, psi):
        """The score sequence of top-k is a prefix of top-(k+1)'s."""
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=psi)
        tree = TQTree.build(users, TQTreeConfig(beta=3), space=WORLD)
        small = top_k_facilities(tree, facs, 2, spec).services()
        large = top_k_facilities(tree, facs, 3, spec).services()
        assert large[: len(small)] == pytest.approx(small)

    @settings(max_examples=20, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=12, min_points=2, max_points=3),
        facility_sets(min_size=2, max_size=5),
        psis(),
    )
    def test_combined_service_monotone_in_facilities(self, users, facs, psi):
        """Adding a facility never reduces combined service (monotonicity,
        the property the exact solver's bound relies on)."""
        spec = ServiceSpec(ServiceModel.COUNT, psi=psi, normalize=False)
        prev = 0.0
        for i in range(1, len(facs) + 1):
            value = brute_force_combined_service(users, facs[:i], spec)
            assert value >= prev - 1e-9
            prev = value

    @settings(max_examples=20, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=12, min_points=2, max_points=2),
        facility_sets(min_size=1, max_size=4),
        st.tuples(psis(), psis()),
    )
    def test_service_monotone_in_psi(self, users, facs, psi_pair):
        """A larger serving distance never reduces any service value."""
        lo, hi = sorted(psi_pair)
        for f in facs:
            a = brute_force_service(users, f, ServiceSpec(ServiceModel.ENDPOINT, psi=lo))
            b = brute_force_service(users, f, ServiceSpec(ServiceModel.ENDPOINT, psi=hi))
            assert b >= a


class TestCoverageAlgebra:
    @settings(max_examples=20, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=10, min_points=2, max_points=4),
        facility_sets(min_size=2, max_size=4),
        psis(),
    )
    def test_add_order_independent(self, users, facs, psi):
        """CoverageState value is independent of facility add order."""
        spec = ServiceSpec(ServiceModel.COUNT, psi=psi, normalize=False)
        matches = [brute_force_matches(users, f, psi) for f in facs]
        forward = CoverageState(users, spec)
        for m in matches:
            forward.add(m)
        backward = CoverageState(users, spec)
        for m in reversed(matches):
            backward.add(m)
        assert forward.value == pytest.approx(backward.value)

    @settings(max_examples=20, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=10, min_points=2, max_points=3),
        facility_sets(min_size=1, max_size=3),
        psis(),
    )
    def test_gain_predicts_add(self, users, facs, psi):
        """gain() must equal the realised delta of the following add()."""
        spec = ServiceSpec(ServiceModel.LENGTH, psi=psi, normalize=False)
        state = CoverageState(users, spec)
        for f in facs:
            m = brute_force_matches(users, f, psi)
            predicted = state.gain(m)
            realised = state.add(m)
            assert realised == pytest.approx(predicted)
