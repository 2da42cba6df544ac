"""Unit tests for index entries: keys, ownership columns, scoring."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

from repro import (
    FacilityRoute,
    IndexVariant,
    QueryError,
    ServiceModel,
    ServiceSpec,
    StopSet,
    Trajectory,
    brute_force_matches,
)
from repro.core.service import score_trajectory
from repro.core.trajectory import UserPointTable
from repro.index.entries import SubBounds, entry_keys, validate_spec_for_variant
from repro.queries.evaluate import MatchCollector, _score_candidates

from .strategies import block_of, entry_ids, trajectories


def spec(model, psi=5.0, normalize=False):
    return ServiceSpec(model, psi=psi, normalize=normalize)


def owned_points(block):
    """Per entry, the slots of the points it owns."""
    return [
        block.probe_slot[lo : lo + n].tolist()
        for lo, n in zip(block.probe_off[:-1].tolist(), block.own_cnt.tolist())
    ]


def owned_segments(block):
    """Per entry, the first-endpoint slots of the segments it owns."""
    return [
        block.probe_slot[lo : lo + n].tolist()
        for lo, n in zip(block.probe_off[:-1].tolist(), block.seg_cnt.tolist())
    ]


def entry_scores(table, block, stops, sp, collector=None):
    """Each entry's contribution to ``S(u, f)``, scored alone."""
    mask = stops.covered_mask(block.probe_xy, sp.psi)
    bounds = block.probe_off.tolist()
    return [
        float(_score_candidates(
            table, block, np.array([i]), mask[bounds[i] : bounds[i + 1]], np.array([1]),
            sp, collector,
        )[0])
        for i in range(block.n)
    ]


class TestMakeEntries:
    def test_endpoint_single_entry(self):
        t = Trajectory(1, [(0, 0), (5, 5), (9, 9)])
        rows, segs = entry_keys(UserPointTable([t]), IndexVariant.ENDPOINT)
        assert (rows.tolist(), segs.tolist()) == ([0], [-1])
        _, block = block_of([t], IndexVariant.ENDPOINT)
        assert block.gov[0, :4].tolist() == [0, 0, 9, 9]
        assert owned_points(block) == [[0, 2]]

    def test_endpoint_two_point_owns_segment(self):
        t = Trajectory(1, [(0, 0), (5, 5)])
        _, block = block_of([t], IndexVariant.ENDPOINT)
        assert owned_segments(block) == [[0]]

    def test_segmented_one_per_segment(self):
        t = Trajectory(1, [(0, 0), (1, 0), (2, 0), (3, 0)])
        _, block = block_of([t], IndexVariant.SEGMENTED)
        assert block.rows.tolist() == [0, 0, 0]
        assert block.segs.tolist() == [0, 1, 2]
        assert block.gov[0, :4].tolist() == [0, 0, 1, 0]
        assert block.gov[2, 2:4].tolist() == [3, 0]

    def test_segmented_point_ownership_partitions(self):
        t = Trajectory(1, [(0, 0), (1, 0), (2, 0), (3, 0)])
        _, block = block_of([t], IndexVariant.SEGMENTED)
        owned = sorted(i for own in owned_points(block) for i in own)
        assert owned == [0, 1, 2, 3]  # every point exactly once

    def test_segmented_segment_ownership_partitions(self):
        t = Trajectory(1, [(0, 0), (1, 0), (2, 0)])
        _, block = block_of([t], IndexVariant.SEGMENTED)
        owned = sorted(i for own in owned_segments(block) for i in own)
        assert owned == [0, 1]

    def test_segmented_single_point(self):
        t = Trajectory(1, [(0, 0)])
        _, block = block_of([t], IndexVariant.SEGMENTED)
        assert block.segs.tolist() == [-1]
        assert owned_points(block) == [[0]]
        assert owned_segments(block) == [[]]

    def test_full_owns_everything(self):
        t = Trajectory(1, [(0, 0), (1, 0), (2, 0)])
        _, block = block_of([t], IndexVariant.FULL)
        assert owned_points(block) == [[0, 1, 2]]
        assert owned_segments(block) == [[0, 1]]
        assert block.probe_cnt.tolist() == [3]  # all three place the entry

    @given(trajectories(min_points=1, max_points=8))
    def test_ownership_partition_property(self, t):
        for variant in (IndexVariant.SEGMENTED, IndexVariant.FULL):
            _, block = block_of([t], variant)
            pts = sorted(i for own in owned_points(block) for i in own)
            segs = sorted(i for own in owned_segments(block) for i in own)
            assert pts == list(range(t.n_points))
            assert segs == list(range(t.n_segments))

    def test_entry_ids_unique(self):
        users = [
            Trajectory(5, [(0, 0), (1, 0), (2, 0)]),
            Trajectory(7, [(4, 4)]),
            Trajectory(6, [(0, 0), (1, 0)]),
        ]
        ids = entry_ids(users, IndexVariant.SEGMENTED)
        assert ids == [(5, 0), (5, 1), (7, -1), (6, 0)]
        assert len(set(ids)) == len(ids)


class TestEntryScoring:
    def test_endpoint_entry_score(self):
        t = Trajectory(1, [(0, 0), (100, 0)])
        table, block = block_of([t], IndexVariant.ENDPOINT)
        near_both = StopSet(np.array([[0.0, 1.0], [100.0, 1.0]]))
        near_one = StopSet(np.array([[0.0, 1.0]]))
        sp = spec(ServiceModel.ENDPOINT)
        assert entry_scores(table, block, near_both, sp) == [1.0]
        assert entry_scores(table, block, near_one, sp) == [0.0]

    def test_summed_entry_scores_equal_trajectory_score(self):
        """Entry scores over a partitioned trajectory reassemble S(u, f)."""
        t = Trajectory(1, [(0, 0), (10, 0), (20, 0), (35, 0)])
        stops = StopSet(np.array([[10.0, 2.0], [20.0, 2.0]]))
        for variant in (IndexVariant.SEGMENTED, IndexVariant.FULL):
            table, block = block_of([t], variant)
            for model in (ServiceModel.COUNT, ServiceModel.LENGTH):
                for norm in (True, False):
                    sp = spec(model, psi=5.0, normalize=norm)
                    for collector in (None, MatchCollector()):
                        total = sum(entry_scores(table, block, stops, sp, collector))
                        assert total == pytest.approx(score_trajectory(t, stops, sp))

    def test_upper_bound_dominates_score(self):
        """An entry's ``own_totals`` addend bounds whatever it scores."""
        t = Trajectory(1, [(0, 0), (10, 0), (20, 0)])
        stops = StopSet(np.array([[5.0, 0.0]]))
        for variant in IndexVariant:
            table, block = block_of([t], variant)
            bounds = block.own_totals()
            for model in ServiceModel:
                if model is ServiceModel.ENDPOINT and variant is IndexVariant.SEGMENTED:
                    continue
                for norm in (True, False):
                    sp = spec(model, psi=50.0, normalize=norm)
                    bound = bounds[:, SubBounds.column_for(sp)]
                    scores = entry_scores(table, block, stops, sp)
                    assert all(s <= b + 1e-12 for s, b in zip(scores, bound))

    def test_matches_report_covered_owned_points(self):
        t = Trajectory(1, [(0, 0), (10, 0), (500, 0)])
        table, block = block_of([t], IndexVariant.SEGMENTED)
        route = FacilityRoute(0, [(0.0, 1.0), (10.0, 1.0)])
        collector = MatchCollector()
        entry_scores(table, block, StopSet.of_facility(route), spec(ServiceModel.COUNT), collector)
        assert collector.as_dict() == brute_force_matches([t], route, 5.0) == {1: (0, 1)}

    def test_full_entry_matches_all_covered(self):
        t = Trajectory(1, [(0, 0), (10, 0), (500, 0)])
        table, block = block_of([t], IndexVariant.FULL)
        route = FacilityRoute(0, [(0.0, 1.0), (500.0, 1.0)])
        collector = MatchCollector()
        entry_scores(table, block, StopSet.of_facility(route), spec(ServiceModel.COUNT), collector)
        assert collector.as_dict() == brute_force_matches([t], route, 5.0) == {1: (0, 2)}


class TestValidateSpec:
    def test_endpoint_on_segmented_rejected(self):
        with pytest.raises(QueryError):
            validate_spec_for_variant(
                spec(ServiceModel.ENDPOINT), IndexVariant.SEGMENTED, 2
            )

    def test_count_on_endpoint_multipoint_rejected(self):
        with pytest.raises(QueryError):
            validate_spec_for_variant(spec(ServiceModel.COUNT), IndexVariant.ENDPOINT, 3)

    def test_count_on_endpoint_two_point_allowed(self):
        validate_spec_for_variant(spec(ServiceModel.COUNT), IndexVariant.ENDPOINT, 2)

    def test_everything_allowed_on_full(self):
        for model in ServiceModel:
            validate_spec_for_variant(spec(model), IndexVariant.FULL, 10)


class TestSubBounds:
    @staticmethod
    def _sub(variant, *users):
        """The ``own`` row of a node holding every entry of ``users``."""
        _, block = block_of(list(users), variant)
        return block.own_totals().sum(axis=0)

    @staticmethod
    def _bound(row, sp):
        return row[SubBounds.column_for(sp)]

    def test_additivity(self):
        t1 = Trajectory(1, [(0, 0), (10, 0)])
        t2 = Trajectory(2, [(0, 0), (10, 0), (20, 0)])
        merged = self._sub(IndexVariant.FULL, t1, t2)
        combined = np.zeros(5)
        combined += self._sub(IndexVariant.FULL, t1)
        combined += self._sub(IndexVariant.FULL, t2)
        for sp in (
            spec(ServiceModel.ENDPOINT),
            spec(ServiceModel.COUNT),
            spec(ServiceModel.COUNT, normalize=True),
            spec(ServiceModel.LENGTH),
            spec(ServiceModel.LENGTH, normalize=True),
        ):
            assert self._bound(combined, sp) == pytest.approx(self._bound(merged, sp))

    def test_normalized_bounds_are_one_per_trajectory(self):
        t = Trajectory(1, [(0, 0), (10, 0), (30, 0)])
        sub = self._sub(IndexVariant.SEGMENTED, t)
        assert self._bound(sub, spec(ServiceModel.COUNT, normalize=True)) == pytest.approx(1.0)
        assert self._bound(sub, spec(ServiceModel.LENGTH, normalize=True)) == pytest.approx(1.0)

    def test_raw_bounds_count_units(self):
        t = Trajectory(1, [(0, 0), (3, 4), (6, 8)])
        sub = self._sub(IndexVariant.FULL, t)
        assert self._bound(sub, spec(ServiceModel.COUNT)) == 3.0
        assert self._bound(sub, spec(ServiceModel.LENGTH)) == pytest.approx(10.0)
        assert self._bound(sub, spec(ServiceModel.ENDPOINT)) == 1.0
