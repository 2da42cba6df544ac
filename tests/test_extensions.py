"""Tests for the extension modules: range search and the block-I/O model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BBox,
    IndexVariant,
    Point,
    QueryError,
    ServiceModel,
    ServiceSpec,
    StopSet,
    TQTree,
    TQTreeConfig,
    build_tq_basic,
    build_tq_zorder,
)
from repro.queries.iomodel import BlockCosts, estimate_query_blocks
from repro.queries.range_search import (
    trajectories_in_range,
    trajectories_served_by_stop,
)

from .strategies import WORLD, coords, points, trajectory_sets


class TestRangeSearch:
    def _tree(self, users):
        return TQTree.build(users, TQTreeConfig(beta=4), space=WORLD)

    def test_any_mode_matches_brute_force_fixture(self, taxi_users):
        tree = build_tq_zorder(taxi_users, beta=16)
        box = BBox(2000, 2000, 6000, 6000)
        got = trajectories_in_range(tree, box, mode="any")
        expected = sorted(
            u.traj_id
            for u in taxi_users
            if any(box.contains_point(p) for p in u.points)
        )
        assert got == expected

    def test_all_mode_matches_brute_force_fixture(self, taxi_users):
        tree = build_tq_zorder(taxi_users, beta=16)
        box = BBox(1000, 1000, 8_000, 8_000)
        got = trajectories_in_range(tree, box, mode="all")
        expected = sorted(
            u.traj_id
            for u in taxi_users
            if all(box.contains_point(p) for p in u.points)
        )
        assert got == expected

    def test_invalid_mode(self, taxi_users):
        tree = build_tq_zorder(taxi_users, beta=16)
        with pytest.raises(QueryError):
            trajectories_in_range(tree, WORLD, mode="some")

    def test_empty_range(self, taxi_users):
        tree = build_tq_zorder(taxi_users, beta=16)
        far = BBox(10**6, 10**6, 10**6 + 1, 10**6 + 1)
        assert trajectories_in_range(tree, far) == []

    @settings(max_examples=25, deadline=None)
    @given(trajectory_sets(min_size=1, max_size=20, min_points=2, max_points=4))
    def test_any_mode_property_endpoint_index(self, users):
        """On an ENDPOINT index, range semantics cover the indexed
        endpoints only (interior points are not placement-constrained)."""
        tree = self._tree(users)
        box = BBox(200, 200, 700, 700)
        got = trajectories_in_range(tree, box, mode="any")
        expected = sorted(
            u.traj_id
            for u in users
            if box.contains_point(u.start) or box.contains_point(u.end)
        )
        assert got == expected

    @settings(max_examples=25, deadline=None)
    @given(trajectory_sets(min_size=1, max_size=15, min_points=2, max_points=5))
    def test_any_mode_property_full_index(self, users):
        """A FULL index answers whole-polyline range semantics exactly."""
        from repro import IndexVariant

        tree = TQTree.build(
            users, TQTreeConfig(beta=4, variant=IndexVariant.FULL), space=WORLD
        )
        box = BBox(200, 200, 700, 700)
        got = trajectories_in_range(tree, box, mode="any")
        expected = sorted(
            u.traj_id for u in users if any(box.contains_point(p) for p in u.points)
        )
        assert got == expected

    def test_stop_query_both_endpoints(self, taxi_users):
        tree = build_tq_zorder(taxi_users, beta=16)
        stop = taxi_users[0].start
        psi = 800.0
        got = trajectories_served_by_stop(tree, stop, psi, require_both_endpoints=True)
        expected = sorted(
            u.traj_id
            for u in taxi_users
            if u.start.dist_to(stop) <= psi and u.end.dist_to(stop) <= psi
        )
        assert got == expected

    def test_stop_query_partial(self, taxi_users):
        tree = build_tq_zorder(taxi_users, beta=16)
        stop = taxi_users[0].start
        psi = 500.0
        got = trajectories_served_by_stop(
            tree, stop, psi, require_both_endpoints=False
        )
        expected = sorted(
            u.traj_id
            for u in taxi_users
            if any(p.dist_to(stop) <= psi for p in (u.start, u.end))
        )
        assert got == expected

    @settings(max_examples=40, deadline=None)
    @given(
        trajectory_sets(min_size=1, max_size=30, min_points=1, max_points=5),
        st.sampled_from(list(IndexVariant)),
        st.booleans(),
        st.tuples(points(), points()),
        points(),
        coords(),
        st.integers(0, 30),
    )
    def test_every_index_matches_a_brute_force_scan(
        self, users, variant, use_zorder, corners, stop, psi, n_built
    ):
        """TQ(B) and TQ(Z), three variants, part built and part inserted:
        all four answers are those of a scan over every indexed point."""
        cfg = TQTreeConfig(beta=3, variant=variant, use_zorder=use_zorder)
        tree = TQTree.build(users[:n_built], cfg, space=WORLD)
        tree.warm_zindex()
        for u in users[n_built:]:
            tree.insert(u)
        (a, b) = corners
        box = BBox(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))
        station = StopSet(np.array([[stop.x, stop.y]]))

        def indexed(u):
            return (u.start, u.end) if variant is IndexVariant.ENDPOINT else u.points

        def ids(keep):
            return sorted(u.traj_id for u in users if keep(u))

        assert trajectories_in_range(tree, box, "any") == ids(
            lambda u: any(box.contains_point(p) for p in indexed(u))
        )
        assert trajectories_in_range(tree, box, "all") == ids(
            lambda u: all(box.contains_point(p) for p in indexed(u))
        )
        assert trajectories_served_by_stop(tree, stop, psi) == ids(
            lambda u: station.covers_point(u.start, psi) and station.covers_point(u.end, psi)
        )
        assert trajectories_served_by_stop(tree, stop, psi, False) == ids(
            lambda u: any(station.covers_point(p, psi) for p in indexed(u))
        )

    def test_stop_query_negative_psi(self, taxi_users):
        tree = build_tq_zorder(taxi_users, beta=16)
        with pytest.raises(QueryError):
            trajectories_served_by_stop(tree, Point(0, 0), -1.0)


class TestBlockModel:
    def test_costs_positive_and_structured(self, taxi_users, facilities, endpoint_spec):
        tree = build_tq_zorder(taxi_users, beta=16)
        costs = estimate_query_blocks(tree, facilities[0], endpoint_spec)
        assert costs.node_blocks >= 1
        assert costs.total == (
            costs.node_blocks + costs.list_blocks + costs.directory_blocks
        )

    def test_tqz_reads_fewer_list_blocks_than_tqb(self, taxi_users, facilities):
        """The machine-independent claim: z-bucketing reads only the
        buckets holding candidates, a flat list reads everything.
        A selective psi keeps the serving corridor narrow."""
        spec = ServiceSpec(ServiceModel.ENDPOINT, psi=120.0)
        tz = build_tq_zorder(taxi_users, beta=16)
        tb = build_tq_basic(taxi_users, beta=16)
        z_blocks = sum(
            estimate_query_blocks(tz, f, spec).list_blocks for f in facilities
        )
        b_blocks = sum(
            estimate_query_blocks(tb, f, spec).list_blocks for f in facilities
        )
        assert z_blocks < b_blocks

    def test_tqb_has_no_directory_blocks(self, taxi_users, facilities, endpoint_spec):
        tb = build_tq_basic(taxi_users, beta=16)
        costs = estimate_query_blocks(tb, facilities[0], endpoint_spec)
        assert costs.directory_blocks == 0

    def test_unservable_facility_costs_little(self, taxi_users, endpoint_spec):
        from repro import FacilityRoute

        tree = build_tq_zorder(taxi_users, beta=16)
        far = FacilityRoute(0, [(10**6, 10**6)])
        costs = estimate_query_blocks(tree, far, endpoint_spec)
        assert costs.list_blocks == 0

    def test_validates_spec(self, checkin_users):
        tree = build_tq_zorder(checkin_users, beta=16)
        from repro import FacilityRoute

        with pytest.raises(QueryError):
            estimate_query_blocks(
                tree,
                FacilityRoute(0, [(0, 0)]),
                ServiceSpec(ServiceModel.COUNT, psi=10.0),
            )

    def test_blockcosts_default(self):
        assert BlockCosts().total == 0
