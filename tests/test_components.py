"""Unit tests for facility components (divide step of Algorithm 1)."""

from __future__ import annotations

import numpy as np

from repro import BBox, FacilityRoute, IndexVariant, Point
from repro.core.service import StopSet
from repro.core.trajectory import UserPointTable
from repro.core.zorder import boxes_within
from repro.index import NodeBlock, TreeFrame
from repro.queries.components import DivisionPlan, FacilityComponent


def make_component(stops, psi=10.0, fid=0):
    return FacilityComponent.whole(FacilityRoute(fid, stops), psi)


def serves(component, box):
    """zReduce's cell test: does ``box`` meet one of the component's
    stop discs?"""
    cell = np.array([[box.xmin, box.ymin, box.xmax, box.ymax]])
    return bool(boxes_within(cell, component.stops.coords, component.psi)[0])


def intersecting_components(children_boxes, component):
    """The paper's ``intersectingComponents`` read off a
    :class:`DivisionPlan`: one entry per child box, ``None`` where the
    component cannot serve the child."""
    n = len(children_boxes)
    no_rows = np.zeros(0, dtype=np.int64)
    frame = TreeFrame(
        [(b.xmin, b.ymin, b.xmax, b.ymax) for b in children_boxes], [1] * n, [-1] * n,
        [[-1] * 4] * n, np.zeros((n, 5)), [0] * n, no_rows, no_rows,
    )
    frame.block = NodeBlock(UserPointTable(()), IndexVariant.ENDPOINT, no_rows, no_rows)
    plan = DivisionPlan(frame, component)
    return [
        component.with_stops(StopSet(component.stops.coords[member]))
        if member.any() else None
        for member in plan.member
    ]


class TestFacilityComponent:
    def test_whole_keeps_all_stops(self):
        c = make_component([(0, 0), (50, 50), (100, 100)])
        assert c.stops.n_stops == 3
        assert not c.is_empty

    def test_embr_is_expanded_bbox(self):
        c = make_component([(0, 0), (100, 100)], psi=10.0)
        assert c.embr == BBox(-10, -10, 110, 110)

    def test_restricted_keeps_stops_within_psi_of_box(self):
        c = make_component([(0, 0), (50, 50), (200, 200)], psi=10.0)
        sub = c.restricted_to(BBox(40, 40, 60, 60))
        assert sub.stops.n_stops == 1  # only (50, 50)

    def test_restricted_includes_nearby_outside_stops(self):
        """A stop just outside the box can still serve points inside."""
        c = make_component([(65, 50)], psi=10.0)
        sub = c.restricted_to(BBox(40, 40, 60, 60))
        assert sub.stops.n_stops == 1

    def test_restricted_empty(self):
        c = make_component([(500, 500)], psi=10.0)
        sub = c.restricted_to(BBox(0, 0, 100, 100))
        assert sub.is_empty
        assert sub.embr is None

    def test_region_test_respects_discs(self):
        c = make_component([(0, 0)], psi=10.0)
        assert serves(c, BBox(5, 5, 20, 20))
        assert not serves(c, BBox(50, 50, 60, 60))

    def test_region_test_empty_component(self):
        c = make_component([(500, 500)], psi=1.0).restricted_to(BBox(0, 0, 10, 10))
        assert c.is_empty
        assert not serves(c, BBox(0, 0, 1000, 1000))

    def test_region_test_tighter_than_embr(self):
        """An L-shaped facility: the EMBR corner is far from every disc."""
        c = make_component([(0, 0), (100, 0), (0, 100)], psi=5.0)
        corner = BBox(90, 90, 100, 100)  # inside EMBR, outside every disc
        assert c.embr.intersects(corner)
        assert not serves(c, corner)


class TestIntersectingComponents:
    def test_divides_over_children(self):
        parent = BBox(0, 0, 100, 100)
        comp = make_component([(10, 10), (90, 90)], psi=5.0)
        children = list(parent.quadrants())
        parts = intersecting_components(children, comp)
        assert parts[0] is not None and parts[0].stops.n_stops == 1  # SW
        assert parts[3] is not None and parts[3].stops.n_stops == 1  # NE
        assert parts[1] is None and parts[2] is None

    def test_boundary_stop_lands_in_multiple_children(self):
        parent = BBox(0, 0, 100, 100)
        comp = make_component([(50, 50)], psi=5.0)
        parts = intersecting_components(list(parent.quadrants()), comp)
        present = [p for p in parts if p is not None]
        assert len(present) == 4  # within psi of every quadrant

    def test_component_ids_preserved(self):
        parent = BBox(0, 0, 100, 100)
        comp = make_component([(10, 10)], psi=5.0, fid=42)
        parts = intersecting_components(list(parent.quadrants()), comp)
        assert parts[0] is not None and parts[0].facility_id == 42

    def test_union_of_children_covers_component_serving_area(self):
        """No stop relevant to a child is dropped by the division."""
        parent = BBox(0, 0, 100, 100)
        stops = [(i * 9.0, (i * 17) % 100) for i in range(12)]
        comp = make_component(stops, psi=8.0)
        parts = intersecting_components(list(parent.quadrants()), comp)
        for child_box, part in zip(parent.quadrants(), parts):
            serving = child_box.expanded(8.0)
            expected = {
                (x, y) for x, y in stops if serving.contains_point(Point(x, y))
            }
            got = (
                set()
                if part is None
                else {(x, y) for x, y in part.stops.coords.tolist()}
            )
            assert got == expected
