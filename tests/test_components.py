"""Unit tests for the divide step of Algorithm 1 (``evaluate.divide``)
and the stop restriction it stands for."""

from __future__ import annotations

import numpy as np

from repro import BBox, FacilityRoute, IndexVariant, Point
from repro.core.service import StopSet
from repro.core.trajectory import UserPointTable
from repro.core.zorder import boxes_within
from repro.index import NodeBlock, TreeFrame
from repro.queries.evaluate import divide

PSI = 10.0


def facility_stops(stops, fid=0):
    return StopSet.of_facility(FacilityRoute(fid, stops))


def restricted(stops, box, psi):
    """The stops that can serve region ``box``: those within ``box ⊕ psi``."""
    return stops.restricted_to(box.expanded(psi))


def serves(stops, box, psi):
    """zReduce's cell test: does ``box`` meet one of the stop discs?"""
    cell = np.array([[box.xmin, box.ymin, box.xmax, box.ymax]])
    return bool(boxes_within(cell, stops.coords, psi)[0])


def intersecting_components(children_boxes, stops, psi):
    """The paper's ``intersectingComponents`` read off :func:`divide`:
    per child box, the serving envelope of the child's part of
    ``stops``, ``None`` where no stop can serve the child."""
    n = len(children_boxes)
    no_rows = np.zeros(0, dtype=np.int64)
    frame = TreeFrame(
        [(b.xmin, b.ymin, b.xmax, b.ymax) for b in children_boxes], [1] * n, [-1] * n,
        [[-1] * 4] * n, np.zeros((n, 5)), [0] * n, no_rows, no_rows,
    )
    frame.block = NodeBlock(UserPointTable(()), IndexVariant.ENDPOINT, no_rows, no_rows)
    served, _visited, envelopes = divide(frame, stops.coords, psi)
    return [BBox(*row) if hit else None for hit, row in zip(served, envelopes.tolist())]


def envelope(stops, psi):
    """The serving envelope of the stop list ``stops``."""
    return StopSet(stops).embr(psi)


class TestStopRestriction:
    def test_whole_keeps_all_stops(self):
        s = facility_stops([(0, 0), (50, 50), (100, 100)])
        assert s.n_stops == 3
        assert not s.is_empty

    def test_embr_is_expanded_bbox(self):
        s = facility_stops([(0, 0), (100, 100)])
        assert s.embr(PSI) == BBox(-10, -10, 110, 110)

    def test_restricted_keeps_stops_within_psi_of_box(self):
        s = facility_stops([(0, 0), (50, 50), (200, 200)])
        assert restricted(s, BBox(40, 40, 60, 60), PSI).n_stops == 1  # only (50, 50)

    def test_restricted_includes_nearby_outside_stops(self):
        """A stop just outside the box can still serve points inside."""
        s = facility_stops([(65, 50)])
        assert restricted(s, BBox(40, 40, 60, 60), PSI).n_stops == 1

    def test_restricted_empty(self):
        part = restricted(facility_stops([(500, 500)]), BBox(0, 0, 100, 100), PSI)
        assert part.is_empty
        assert part.embr(PSI) is None

    def test_region_test_respects_discs(self):
        s = facility_stops([(0, 0)])
        assert serves(s, BBox(5, 5, 20, 20), PSI)
        assert not serves(s, BBox(50, 50, 60, 60), PSI)

    def test_region_test_empty_component(self):
        part = restricted(facility_stops([(500, 500)]), BBox(0, 0, 10, 10), 1.0)
        assert part.is_empty
        assert not serves(part, BBox(0, 0, 1000, 1000), 1.0)

    def test_region_test_tighter_than_embr(self):
        """An L-shaped facility: the EMBR corner is far from every disc."""
        s = facility_stops([(0, 0), (100, 0), (0, 100)])
        corner = BBox(90, 90, 100, 100)  # inside EMBR, outside every disc
        assert s.embr(5.0).intersects(corner)
        assert not serves(s, corner, 5.0)


class TestIntersectingComponents:
    def test_divides_over_children(self):
        parent = BBox(0, 0, 100, 100)
        stops = facility_stops([(10, 10), (90, 90)])
        parts = intersecting_components(list(parent.quadrants()), stops, 5.0)
        assert parts[0] == envelope([(10, 10)], 5.0)  # SW
        assert parts[3] == envelope([(90, 90)], 5.0)  # NE
        assert parts[1] is None and parts[2] is None

    def test_boundary_stop_lands_in_multiple_children(self):
        parent = BBox(0, 0, 100, 100)
        stops = facility_stops([(50, 50)])
        parts = intersecting_components(list(parent.quadrants()), stops, 5.0)
        # within psi of every quadrant
        assert parts == [envelope([(50, 50)], 5.0)] * 4

    def test_union_of_children_covers_component_serving_area(self):
        """No stop relevant to a child is dropped by the division."""
        parent = BBox(0, 0, 100, 100)
        stops = [(i * 9.0, (i * 17) % 100) for i in range(12)]
        parts = intersecting_components(list(parent.quadrants()), facility_stops(stops), 8.0)
        for child_box, part in zip(parent.quadrants(), parts):
            serving = child_box.expanded(8.0)
            expected = [
                (x, y) for x, y in stops if serving.contains_point(Point(x, y))
            ]
            assert part == (envelope(expected, 8.0) if expected else None)
