"""Hypothesis strategies for geometric and trajectory inputs.

All strategies confine coordinates to a fixed box so generated data is
always indexable, and round coordinates to a coarse grid often enough to
exercise ties (shared endpoints, duplicate points, boundary cases) that
uniform floats would almost never produce.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro import BBox, FacilityRoute, IndexVariant, Point, Trajectory
from repro.core.trajectory import UserPointTable
from repro.index.block import NodeBlock
from repro.index.entries import entry_keys
from repro.index.zindex import ZOrderedList

WORLD = BBox(0.0, 0.0, 1024.0, 1024.0)


def block_of(users, variant=IndexVariant.ENDPOINT):
    """The users' table and every ``variant`` entry of theirs as one
    block, in key order (table row ``r`` is ``users[r]``)."""
    table = UserPointTable(users)
    return table, NodeBlock(table, variant, *entry_keys(table, variant))


def entry_ids(users, variant=IndexVariant.ENDPOINT):
    """The ``(traj_id, seg)`` id of every ``variant`` entry, in key order."""
    table, block = block_of(users, variant)
    return list(zip(table.traj_ids[block.rows].tolist(), block.segs.tolist()))


def zlist_of(users, variant=IndexVariant.ENDPOINT, beta=4, **kw) -> ZOrderedList:
    """A standalone z-list over every ``variant`` entry of ``users``,
    built the way a tree builds a node's: block first, z-order over it.
    Sorted position ``i`` is entry ``order[i]`` of ``block_of(users,
    variant)``."""
    _, block = block_of(users, variant)
    ids = np.array(entry_ids(users, variant), dtype=np.int64).reshape(-1, 2)
    return ZOrderedList(WORLD, ids, beta, gov=block.gov, **kw)


def coords(grid: float = 0.25):
    """A coordinate inside WORLD, snapped to ``grid`` to provoke ties."""
    cells = int(1024.0 / grid)
    return st.integers(min_value=0, max_value=cells).map(lambda i: i * grid)


@st.composite
def points(draw) -> Point:
    return Point(draw(coords()), draw(coords()))


@st.composite
def trajectories(draw, min_points: int = 2, max_points: int = 6, traj_id=None) -> Trajectory:
    n = draw(st.integers(min_value=min_points, max_value=max_points))
    pts = [draw(points()) for _ in range(n)]
    tid = draw(st.integers(min_value=0, max_value=10**6)) if traj_id is None else traj_id
    return Trajectory(tid, pts)


@st.composite
def trajectory_sets(draw, min_size: int = 1, max_size: int = 24, **kw):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    return [draw(trajectories(traj_id=i, **kw)) for i in range(n)]


@st.composite
def facilities(draw, min_stops: int = 1, max_stops: int = 12, facility_id=None) -> FacilityRoute:
    n = draw(st.integers(min_value=min_stops, max_value=max_stops))
    stops = [draw(points()) for _ in range(n)]
    fid = draw(st.integers(min_value=0, max_value=10**6)) if facility_id is None else facility_id
    return FacilityRoute(fid, stops)


@st.composite
def facility_sets(draw, min_size: int = 1, max_size: int = 8, **kw):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    return [draw(facilities(facility_id=i, **kw)) for i in range(n)]


def psis():
    """Serving distances from tiny to world-spanning."""
    return st.sampled_from([0.0, 1.0, 10.0, 50.0, 200.0, 800.0])


@st.composite
def dense_facilities(
    draw, min_stops: int = 48, max_stops: int = 160, facility_id=None
) -> FacilityRoute:
    """A stop-dense facility: the regime the stop grid is built for.

    Half the stops cluster around a few anchors (typical route shape,
    many stops per grid cell), the rest scatter — so grids see both
    crowded and empty neighbourhoods.
    """
    n = draw(st.integers(min_value=min_stops, max_value=max_stops))
    anchors = [draw(points()) for _ in range(draw(st.integers(1, 4)))]
    stops = []
    for i in range(n):
        if i % 2 == 0:
            a = anchors[i % len(anchors)]
            dx = draw(st.integers(-40, 40)) * 0.25
            dy = draw(st.integers(-40, 40)) * 0.25
            stops.append(
                Point(
                    min(max(a.x + dx, WORLD.xmin), WORLD.xmax),
                    min(max(a.y + dy, WORLD.ymin), WORLD.ymax),
                )
            )
        else:
            stops.append(draw(points()))
    fid = draw(st.integers(min_value=0, max_value=10**6)) if facility_id is None else facility_id
    return FacilityRoute(fid, stops)


def engine_psis():
    """Serving distances that stress the stop grid.

    Includes 0 (exact coincidence), values commensurate with the
    0.25-snapped coordinate grid (1.25 = a 0.75/1.0 right triangle, 5.0
    = a 3/4 one — distances *exactly* equal to psi occur often, probing
    the closed boundary), cell-boundary-sized values, and radii large
    enough that the grid must fall back or degenerate to one cell.
    """
    return st.sampled_from([0.0, 0.25, 1.25, 5.0, 32.0, 200.0, 1024.0, 2048.0])
