"""Hypothesis strategies for geometric and trajectory inputs.

All strategies confine coordinates to a fixed box so generated data is
always indexable, and round coordinates to a coarse grid often enough to
exercise ties (shared endpoints, duplicate points, boundary cases) that
uniform floats would almost never produce.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

import math
from bisect import bisect_left
from types import SimpleNamespace

from repro import (
    BBox,
    FacilityRoute,
    IndexVariant,
    Point,
    ServiceModel,
    TQTreeConfig,
    Trajectory,
)
from repro.core.geometry import bbox_of_points
from repro.core.service import in_order_sum
from repro.core.trajectory import UserPointTable
from repro.core.zorder import zid_of_point
from repro.index import TreeFrame, ZStack
from repro.index.block import NodeBlock
from repro.index.entries import entry_keys

WORLD = BBox(0.0, 0.0, 1024.0, 1024.0)


def box_row(box: BBox) -> list:
    """``box`` as one ``(xmin, ymin, xmax, ymax)`` table row."""
    return [box.xmin, box.ymin, box.xmax, box.ymax]


def block_of(users, variant=IndexVariant.ENDPOINT):
    """The users' table and every ``variant`` entry of theirs as one
    block, in key order (table row ``r`` is ``users[r]``)."""
    table = UserPointTable(users)
    return table, NodeBlock(table, variant, *entry_keys(table, variant))


def entry_ids(users, variant=IndexVariant.ENDPOINT):
    """The ``(traj_id, seg)`` id of every ``variant`` entry, in key order."""
    table, block = block_of(users, variant)
    return list(zip(table.traj_ids[block.rows].tolist(), block.segs.tolist()))


def stack_of(users, variant=IndexVariant.ENDPOINT, beta=4, z_max_depth=12) -> ZStack:
    """A one-node z-stack over every ``variant`` entry of ``users`` in
    ``WORLD``, built the way a tree builds its own: block first, stack
    over a one-node table.  Stacked position ``i`` is entry
    ``stack.row[i]`` of ``block_of(users, variant)``."""
    config = TQTreeConfig(beta=beta, variant=variant, z_max_depth=z_max_depth)
    table, block = block_of(users, variant)
    frame = TreeFrame(
        [box_row(WORLD)], [0], [-1], [[-1] * 4], [block.n], block.rows, block.segs,
    )
    frame.block = block
    return ZStack(frame, table.traj_ids, config.beta, config.z_max_depth)


def ref_storage(tree) -> dict:
    """The shape fields of ``storage_report(tree)``, by a plain
    recursion over the node table's ``children`` rows from the root
    (list lengths read off ``row_off``, depths counted on the way
    down)."""
    frame = tree.frame()
    out = dict(
        n_nodes=0, n_leaves=0, height=0, inter_node_entries=0,
        intra_node_entries=0, entries_per_level={}, max_leaf_occupancy=0,
        n_entries_stored=0,
    )

    def rec(i, depth):
        n = int(frame.row_off[i + 1] - frame.row_off[i])
        out["n_nodes"] += 1
        out["n_entries_stored"] += n
        out["entries_per_level"][depth] = out["entries_per_level"].get(depth, 0) + n
        kids = [int(child) for child in frame.children[i] if child >= 0]
        if kids:
            out["inter_node_entries"] += n
        else:
            out["n_leaves"] += 1
            out["intra_node_entries"] += n
            out["max_leaf_occupancy"] = max(out["max_leaf_occupancy"], n)
            out["height"] = max(out["height"], depth + 1)
        for child in kids:
            rec(child, depth + 1)

    rec(0, 0)
    return out


# ----------------------------------------------------------------------
# the z-structure read back one node at a time, and the list-of-entries
# zReduce (tuple z-id keys, ``bisect`` ranges, per-bucket loops) the
# stacked index-array one is held to
# ----------------------------------------------------------------------
def leaf_cells(root: BBox, boxes: np.ndarray):
    """``(zid, box)`` per row of ``boxes``, leaf cells of a partition of
    ``root``: a leaf's depth is how often the root was halved to its
    width, its z-id the descent :func:`zid_of_point` makes to its
    centre."""
    out = []
    for xmin, ymin, xmax, ymax in boxes.tolist():
        depth = round(math.log2(root.width / (xmax - xmin)))
        centre = Point((xmin + xmax) / 2.0, (ymin + ymax) / 2.0)
        out.append((zid_of_point(centre, root, depth), BBox(xmin, ymin, xmax, ymax)))
    return out


def z_node(stack: ZStack, slot: int, box: BBox):
    """Stacked node ``slot`` (region ``box``) as one z-ordered list:
    ``order`` (its block rows in z-sorted order), per sorted position
    the leaf ranks ``start_rank`` / ``end_rank`` and ``bbox``, and the
    two partitions' ``start_leaves`` / ``end_leaves``
    (:func:`leaf_cells`).  A partition tiles ``box`` in Z order, so it
    ends at its only leaf touching the box's upper right corner."""
    c0, c1 = stack.cell_off[slot : slot + 2].tolist()
    p0, p1 = stack.pos_off[slot : slot + 2].tolist()
    cells = stack.cell_box[c0:c1]
    corner = (cells[:, 2] == box.xmax) & (cells[:, 3] == box.ymax)
    n_start = 1 + int(np.flatnonzero(corner)[0])
    assert np.flatnonzero(corner).tolist() == [n_start - 1, c1 - c0 - 1]
    return SimpleNamespace(
        box=box,
        order=stack.row[p0:p1],
        start_rank=stack.start_cell[p0:p1] - c0,
        end_rank=stack.end_cell[p0:p1] - (c0 + n_start),
        bbox=stack.bbox[p0:p1],
        start_leaves=leaf_cells(box, cells[:n_start]),
        end_leaves=leaf_cells(box, cells[n_start:]),
    )


def ref_geometry(traj, seg, variant):
    """Governing start, governing end and bounding box of the entry
    ``(traj, seg)``, from the trajectory's own points."""
    if seg >= 0:
        points = traj.points[seg : seg + 2]
    elif variant is IndexVariant.FULL:
        points = traj.points
    else:
        points = (traj.start, traj.end)
    return points[0], points[-1], bbox_of_points(points)


def ref_entries(node, table, block, variant):
    """``(start, end, bbox, id)`` per entry of ``node`` (a
    :func:`z_node` over rows of ``block``), in its sorted order."""
    ids = list(zip(table.traj_ids[block.rows].tolist(), block.segs.tolist()))
    keys = list(zip(block.rows.tolist(), block.segs.tolist()))
    return [
        (*ref_geometry(table.users[keys[i][0]], keys[i][1], variant), ids[i])
        for i in node.order.tolist()
    ]


def _ref_leaf_of(leaves, box, p):
    """Digit path of the leaf holding ``p``: descend until a leaf."""
    zids = {zid for zid, _box in leaves}
    depth = 0
    while zid_of_point(p, box, depth) not in zids:
        depth += 1
    return zid_of_point(p, box, depth).digits


def ref_keys(node, entries):
    """The sort key ``(start z-id, end z-id, id)`` of every entry."""
    return [
        (_ref_leaf_of(node.start_leaves, node.box, start),
         _ref_leaf_of(node.end_leaves, node.box, end), ident)
        for start, end, _box, ident in entries
    ]


def _ref_cells_serving(leaves, embr, stops, psi):
    out = []
    for zid, box in leaves:
        if not box.intersects(embr):
            continue
        if stops is not None and not any(
            box.intersects_circle(Point(float(x), float(y)), psi) for x, y in stops
        ):
            continue
        out.append(zid)
    return out


def _ref_ranges(keys, cells):
    for cell in cells:
        lo = bisect_left(keys, (cell.digits,))
        high = cell.range_high()
        hi = len(keys) if high is None else bisect_left(keys, (high.digits,))
        if lo < hi:
            yield lo, hi


def ref_candidates_both(node, keys, embr, stops, psi):
    """Sorted positions whose start *and* end cell meet the serving
    area (``stops=None``: the envelope ``embr`` alone)."""
    allowed_ends = {c.digits for c in _ref_cells_serving(node.end_leaves, embr, stops, psi)}
    out = []
    for lo, hi in _ref_ranges(keys, _ref_cells_serving(node.start_leaves, embr, stops, psi)):
        out.extend(i for i in range(lo, hi) if keys[i][1] in allowed_ends)
    return out


def ref_candidates_any(node, keys, embr, stops, psi):
    picked = set()
    for lo, hi in _ref_ranges(keys, _ref_cells_serving(node.start_leaves, embr, stops, psi)):
        picked.update(range(lo, hi))
    by_end = sorted(((k[1], k[0], k[2]), i) for i, k in enumerate(keys))
    end_keys = [k for k, _ in by_end]
    for lo, hi in _ref_ranges(end_keys, _ref_cells_serving(node.end_leaves, embr, stops, psi)):
        picked.update(by_end[i][1] for i in range(lo, hi))
    return sorted(picked)


def ref_candidates_bbox(entries, beta, embr):
    out = []
    boxes = [box for _start, _end, box, _ident in entries]
    for lo in range(0, len(boxes), beta):
        bucket = boxes[lo : lo + beta]
        union = bucket[0]
        for box in bucket[1:]:
            union = union.union(box)
        if union.intersects(embr):
            out.extend(lo + i for i, box in enumerate(bucket) if box.intersects(embr))
    return out


def ref_candidates(mode, node, entries, keys, beta, embr, stops, psi):
    """The reference form of ``ZStack.candidates`` for one node."""
    if mode == "bbox":
        return ref_candidates_bbox(entries, beta, embr)
    reduce = ref_candidates_both if mode == "both" else ref_candidates_any
    return reduce(node, keys, embr, stops, psi)


def ref_node_value(block, rows, mask, spec) -> float:
    """One node's service value, scored the way the per-node walk scored
    a collecting walk: entry by entry in plain Python (covered owned
    points, or served owned segments' lengths added in segment order;
    over ``|u|`` / ``length(u)`` when normalised), then
    :func:`in_order_sum` over the node's entries.  ``rows`` index
    ``block``; ``mask`` covers their probe points end to end."""
    values = []
    p = 0
    for i in rows.tolist():
        probes = mask[p : p + int(block.probe_cnt[i])].tolist()
        p += len(probes)
        if spec.model is ServiceModel.ENDPOINT:
            values.append(1.0 if probes[0] and probes[-1] else 0.0)
            continue
        if spec.model is ServiceModel.COUNT:
            value = 0.0
            for covered in probes[: int(block.own_cnt[i])]:
                value += 1.0 if covered else 0.0
            values.append(value / block.n_points[i] if spec.normalize else value)
            continue
        lo = int(block.seg_off[i])
        value = 0.0
        for j in range(int(block.seg_cnt[i])):
            value += block.seg_len[lo + j] if probes[j] and probes[j + 1] else 0.0
        total = block.traj_len[i]
        if spec.normalize:
            value = value / total if total > 0 else 0.0
        values.append(value)
    return in_order_sum(np.array(values, dtype=np.float64))


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
