"""Range search over a TQ-tree (the paper's future-work query variants).

The paper closes with "we will investigate the effectiveness of the
TQ-tree for other variants of queries on trajectory databases".  Two
natural variants fall straight out of the structure:

* :func:`trajectories_in_range` — every user trajectory with at least
  one (or with every) indexed point inside a query rectangle;
* :func:`trajectories_served_by_stop` — every user trajectory that a
  single candidate stop location can touch within ``psi`` (a one-stop
  facility; useful for siting an individual station).

Both read the tree's frame: q-node boxes select the entry lists that can
hold an answer, and one exact geometric pass over those lists' probe
points decides.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..core.errors import QueryError
from ..core.geometry import BBox, Point
from ..core.service import StopSet
from ..core.trajectory import ranges
from ..core.zorder import boxes_meet
from ..index.block import NodeBlock
from ..index.frame import TreeFrame
from ..index.tqtree import TQTree

__all__ = ["trajectories_in_range", "trajectories_served_by_stop"]


def _listed(frame: TreeFrame, box: BBox) -> np.ndarray:
    """Block rows of every entry stored at a q-node whose region meets
    ``box`` — an entry's points lie inside its node's region, so no
    other entry has a point in ``box``."""
    near = boxes_meet(frame.box, box)
    return ranges(frame.row_off[:-1][near], frame.n_own[near])


def _probes(block: NodeBlock, entries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The probe coordinates of ``entries`` laid end to end, and where
    each entry's (never empty) run starts."""
    counts = block.probe_cnt[entries]
    at = ranges(block.probe_off[entries], counts)
    return block.probe_xy[at], np.cumsum(counts) - counts


def trajectories_in_range(
    tree: TQTree, box: BBox, mode: str = "any"
) -> List[int]:
    """Trajectory ids with points inside ``box``.

    ``mode="any"`` matches trajectories with at least one *indexed* point
    in the box; ``mode="all"`` requires every indexed point inside.

    "Indexed" means the entry's probe points: all points on SEGMENTED and
    FULL indexes, but only the two endpoints on an ENDPOINT index (an
    endpoint entry's interior points are not placement-constrained, so no
    tree traversal can answer about them exactly — build a FULL-variant
    index for whole-polyline range semantics).
    """
    if mode not in ("any", "all"):
        raise QueryError(f"mode must be 'any' or 'all', got {mode!r}")
    frame = tree.frame()
    block = frame.block
    listed = _listed(frame, box)
    xy, run_lo = _probes(block, listed)
    inside = (
        (xy[:, 0] >= box.xmin) & (xy[:, 0] <= box.xmax)
        & (xy[:, 1] >= box.ymin) & (xy[:, 1] <= box.ymax)
    )
    ids = tree.table.traj_ids[block.rows]
    ok = np.zeros(block.n, dtype=bool)
    if mode == "any":
        ok[listed] = np.logical_or.reduceat(inside, run_lo)
        return np.unique(ids[ok]).tolist()
    # an entry outside the listed nodes lies wholly outside the box, and
    # one entry with a point outside disqualifies its trajectory
    ok[listed] = np.logical_and.reduceat(inside, run_lo)
    return np.setdiff1d(ids[ok], ids[~ok]).tolist()


def trajectories_served_by_stop(
    tree: TQTree, stop: Point, psi: float, require_both_endpoints: bool = True
) -> List[int]:
    """Trajectory ids a single stop at ``stop`` can serve within ``psi``.

    With ``require_both_endpoints`` (the Scenario-1 reading) both the
    source and destination must lie within ``psi`` of the stop; otherwise
    one served probe point suffices (the partial-service reading).
    """
    if psi < 0:
        raise QueryError(f"psi must be >= 0, got {psi}")
    stops = StopSet(np.array([[stop.x, stop.y]], dtype=np.float64))
    envelope = BBox(stop.x, stop.y, stop.x, stop.y).expanded(psi)
    frame, table = tree.frame(), tree.table
    block = frame.block
    listed = _listed(frame, envelope)
    listed = listed[boxes_meet(block.gov[listed, 4:8], envelope)]
    if require_both_endpoints:
        rows = np.unique(block.rows[listed])
        ends = np.concatenate([table.first[rows], table.last[rows]])
        near = stops.covered_mask(table.xy[ends], psi)
        served = rows[near[: rows.size] & near[rows.size :]]
    else:
        xy, run_lo = _probes(block, listed)
        near = stops.covered_mask(xy, psi)
        served = block.rows[listed][np.logical_or.reduceat(near, run_lo)]
    return np.unique(table.traj_ids[served]).tolist()
