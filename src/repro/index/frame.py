"""The TQ-tree as one columnar frame.

Queries score *sets* of q-nodes at a time (a whole walk, a kMaxRRST
frontier), so what they read is not one node's block but the tree's:

* :class:`TreeFrame` — the q-nodes as arrays in pre-order (box,
  children, own list length, ``sub`` bounds, row offsets) over one
  tree-wide :class:`~repro.index.block.NodeBlock` whose rows are every
  node's entry list laid end to end.  Node ``i`` owns block rows
  ``row_off[i] .. row_off[i + 1] - 1``; its own ``NodeBlock``
  (``TQTree.node_block``) is a window of views onto those rows, not a
  copy.
* :class:`ZStack` — the paper's *ordered bucketing using z-curve*
  (Section III) for every non-empty node, stacked the same way: the
  leaf cells of each node's two adaptive partitions (over the entries'
  governing starts and ends), the entries' cells as stacked cell
  numbers, the z-sorted order as block rows, entry and bucket (z-node)
  bounding boxes.  :meth:`ZStack.candidates` is ``zReduce`` (Section
  IV-A, Algorithm 2) for any subset of the stacked nodes in one pass,
  each against its own serving envelope — no geometry on pruned
  entries.

Both are derived state: the tree builds them on demand
(``TQTree.frame`` / ``TQTree.zstack``, or ahead of time in
``TQTree.warm_zindex``) and drops them whenever any node's entry list
changes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.trajectory import ranges
from ..core.zorder import boxes_within, quarter_boxes
from .block import NodeBlock

__all__ = ["TreeFrame", "ZStack", "kept_per_run", "BOTH", "ANY", "BBOX"]

#: The three ``zReduce`` candidate modes (:meth:`ZStack.candidates`).
BOTH, ANY, BBOX = "both", "any", "bbox"


def _meets(boxes: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Row-wise closed intersection of two ``(n, 4)`` box tables."""
    return ((boxes[:, :2] <= other[:, 2:]) & (boxes[:, 2:] >= other[:, :2])).all(axis=1)


def kept_per_run(keep: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """How many ``keep`` flags are set inside each of the consecutive
    runs of lengths ``counts`` the flags are laid out in."""
    kept = np.concatenate(([0], np.cumsum(keep)))
    ends = np.cumsum(counts)
    return kept[ends] - kept[ends - counts]


def _offsets(counts: Sequence[int]) -> np.ndarray:
    off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    return off


class TreeFrame:
    """Pre-order node arrays over the tree-wide block; see the module
    docstring.  ``nodes[i]`` is the q-node numbered ``i`` and
    ``index_of[id(node)]`` its number; ``children[i]`` holds the four
    child numbers or ``-1``; ``sub[i]`` is ``node.sub.as_row()``."""

    __slots__ = (
        "nodes", "index_of", "box", "children", "n_own", "sub",
        "row_off", "block", "zstack",
    )

    def __init__(self, nodes: List, block: NodeBlock) -> None:
        n = len(nodes)
        self.nodes = nodes
        self.index_of: Dict[int, int] = {id(node): i for i, node in enumerate(nodes)}
        number = self.index_of
        self.box = np.array(
            [(b.xmin, b.ymin, b.xmax, b.ymax) for b in (node.box for node in nodes)],
            dtype=np.float64,
        ).reshape(n, 4)
        self.children = np.full((n, 4), -1, dtype=np.int64)
        for i, node in enumerate(nodes):
            if node.children is not None:
                self.children[i] = [number[id(child)] for child in node.children]
        self.n_own = np.fromiter(
            (node.n_own for node in nodes), dtype=np.int64, count=n
        )
        self.sub = np.array(
            [node.sub.as_row() for node in nodes], dtype=np.float64
        ).reshape(n, 5)
        self.row_off = _offsets(self.n_own)
        self.block = block
        self.zstack: "ZStack | None" = None


class ZStack:
    """The z-structure of every non-empty frame node (ascending
    numbers), stacked; ``slot_of[i]`` is node ``i``'s position in the
    stack or -1.

    Each node's box is partitioned adaptively twice
    (:func:`~repro.core.zorder.quarter_boxes`, at most ``beta`` points
    per cell): over its entries' governing starts and over their
    governing ends.  An entry's two leaf ranks are its start and end
    z-id; a node's entries are sorted by ``(start z-id, end z-id,
    traj_id, seg)`` — the order is a function of the entry set, not of
    list order — and cut into buckets (z-nodes, one disk block each) of
    ``beta`` consecutive positions.

    Stacked node ``k`` owns cells ``cell_off[k] .. cell_off[k + 1] - 1``
    of ``cell_box`` (its start partition's leaves, then its end
    partition's), z-sorted positions ``pos_off[k] ..`` of ``start_cell``
    / ``end_cell`` (stacked cell numbers), ``row`` (block rows),
    ``bbox`` and ``bucket`` (stacked bucket numbers), and buckets
    ``bucket_off[k] ..`` of ``bucket_box`` (the union of its members'
    ``bbox``).
    """

    __slots__ = (
        "slot_of", "cell_box", "cell_off", "pos_off",
        "start_cell", "end_cell", "row", "bbox", "bucket", "bucket_box",
        "bucket_off",
    )

    def __init__(
        self, frame: TreeFrame, traj_ids: np.ndarray, beta: int, z_max_depth: int
    ) -> None:
        """``traj_ids`` is the tree's table column (the block's ``rows``
        index it)."""
        block = frame.block
        node = np.flatnonzero(frame.n_own)
        counts = frame.n_own[node]
        self.slot_of = np.full(len(frame.nodes), -1, dtype=np.int64)
        self.slot_of[node] = np.arange(node.size)
        # every block row belongs to a stacked node, in stack order
        owner = np.repeat(np.arange(node.size), counts)
        boxes = frame.box[node]
        start_box, start_off, start_rank = quarter_boxes(
            boxes, owner, block.gov[:, 0:2], beta, z_max_depth
        )
        end_box, end_off, end_rank = quarter_boxes(
            boxes, owner, block.gov[:, 2:4], beta, z_max_depth
        )
        n_start, n_end = np.diff(start_off), np.diff(end_off)
        self.cell_off = _offsets(n_start + n_end)
        cell_lo = self.cell_off[:-1]
        self.cell_box = np.empty((int(self.cell_off[-1]), 4), dtype=np.float64)
        self.cell_box[ranges(cell_lo, n_start)] = start_box
        self.cell_box[ranges(cell_lo + n_start, n_end)] = end_box
        self.row = np.lexsort(
            (block.segs, traj_ids[block.rows], end_rank, start_rank, owner)
        )
        self.start_cell = (cell_lo[owner] + start_rank)[self.row]
        self.end_cell = ((cell_lo + n_start)[owner] + end_rank)[self.row]
        self.bbox = block.gov[self.row, 4:8]
        self.pos_off = _offsets(counts)
        self.bucket_off = _offsets(-(-counts // beta))
        within = np.arange(owner.size) - self.pos_off[owner]
        self.bucket = within // beta + self.bucket_off[owner]
        first = np.flatnonzero(within % beta == 0)
        self.bucket_box = np.hstack(
            [
                np.minimum.reduceat(self.bbox[:, 0:2], first),
                np.maximum.reduceat(self.bbox[:, 2:4], first),
            ]
        ) if first.size else np.zeros((0, 4), dtype=np.float64)

    def _span(self, off: np.ndarray, slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The stacked numbers owned by ``slots`` laid end to end, and
        how many each slot owns."""
        counts = off[slots + 1] - off[slots]
        return ranges(off[slots], counts), counts

    def candidates(
        self,
        slots: np.ndarray,
        embr: np.ndarray,
        mode: str,
        stops: np.ndarray,
        psi: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``zReduce`` over the stacked nodes ``slots`` at once, node
        ``slots[j]`` against the serving envelope ``embr[j]``: the
        surviving stacked positions — per node ascending, i.e. in its
        z-sorted order, nodes in ``slots`` order — and how many survive
        per node.  A cell meets the serving area when it intersects the
        envelope and lies within ``psi`` of a stop; the three modes
        cover the service models soundly (DESIGN.md §4.2):

        * ``BOTH`` — start *and* end cell must meet the serving area:
          the paper's two-step zReduce (Example 4), exact for ENDPOINT
          service and for LENGTH on 2-point entries;
        * ``ANY`` — start *or* end cell must meet it (sound for COUNT on
          2-point entries, where either endpoint can contribute);
        * ``BBOX`` — bucket boxes prune against the envelope, then entry
          boxes (sound for FULL-variant entries, whose interior points
          may lie far from both governing endpoints).

        ``stops`` may be any superset of each node's component that
        holds only stops of the same facility: a cell lies inside its
        node's box, so a stop within ``psi`` of it is within the box
        grown by ``psi`` — a member of the node's component already.
        """
        pos, n = self._span(self.pos_off, slots)
        if mode == BBOX:
            buckets, n_buckets = self._span(self.bucket_off, slots)
            bucket_ok = np.zeros(self.bucket_box.shape[0], dtype=bool)
            bucket_ok[buckets] = _meets(
                self.bucket_box[buckets], np.repeat(embr, n_buckets, axis=0)
            )
            keep = bucket_ok[self.bucket[pos]] & _meets(
                self.bbox[pos], np.repeat(embr, n, axis=0)
            )
        else:
            cells, n_cells = self._span(self.cell_off, slots)
            boxes = self.cell_box[cells]
            near = np.flatnonzero(_meets(boxes, np.repeat(embr, n_cells, axis=0)))
            ok = np.zeros(self.cell_box.shape[0], dtype=bool)
            ok[cells[near]] = boxes_within(boxes[near], stops, psi)
            start_ok, end_ok = ok[self.start_cell[pos]], ok[self.end_cell[pos]]
            keep = start_ok & end_ok if mode == BOTH else start_ok | end_ok
        return pos[keep], kept_per_run(keep, n)
