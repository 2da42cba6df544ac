"""The TQ-tree as one columnar table.

A q-node is a row: queries score *sets* of q-nodes at a time (a whole
walk, a kMaxRRST frontier), and an insert touches one node and its
ancestors, so the tree is nothing but columns:

* :class:`TreeFrame` — the node table, one row per q-node in pre-order
  (``box``, ``depth``, ``parent``, ``children``, the own list's and the
  subtree's ``SubBounds`` counters ``own`` / ``sub``, a ``stamp``), and
  the entry keys ``rows`` / ``segs`` of every list laid end to end in
  node order: node ``i`` owns keys ``row_off[i] .. row_off[i + 1] - 1``.
  The tree owns it and mutates it in place; pre-order keeps every
  subtree contiguous in nodes and in keys, so a leaf split splices the
  new subtree in right after the leaf.  A node's ``stamp`` is drawn
  from one process-wide counter whenever its list changes (an insert
  into it, a re-placement by a split), so a stamp names one list of
  one tree for the life of the process — what cached results anchor on.
  The table's ``generation`` is drawn from the same counter when it is
  made and whenever ``add_key`` / ``splice`` change it, so it names one
  version of one tree's node table — what cached division plans anchor
  on.  Its derived column, ``block``, is one
  :class:`~repro.index.block.NodeBlock` over all the keys: block row
  ``j`` is the entry ``(rows[j], segs[j])``.
* :class:`ZStack` — the paper's *ordered bucketing using z-curve*
  (Section III) for every non-empty node, stacked the same way: the
  leaf cells of each node's two adaptive partitions (over the entries'
  governing starts and ends), the entries' cells as stacked cell
  numbers, the z-sorted order as block rows, entry and bucket (z-node)
  bounding boxes.  :meth:`ZStack.candidates` is ``zReduce`` (Section
  IV-A, Algorithm 2) for any subset of the stacked nodes in one pass,
  each against its own serving envelope — no geometry on pruned
  entries.

Block and stack are derived state: the tree builds them on demand
(``TQTree.frame`` / ``TQTree.zstack``, or ahead of time in
``TQTree.warm_zindex``) and drops them whenever any node's entry list
changes.
"""

from __future__ import annotations

import itertools
from typing import Sequence, Tuple

import numpy as np

from ..core.trajectory import ranges
from ..core.zorder import boxes_within, quarter_boxes
from .block import NodeBlock

__all__ = ["TreeFrame", "ZStack", "kept_per_run", "BOTH", "ANY", "BBOX"]

#: The three ``zReduce`` candidate modes (:meth:`ZStack.candidates`).
BOTH, ANY, BBOX = "both", "any", "bbox"

#: Node stamps and table generations, unique across every tree of the
#: process.
_STAMPS = itertools.count()

#: The columns with one row per node.
_NODE_COLUMNS = ("box", "depth", "parent", "children", "n_own", "own", "sub", "stamp")


def _fresh_stamps(n: int) -> np.ndarray:
    return np.fromiter(itertools.islice(_STAMPS, n), dtype=np.int64, count=n)


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
    """The node table; see the module docstring.  Node 0 is the root
    (``parent`` ``-1``); ``children[i]`` holds the four child numbers in
    quadrant order, or ``-1`` at a leaf; ``n_own[i]`` is the length of
    node ``i``'s list; ``own[i]`` / ``sub[i]`` are ``SubBounds`` rows
    (:meth:`~repro.index.entries.SubBounds.column_for` picks a column)."""

    __slots__ = _NODE_COLUMNS + ("rows", "segs", "row_off", "generation", "block", "zstack")

    def __init__(
        self,
        box: Sequence,
        depth: Sequence[int],
        parent: Sequence[int],
        children: Sequence,
        own: Sequence,
        n_own: Sequence[int],
        rows: np.ndarray,
        segs: np.ndarray,
    ) -> None:
        """A table of fresh nodes in pre-order, each with a new stamp,
        of a new generation; ``sub`` is summed from ``own`` here, in
        reverse pre-order."""
        self.box = np.asarray(box, dtype=np.float64).reshape(-1, 4)
        self.depth = np.asarray(depth, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.children = np.asarray(children, dtype=np.int64).reshape(-1, 4)
        self.own = np.asarray(own, dtype=np.float64).reshape(-1, 5)
        self.n_own = np.asarray(n_own, dtype=np.int64)
        self.stamp = _fresh_stamps(self.n_own.size)
        self.rows, self.segs = rows, segs
        self.row_off = _offsets(self.n_own)
        self.sub = np.empty_like(self.own)
        self.sum_sub(range(len(self) - 1, -1, -1))
        self.generation = next(_STAMPS)
        self.block: "NodeBlock | None" = None
        self.zstack: "ZStack | None" = None

    def __len__(self) -> int:
        return self.n_own.size

    def path(self, i: int) -> np.ndarray:
        """Node ``i`` and its ancestors, ``i`` first, the root last."""
        chain = [i]
        while chain[-1]:
            chain.append(int(self.parent[chain[-1]]))
        return np.array(chain, dtype=np.int64)

    def sum_sub(self, nodes: Sequence[int]) -> None:
        """Re-sum ``sub`` at each of ``nodes`` in turn, children before
        parents: the own counters, then each child's ``sub`` in quadrant
        order — one sequence of adds for a build and for an insert's way
        up."""
        for i in nodes:
            total = self.own[i].tolist()
            children = self.children[i]
            if children[0] >= 0:
                for part in self.sub[children].tolist():
                    total = [a + b for a, b in zip(total, part)]
            self.sub[i] = total

    def add_key(self, i: int, row: int, seg: int, addends: np.ndarray) -> None:
        """Append the entry ``(row, seg)`` to node ``i``'s list and its
        five ``SubBounds`` addends to ``own[i]``; the node gets a new
        stamp and the table a new generation (``sub`` is the caller's to
        re-sum)."""
        at = self.row_off[i + 1]
        self.rows = np.concatenate((self.rows[:at], [row], self.rows[at:]))
        self.segs = np.concatenate((self.segs[:at], [seg], self.segs[at:]))
        self.n_own[i] += 1
        self.row_off[i + 1 :] += 1
        self.own[i] += addends
        self.stamp[i] = next(_STAMPS)
        self.generation = next(_STAMPS)
        self.block = self.zstack = None

    def splice(self, i: int, other: "TreeFrame") -> None:
        """Replace leaf ``i`` — its row and its keys — by ``other``, the
        table of a subtree over the same box: the subtree's root takes
        ``i``'s number and parent, its other nodes follow it, and every
        node after ``i`` moves up by ``len(other) - 1``; the table gets
        a new generation."""
        shift = len(other) - 1
        moved = {
            "parent": np.where(self.parent > i, self.parent + shift, self.parent),
            "children": np.where(self.children > i, self.children + shift, self.children),
        }
        placed = {
            "parent": np.concatenate(([self.parent[i]], other.parent[1:] + i)),
            "children": np.where(other.children >= 0, other.children + i, -1),
        }
        for name in _NODE_COLUMNS:
            column = moved.get(name, getattr(self, name))
            new = placed.get(name, getattr(other, name))
            setattr(self, name, np.concatenate([column[:i], new, column[i + 1 :]]))
        lo, hi = self.row_off[i], self.row_off[i + 1]
        self.rows = np.concatenate([self.rows[:lo], other.rows, self.rows[hi:]])
        self.segs = np.concatenate([self.segs[:lo], other.segs, self.segs[hi:]])
        self.row_off = _offsets(self.n_own)
        self.generation = next(_STAMPS)
        self.block = self.zstack = None


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
        self.slot_of = np.full(len(frame), -1, dtype=np.int64)
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
