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
* :class:`ZStack` — the :class:`~repro.index.zindex.ZOrderedList`
  columns of many nodes stacked the same way: leaf cells of both grids,
  the entries' cell ranks rebased to stacked cell numbers, the z-sorted
  order rebased to block rows, entry and bucket bounding boxes.
  :meth:`ZStack.candidates` is ``zReduce`` for any subset of the stacked
  nodes in one pass, each against its own serving envelope.

Both are derived state: the tree builds them on demand
(``TQTree.frame`` / ``TQTree.zstack``, or ahead of time in
``TQTree.warm_zindex``) and drops them whenever any node's entry list
changes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.trajectory import ranges
from ..core.zorder import boxes_within
from .block import NodeBlock
from .zindex import ZOrderedList

__all__ = ["TreeFrame", "ZStack", "kept_per_run", "BOTH", "ANY", "BBOX"]

#: The three ``zReduce`` candidate modes (see :mod:`repro.index.zindex`).
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
    """The z-structures of some frame nodes (ascending numbers),
    stacked; ``slot_of[i]`` is node ``i``'s position in the stack or -1.

    Stacked node ``k`` owns cells ``cell_off[k] .. cell_off[k + 1] - 1``
    of ``cell_box`` (its start grid's leaves, then its end grid's), z-
    sorted positions ``pos_off[k] ..`` of ``start_cell`` / ``end_cell``
    (stacked cell numbers), ``row`` (block rows), ``bbox`` and
    ``bucket`` (stacked bucket numbers), and buckets ``bucket_off[k] ..``
    of ``bucket_box``.  ``min_len`` is the list length from which nodes
    were stacked.
    """

    __slots__ = (
        "min_len", "slot_of", "cell_box", "cell_off", "pos_off",
        "start_cell", "end_cell", "row", "bbox", "bucket", "bucket_box",
        "bucket_off",
    )

    def __init__(
        self,
        frame: TreeFrame,
        node: np.ndarray,
        zlists: Sequence[ZOrderedList],
        min_len: int,
    ) -> None:
        self.min_len = min_len
        self.slot_of = np.full(len(frame.nodes), -1, dtype=np.int64)
        self.slot_of[node] = np.arange(node.size)
        starts = [zl.start_grid.leaf_boxes() for zl in zlists]
        ends = [zl.end_grid.leaf_boxes() for zl in zlists]
        self.cell_off = _offsets([s.shape[0] + e.shape[0] for s, e in zip(starts, ends)])
        self.pos_off = _offsets([len(zl) for zl in zlists])
        self.bucket_off = _offsets([zl.n_buckets for zl in zlists])
        row_lo = frame.row_off[node].tolist()

        def stacked(parts, width=None):
            if parts:
                return np.concatenate(parts)
            shape = (0,) if width is None else (0, width)
            return np.zeros(shape, dtype=np.int64 if width is None else np.float64)

        self.cell_box = stacked([b for pair in zip(starts, ends) for b in pair], 4)
        cell_lo = self.cell_off.tolist()
        self.start_cell = stacked(
            [zl.start_rank + cell_lo[k] for k, zl in enumerate(zlists)]
        )
        self.end_cell = stacked(
            [zl.end_rank + (cell_lo[k] + starts[k].shape[0]) for k, zl in enumerate(zlists)]
        )
        self.row = stacked([zl.order + row_lo[k] for k, zl in enumerate(zlists)])
        self.bbox = stacked([zl.bbox for zl in zlists], 4)
        bucket_lo = self.bucket_off.tolist()
        self.bucket = stacked(
            [np.arange(len(zl)) // zl.beta + bucket_lo[k] for k, zl in enumerate(zlists)]
        )
        self.bucket_box = stacked([zl.bucket_bbox for zl in zlists], 4)

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
        per node.  Per node the survivors are exactly
        ``ZOrderedList.candidates_both / _any / _bbox`` (``mode``).

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
