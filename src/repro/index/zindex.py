"""Z-ordered bucket lists inside a q-node (the "Z" of TQ(Z)).

Implements the paper's *ordered bucketing using z-curve* (Section III) and
the ``zReduce`` pruning primitive (Section IV-A, Algorithm 2):

1. the node's space is partitioned adaptively over the entries' *start*
   points (at most ``beta`` starts per cell) — each cell's digit path is a
   start z-id;
2. the same is done for *end* points, with extra refinement so that two
   entries sharing a start z-id get distinct end z-ids where possible;
3. entries are kept sorted by ``(start z-id, end z-id)`` in buckets
   (*z-nodes*) of at most ``beta`` entries.

``zReduce`` narrows a node's entry list to the entries whose z-cells meet
the facility component's serving area — no geometry on pruned entries.
The sorted order is held as flat columns: per entry the *rank* (ordinal
in Z order) of its start and of its end leaf cell, so a z-id comparison
is an integer comparison, a cell selection is a boolean column over the
ranks, and every candidate mode is one line of mask algebra returning
positions in the sorted order.

Three candidate modes cover the service models soundly (DESIGN.md §4.2):

* ``candidates_both``  — start *and* end cell must meet the serving area
  (exact for ENDPOINT service, and for LENGTH on 2-point entries);
* ``candidates_any``   — start *or* end cell must meet it (sound for
  COUNT on 2-point entries, where either endpoint can contribute);
* ``candidates_bbox``  — z-node bucket bounding boxes prune, then entry
  bounding boxes (sound for FULL-variant entries whose interior points
  may lie far from both governing endpoints).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.errors import IndexError_
from ..core.geometry import BBox, Point
from ..core.zorder import AdaptiveZGrid

__all__ = ["ZOrderedList", "boxes_meet"]


def boxes_meet(boxes: np.ndarray, box: BBox) -> np.ndarray:
    """Which ``(xmin, ymin, xmax, ymax)`` rows intersect ``box`` (closed)."""
    return (
        (boxes[:, 0] <= box.xmax)
        & (boxes[:, 2] >= box.xmin)
        & (boxes[:, 1] <= box.ymax)
        & (boxes[:, 3] >= box.ymin)
    )


class ZOrderedList:
    """The sorted, bucketed entry list of one q-node.

    Parameters
    ----------
    space:
        The q-node's region; all governing points lie inside it.
    ids:
        The entries' ``(traj_id, seg)`` pairs, an ``(n, 2)`` integer
        array — the last sort key, so the order is a function of the
        entry set, not of list order.
    beta:
        Cell capacity for the adaptive grids and the z-node bucket size.
    z_max_depth:
        Depth cap of the adaptive grids.
    gov:
        The entries' ``(n, 8)`` filter table — the ``gov`` column of
        their :class:`~repro.index.block.NodeBlock`.

    Position ``i`` of the sorted order is input entry ``order[i]``,
    with start / end leaf ranks ``start_rank[i]`` /
    ``end_rank[i]`` and bounding box ``bbox[i]``; bucket ``b`` (a z-node)
    is the positions ``b * beta .. (b + 1) * beta - 1`` with union box
    ``bucket_bbox[b]``.
    """

    #: Grid cells hold up to ``cell_beta_factor * beta`` driving points.
    #: 1 is the paper's layout (cell capacity == block size beta); larger
    #: factors coarsen the grids, trading zReduce selectivity for fewer
    #: cell tests.  With disambiguation off, 1 measures fastest.
    cell_beta_factor: int = 1

    def __init__(
        self,
        space: BBox,
        ids: np.ndarray,
        beta: int,
        z_max_depth: int = 12,
        disambiguation_passes: int = 0,
        *,
        gov: np.ndarray,
    ) -> None:
        """``disambiguation_passes`` > 0 enables the paper's Section III
        step (ii): refining the end grid until entries sharing a start
        z-id get distinct end z-ids.  Uniqueness only sharpens the sorted
        order (ties are already broken by entry id); on hotspot-skewed
        data the refinement multiplies the end grid's leaf count ~10x for
        no pruning benefit, so it defaults off."""
        if beta < 1:
            raise IndexError_(f"beta must be >= 1, got {beta}")
        self.space = space
        self.beta = beta
        self.z_max_depth = z_max_depth
        self.disambiguation_passes = disambiguation_passes

        starts, ends = gov[:, 0:2], gov[:, 2:4]
        cell_beta = max(1, self.cell_beta_factor * beta)
        self.start_grid = AdaptiveZGrid(space, starts, cell_beta, z_max_depth)
        self.end_grid = AdaptiveZGrid(space, ends, cell_beta, z_max_depth)
        self._disambiguate_end_ids(starts, ends)

        # sort key of an entry: (start z-id, end z-id, entry id)
        start_rank = self.start_grid.ranks_of(starts)
        end_rank = self.end_grid.ranks_of(ends)
        self.order = np.lexsort((ids[:, 1], ids[:, 0], end_rank, start_rank))
        self.start_rank = start_rank[self.order]
        self.end_rank = end_rank[self.order]
        self.bbox = gov[self.order, 4:8]
        lo = np.arange(0, self.order.size, beta)
        self.bucket_bbox = np.hstack(
            [
                np.minimum.reduceat(self.bbox[:, 0:2], lo),
                np.maximum.reduceat(self.bbox[:, 2:4], lo),
            ]
        ) if lo.size else np.zeros((0, 4), dtype=np.float64)

    # ------------------------------------------------------------------
    def _disambiguate_end_ids(self, starts: np.ndarray, ends: np.ndarray) -> None:
        """Refine the end grid until entries sharing a start z-id have
        distinct end z-ids (paper Section III step (ii)), bounded by the
        configured pass count and the depth cap so identical point pairs
        terminate."""
        for _ in range(min(self.disambiguation_passes, self.z_max_depth)):
            start_rank = self.start_grid.ranks_of(starts)
            end_rank = self.end_grid.ranks_of(ends)
            pair = start_rank * (int(end_rank.max(initial=0)) + 1) + end_rank
            _, inverse, counts = np.unique(
                pair, return_inverse=True, return_counts=True
            )
            refined_any = False
            seen_cells = set()
            for i in np.flatnonzero(counts[inverse] > 1).tolist():
                p = Point(float(ends[i, 0]), float(ends[i, 1]))
                cell = self.end_grid.zid_of(p).digits
                if cell in seen_cells:
                    continue
                seen_cells.add(cell)
                if len(cell) < self.z_max_depth:
                    self.end_grid.refine_at(p, 1)
                    refined_any = True
            if not refined_any:
                return

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.order.size

    @property
    def n_buckets(self) -> int:
        return int(self.bucket_bbox.shape[0])

    def bucket_sizes(self) -> List[int]:
        n = len(self)
        return [min(self.beta, n - lo) for lo in range(0, n, self.beta)]

    def buckets_touched(self, idx: np.ndarray) -> int:
        """How many buckets (z-nodes, one disk block each) hold the
        sorted-order positions ``idx``."""
        return int(np.unique(idx // self.beta).size)

    # ------------------------------------------------------------------
    # the three zReduce candidate modes: sorted-order positions, ascending
    # ------------------------------------------------------------------
    def candidates_both(
        self, embr: BBox, stops=None, psi: float = 0.0
    ) -> np.ndarray:
        """Entries whose start *and* end z-cells meet the serving area.

        This is the paper's two-step zReduce (Example 4): reduce by start
        z-ids, then by end z-ids — here one conjunction of the two
        served-cell columns read at the entries' ranks.  ``stops`` (an
        ``(m, 2)`` array) tightens cell selection from the EMBR box to
        the true union-of-discs serving area.
        """
        start_ok = self.start_grid.cells_serving(embr, stops, psi)
        end_ok = self.end_grid.cells_serving(embr, stops, psi)
        return np.flatnonzero(start_ok[self.start_rank] & end_ok[self.end_rank])

    def candidates_any(
        self, embr: BBox, stops=None, psi: float = 0.0
    ) -> np.ndarray:
        """Entries whose start *or* end z-cell meets the serving area."""
        start_ok = self.start_grid.cells_serving(embr, stops, psi)
        end_ok = self.end_grid.cells_serving(embr, stops, psi)
        return np.flatnonzero(start_ok[self.start_rank] | end_ok[self.end_rank])

    def candidates_bbox(self, embr: BBox) -> np.ndarray:
        """Entries whose own bbox meets ``embr``, pruned bucket-first.

        Sound for FULL-variant entries: a bucket's bbox covers every point
        of every member entry, so skipped buckets cannot contribute.
        """
        in_bucket = np.repeat(boxes_meet(self.bucket_bbox, embr), self.beta)
        return np.flatnonzero(
            in_bucket[: len(self)] & boxes_meet(self.bbox, embr)
        )
