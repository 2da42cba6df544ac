"""Struct-of-arrays image of an entry list.

An entry is a key ``(row, seg)`` (:mod:`repro.index.entries`); a
:class:`NodeBlock` is everything else about a list of them, as a handful
of flat columns over the tree's :class:`~repro.core.trajectory
.UserPointTable`.  A tree builds *one* block, over the key columns of
its node table (:class:`~repro.index.frame.TreeFrame`): node ``i``'s
list is block rows ``row_off[i] .. row_off[i + 1] - 1``.  The same
constructor gives a bulk build, an insert and a leaf split their
placement boxes (``gov[:, 4:8]``) and ``sub`` addends
(:meth:`~NodeBlock.own_totals`).

Row ``i`` of a block is entry ``i`` of the list.  Its probe
points (everything scoring can ever need, in point-index order) are the
CSR run ``probe_off[i] .. probe_off[i + 1]`` of ``probe_slot`` /
``probe_xy``.  The three index variants share one shape, which is what
keeps aggregation free of per-entry bookkeeping:

* the entry's *owned* points are the first ``own_cnt[i]`` probes;
* its ``seg_cnt[i]`` owned segments join consecutive probes
  ``(j, j + 1)``, with lengths in the CSR run ``seg_off[i] ..`` of
  ``seg_len``;
* on whole-trajectory entries the first and last probe are the user's
  source and destination.

``gov`` is the TQ(B) filter table, one row per entry: governing start
``(x, y)``, governing end ``(x, y)``, entry bbox ``(xmin, ymin, xmax,
ymax)`` — the layout :mod:`repro.store` persists.  The bbox is also the
entry's placement box: it sinks into a child q-node exactly when the
box's two corners share a quadrant.
"""

from __future__ import annotations

import numpy as np

from ..core.config import IndexVariant
from ..core.trajectory import UserPointTable, ranges

__all__ = ["NodeBlock"]


class NodeBlock:
    """Columns of one entry list; see the module docstring for the layout."""

    __slots__ = (
        "n",
        "rows",
        "segs",
        "probe_off",
        "probe_cnt",
        "probe_slot",
        "probe_xy",
        "gov",
        "own_cnt",
        "n_points",
        "traj_len",
        "seg_off",
        "seg_cnt",
        "seg_len",
    )

    def __init__(
        self,
        table: UserPointTable,
        variant: IndexVariant,
        rows: np.ndarray,
        segs: np.ndarray,
    ) -> None:
        """``rows`` / ``segs`` name the entries: the user's table row and
        the segment index (``-1`` for a whole-trajectory entry or a
        one-point user)."""
        n = rows.size
        self.n = n
        self.rows = rows
        self.segs = segs
        first, counts = table.first[rows], table.counts[rows]
        if variant is IndexVariant.SEGMENTED:
            on_seg = segs >= 0
            start = first + np.maximum(segs, 0)
            probe_cnt = 1 + on_seg.astype(np.int64)
            # entry i owns point i; the user's final entry also owns the last
            own_cnt = 1 + (on_seg & (segs == counts - 2))
            seg_cnt = on_seg.astype(np.int64)
            seg_index = table.seg_off[rows] + np.maximum(segs, 0)
        else:
            start = first
            if variant is IndexVariant.FULL:
                probe_cnt = counts
            else:  # ENDPOINT: source and destination only
                probe_cnt = np.minimum(counts, 2)
            own_cnt = probe_cnt
            # an endpoint pair is a segment only when it is the whole user
            seg_cnt = probe_cnt - 1 if variant is IndexVariant.FULL else (
                (counts == 2).astype(np.int64)
            )
            seg_index = table.seg_off[rows]
        self.probe_cnt = probe_cnt
        self.probe_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(probe_cnt, out=self.probe_off[1:])
        self.probe_slot = ranges(start, probe_cnt)
        if variant is IndexVariant.ENDPOINT:
            # the second probe of a pair is the user's last point
            self.probe_slot[self.probe_off[1:][probe_cnt == 2] - 1] = (
                table.last[rows][probe_cnt == 2]
            )
        self.probe_xy = table.xy[self.probe_slot]
        self.own_cnt = own_cnt
        self.n_points = table.n_points[rows]
        self.traj_len = table.traj_len[rows]
        self.seg_cnt = seg_cnt
        self.seg_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(seg_cnt, out=self.seg_off[1:])
        self.seg_len = table.seg_len[ranges(seg_index, seg_cnt)]
        self.gov = self._gov_table(variant)

    def _gov_table(self, variant: IndexVariant) -> np.ndarray:
        gov = np.empty((self.n, 8), dtype=np.float64)
        if self.n == 0:
            return gov
        lo = self.probe_off[:-1]
        hi = self.probe_off[1:] - 1
        gov[:, 0:2] = self.probe_xy[lo]
        gov[:, 2:4] = self.probe_xy[hi]
        if variant is IndexVariant.FULL:
            gov[:, 4:6] = np.minimum.reduceat(self.probe_xy, lo)
            gov[:, 6:8] = np.maximum.reduceat(self.probe_xy, lo)
        else:
            gov[:, 4:6] = np.minimum(gov[:, 0:2], gov[:, 2:4])
            gov[:, 6:8] = np.maximum(gov[:, 0:2], gov[:, 2:4])
        return gov

    # ------------------------------------------------------------------
    def own_totals(self) -> np.ndarray:
        """The five ``SubBounds`` addends per entry, one ``(n, 5)`` row
        each in the node table's ``own`` / ``sub`` column order: 1,
        owned points, owned length, owned points over ``|u|``, owned
        length over ``length(u)``."""
        owner = np.repeat(np.arange(self.n, dtype=np.int64), self.seg_cnt)
        own_len = np.bincount(owner, weights=self.seg_len, minlength=self.n)
        norm_len = np.zeros(self.n, dtype=np.float64)
        np.divide(own_len, self.traj_len, out=norm_len, where=self.traj_len > 0)
        return np.column_stack(
            [np.ones(self.n), self.own_cnt, own_len, self.own_cnt / self.n_points, norm_len]
        )
