"""The Trajectory Quadtree (TQ-tree) — the paper's core index (Section III).

A TQ-tree hierarchically organises trajectory *entries* — ``(row, seg)``
keys over the tree's :class:`~repro.core.trajectory.UserPointTable`
(:mod:`repro.index.entries`) — in a region quadtree:

* an internal q-node stores its **inter-node** entries — those whose
  placement points span two or more of its immediate children;
* a leaf q-node stores its **intra-node** entries — at most ``beta`` of
  them (unless the depth cap absorbed a pathological cluster);
* unlike a conventional spatial index, *every level* stores data: long
  trajectories live high in the tree, short ones sink low.

With ``config.use_zorder`` (TQ(Z)), each q-node's entry list is z-ordered
and bucketed (:class:`~repro.index.frame.ZStack`); without it (TQ(B)),
the list stays flat and queries scan it linearly.

A q-node is a row of the tree's node table
(:class:`~repro.index.frame.TreeFrame`), numbered in pre-order, the
root 0; its list is a run of the table's two key columns.  Queries read
the columns derived from the keys — one tree-wide
:class:`~repro.index.block.NodeBlock` and, on TQ(Z), the z-structure of
every list stacked beside it — which are built lazily (or by
:meth:`TQTree.warm_zindex`) and dropped by every insert.  Bulk build,
insert and leaf split route a box with one rule
(:meth:`TQTree._corner_quadrants`), so a tree grown by inserts is the
table a build over the same users makes, generation aside.

The tree supports dynamic inserts (Section III-C).  One deliberate
deviation from the paper: after an insert the z-structure is rebuilt
lazily on the next query rather than patched in place (the paper
re-assigns at most ``beta`` z-ids eagerly).  Both approaches keep
queries exact; lazy rebuild is simpler and amortises identically under
batched updates.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import TQTreeConfig
from ..core.errors import IndexError_, TrajectoryError
from ..core.geometry import BBox
from ..core.service import ServiceSpec
from ..core.trajectory import Trajectory, UserPointTable
from .block import NodeBlock
from .frame import TreeFrame, ZStack
from .entries import entry_keys, validate_spec_for_variant

__all__ = ["TQTree"]


class TQTree:
    """The TQ-tree over a set of user trajectories.

    Build with :meth:`build` (bulk) or construct empty and :meth:`insert`.

    Parameters
    ----------
    space:
        The indexed region.  Every trajectory point must lie inside it.
    config:
        Structural knobs; see :class:`~repro.core.config.TQTreeConfig`.
    """

    def __init__(self, space: BBox, config: TQTreeConfig = TQTreeConfig()) -> None:
        self.space = space
        self.config = config
        # the users: a table, plus the one-user tables of inserts not yet
        # appended to it (by trajectory id; see the ``table`` property)
        self._table = UserPointTable(())
        self._pending: Dict[int, UserPointTable] = {}
        self._max_traj_points = 0
        no_keys = np.zeros(0, dtype=np.int64)
        self._frame = self._subtree(
            (space.xmin, space.ymin, space.xmax, space.ymax), 0, no_keys, no_keys
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        users: Sequence[Trajectory],
        config: TQTreeConfig = TQTreeConfig(),
        space: Optional[BBox] = None,
    ) -> "TQTree":
        """Bulk-build the index over ``users``.

        When ``space`` is omitted it is the tight bbox of all points,
        padded slightly so boundary points never fall outside after
        floating-point subdivision.
        """
        try:
            table = UserPointTable.of(users)
        except TrajectoryError as exc:
            raise IndexError_(str(exc)) from exc
        if space is None:
            if not table.n_users:
                raise IndexError_("cannot infer space from an empty user set")
            xmin, ymin = table.xy.min(axis=0).tolist()
            xmax, ymax = table.xy.max(axis=0).tolist()
            tight = BBox(xmin, ymin, xmax, ymax)
            pad = max(tight.width, tight.height, 1.0) * 1e-9 + 1e-9
            space = tight.expanded(pad)
        tree = cls(space, config)
        tree._check_inside(table)
        tree._table = table
        tree._max_traj_points = int(table.counts.max(initial=0))
        tree._frame = tree._subtree(
            tree._frame.box[0].tolist(), 0, *entry_keys(table, config.variant)
        )
        return tree

    def _check_inside(self, table: UserPointTable) -> None:
        """Every point of every user of ``table`` lies in the space."""
        xy, space = table.xy, self.space
        outside = np.flatnonzero(
            (xy[:, 0] < space.xmin) | (xy[:, 0] > space.xmax)
            | (xy[:, 1] < space.ymin) | (xy[:, 1] > space.ymax)
        )
        if outside.size:
            slot = int(outside[0])
            row = int(table.pt_owner[slot])
            traj = table.users[row]
            raise IndexError_(
                f"trajectory {traj.traj_id} point "
                f"{traj.points[slot - int(table.first[row])]} outside indexed "
                f"space {self.space}"
            )

    def _subtree(
        self, box: Sequence[float], depth: int, rows: np.ndarray, segs: np.ndarray
    ) -> TreeFrame:
        """The table of the subtree a bulk build makes of the entries
        ``(rows, segs)`` below a node at ``depth`` spanning ``box``
        (``(xmin, ymin, xmax, ymax)``; every entry inside it): one block
        over the keys gives their placement boxes."""
        block = NodeBlock(self.table, self.config.variant, rows, segs)
        nodes: List[tuple] = []
        self._bulk_build(nodes, box, depth, -1, block.gov[:, 4:8], np.arange(block.n))
        box, depth, parent, children, stay = zip(*nodes)
        keep = np.concatenate(stay)
        return TreeFrame(
            box, depth, parent, children, [s.size for s in stay], rows[keep], segs[keep]
        )

    @staticmethod
    def _corner_quadrants(box: Sequence[float], bbox: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``BBox.quadrant_of`` for the min and the max corner of every
        placement box: an entry sinks into a child of the node spanning
        ``box`` (``(xmin, ymin, xmax, ymax)``) exactly when the two
        agree."""
        cx = (box[0] + box[2]) / 2.0
        cy = (box[1] + box[3]) / 2.0
        up = bbox >= np.array([cx, cy, cx, cy])
        # columns (x >= cx, y >= cy) of the min corner, then the max
        q = up[:, 0::2] | (up[:, 1::2] << 1)
        return q[:, 0], q[:, 1]

    def _bulk_build(
        self,
        nodes: List[tuple],
        box: Sequence[float],
        depth: int,
        parent: int,
        bbox: np.ndarray,
        idx: np.ndarray,
    ) -> int:
        """Append, in pre-order, the rows ``(box, depth, parent,
        children, kept positions)`` of the subtree spanning ``box`` that
        holds the entries numbered ``idx`` (ascending positions of
        ``bbox``, every entry's placement box); returns its root's
        number in ``nodes``."""
        cfg = self.config
        stay = idx
        groups = None
        if len(idx) > cfg.beta and depth < cfg.max_depth:
            q_lo, q_hi = self._corner_quadrants(box, bbox[idx])
            sinks = q_lo == q_hi
            # when splitting makes no progress (everything is inter-node
            # here) the node stays a leaf per the paper's termination rule
            if sinks.any():
                stay = idx[~sinks]
                groups = [idx[sinks & (q_lo == d)] for d in range(4)]
        at, children = len(nodes), [-1] * 4
        nodes.append((box, depth, parent, children, stay))
        if groups is not None:
            for d, quad in enumerate(BBox(*box).quadrants()):
                children[d] = self._bulk_build(
                    nodes, (quad.xmin, quad.ymin, quad.xmax, quad.ymax), depth + 1,
                    at, bbox, groups[d],
                )
        return at

    # ------------------------------------------------------------------
    # dynamic updates (Section III-C)
    # ------------------------------------------------------------------
    def insert(self, traj: Trajectory) -> None:
        """Insert one trajectory: per entry an O(h) descent and a splice
        into the key columns, plus local splits."""
        if traj.traj_id in self._table.row_of or traj.traj_id in self._pending:
            raise IndexError_(f"duplicate trajectory id {traj.traj_id}")
        alone = UserPointTable((traj,))
        self._check_inside(alone)
        row = self.n_trajectories
        self._pending[traj.traj_id] = alone
        self._max_traj_points = max(self._max_traj_points, traj.n_points)
        variant = self.config.variant
        # the new user's entries as a block of their own: the placement
        # boxes a bulk build would compute for them
        block = NodeBlock(alone, variant, *entry_keys(alone, variant))
        bbox = block.gov[:, 4:8]
        for k, seg in enumerate(block.segs.tolist()):
            self._insert_entry(row, seg, bbox[k : k + 1])

    def _insert_entry(self, row: int, seg: int, bbox: np.ndarray) -> None:
        cfg, frame = self.config, self._frame
        i = self._descend(bbox)
        frame.add_key(i, row, seg)
        if (
            frame.children[i, 0] < 0
            and frame.n_own[i] > cfg.beta
            and frame.depth[i] < cfg.max_depth
        ):
            # the children a bulk build over the leaf's keys would make
            lo, hi = frame.row_off[i : i + 2]
            frame.splice(i, self._subtree(
                frame.box[i].tolist(), int(frame.depth[i]),
                frame.rows[lo:hi], frame.segs[lo:hi],
            ))
        frame.sum_sub(frame.path(i).tolist())

    def _descend(self, bbox: np.ndarray) -> int:
        """The node a placement box (one ``(1, 4)`` row) is routed to:
        down from the root while both corners fall in one quadrant."""
        frame, i = self._frame, 0
        while frame.children[i, 0] >= 0:
            q_lo, q_hi = self._corner_quadrants(frame.box[i], bbox)
            if q_lo[0] != q_hi[0]:
                break
            i = int(frame.children[i, q_lo[0]])
        return i

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_trajectories(self) -> int:
        return self._table.n_users + len(self._pending)

    @property
    def n_entries(self) -> int:
        return self._frame.rows.size

    def trajectory(self, traj_id: int) -> Trajectory:
        table = self.table
        try:
            return table.users[table.row_of[traj_id]]
        except KeyError:
            raise IndexError_(f"unknown trajectory id {traj_id}") from None

    def trajectories(self) -> Iterator[Trajectory]:
        return iter(self.table.users)

    def height(self) -> int:
        """Levels from the root to the deepest node (always a leaf)."""
        return int(self._frame.depth.max()) + 1

    def validate_spec(self, spec: ServiceSpec) -> None:
        """Raise :class:`QueryError` when ``spec`` cannot be answered
        exactly by this index's variant (see entries.py for the rules)."""
        validate_spec_for_variant(spec, self.config.variant, self._max_traj_points)

    @property
    def table(self) -> UserPointTable:
        """The indexed users as one columnar table (registration order).

        Inserts append rows; slots handed out earlier stay valid."""
        if self._pending:
            self._table = self._table.extended(*self._pending.values())
            self._pending = {}
        return self._table

    def frame(self) -> TreeFrame:
        """The node table (see :mod:`repro.index.frame`), with its block
        — every list's columns — (re)built lazily after updates."""
        frame = self._frame
        if frame.block is None:
            frame.block = NodeBlock(self.table, self.config.variant, frame.rows, frame.segs)
        return frame

    def zstack(self) -> Optional[ZStack]:
        """The z-structure of every non-empty list, stacked over the
        frame and dropped with its block (None for TQ(B))."""
        if not self.config.use_zorder:
            return None
        frame = self.frame()
        if frame.zstack is None:
            cfg = self.config
            frame.zstack = ZStack(
                frame, self.table.traj_ids, cfg.beta, cfg.z_max_depth
            )
        return frame.zstack

    def warm_zindex(self) -> None:
        """Materialise everything queries read lazily — the block, and
        on TQ(Z) the z-stack — so construction cost is attributed to
        construction, not to the first query."""
        self.frame()
        self.zstack()
