"""The Trajectory Quadtree (TQ-tree) — the paper's core index (Section III).

A TQ-tree hierarchically organises trajectory *entries* — ``(row, seg)``
keys over the tree's :class:`~repro.core.trajectory.UserPointTable`
(:mod:`repro.index.entries`) — in a region quadtree:

* an internal q-node stores its **inter-node** entries — those whose
  placement points span two or more of its immediate children;
* a leaf q-node stores its **intra-node** entries — at most ``beta`` of
  them (unless the depth cap absorbed a pathological cluster);
* unlike a conventional spatial index, *every level* stores data: long
  trajectories live high in the tree, short ones sink low, which is what
  makes the per-node service bounds (``sub``) effective for both.

With ``config.use_zorder`` (TQ(Z)), each q-node's entry list is z-ordered
and bucketed (:class:`~repro.index.frame.ZStack`); without it (TQ(B)),
the list stays flat and queries scan it linearly.

A q-node's list is two integer columns; queries read the columns
derived from them: one tree-wide :class:`~repro.index.frame.TreeFrame`
(the nodes as arrays over a single :class:`~repro.index.block
.NodeBlock`), each node's own block a window of it, the z-structure of
every list stacked beside it.  All of it is built lazily (or by
:meth:`TQTree.warm_zindex`), and an insert into a node drops the frame
— the stack with it — and marks that node's block for replacing.  Bulk
build, insert and leaf split place entries with one rule
(:meth:`TQTree._bulk_build`) and price them with one arithmetic
(:meth:`NodeBlock.own_totals <repro.index.block.NodeBlock.own_totals>`),
so a tree grown by inserts is the tree a build over the same users
makes.

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
from .entries import SubBounds, entry_keys, validate_spec_for_variant

__all__ = ["QNode", "TQTree"]


class QNode:
    """One node of the TQ-tree."""

    __slots__ = (
        "box",
        "depth",
        "parent",
        "children",
        "rows",
        "segs",
        "own",
        "sub",
        "_block",
        "_dirty",
        "_frame",
    )

    def __init__(self, box: BBox, depth: int, parent: Optional["QNode"]) -> None:
        self.box = box
        self.depth = depth
        self.parent = parent
        self.children: Optional[List["QNode"]] = None
        # UL(E): the entries' keys (table row, segment index or -1)
        self.rows = self.segs = np.zeros(0, dtype=np.int64)
        # the bounds of the own list alone, and of the whole subtree
        self.own = SubBounds()
        self.sub = SubBounds()
        # the list's other columns: a window of the frame's block (see
        # TQTree.frame), describing an older list while ``_dirty``
        self._block: Optional[NodeBlock] = None
        self._dirty = True
        # the tree-wide frame hangs off the *root*, so that a change to
        # any node can drop it without a pointer back to the tree
        self._frame: Optional[TreeFrame] = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def n_own(self) -> int:
        """``|UL(E)|``: how many entries this node itself stores."""
        return self.rows.size

    def invalidate(self) -> None:
        """The entry list changed: its block and the tree's frame (the
        z-stack with it) describe the old list."""
        self._dirty = True
        root = self
        while root.parent is not None:
            root = root.parent
        root._frame = None

    def sub_value(self, spec: ServiceSpec) -> float:
        """The paper's ``sub``: subtree service upper bound for ``spec``."""
        return self.sub.value_for(spec)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"QNode({kind}, depth={self.depth}, |UL|={self.n_own})"


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
        self.root = QNode(space, 0, None)
        # the users: a table, plus the one-user tables of inserts not yet
        # appended to it (by trajectory id; see the ``table`` property)
        self._table = UserPointTable(())
        self._pending: Dict[int, UserPointTable] = {}
        self._n_entries = 0
        self._max_traj_points = 0

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
        rows, segs = entry_keys(table, config.variant)
        tree._n_entries = rows.size
        tree._place(tree.root, rows, segs)
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

    def _place(self, node: QNode, rows: np.ndarray, segs: np.ndarray) -> None:
        """Make ``node``'s subtree the one holding exactly the entries
        ``(rows, segs)``, which must all lie inside its box: one block
        over the keys gives their placement boxes and ``sub`` addends."""
        block = NodeBlock(self.table, self.config.variant, rows, segs)
        self._bulk_build(
            node, rows, segs, block.gov[:, 4:8], block.own_totals(),
            np.arange(block.n),
        )

    @staticmethod
    def _corner_quadrants(box: BBox, bbox: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``BBox.quadrant_of`` for the min and the max corner of every
        placement box: an entry sinks into a child of the node spanning
        ``box`` exactly when the two agree."""
        cx = (box.xmin + box.xmax) / 2.0
        cy = (box.ymin + box.ymax) / 2.0
        q_lo = (bbox[:, 0] >= cx) | ((bbox[:, 1] >= cy) << 1)
        q_hi = (bbox[:, 2] >= cx) | ((bbox[:, 3] >= cy) << 1)
        return q_lo, q_hi

    def _bulk_build(
        self,
        node: QNode,
        rows: np.ndarray,
        segs: np.ndarray,
        bbox: np.ndarray,
        totals: np.ndarray,
        idx: np.ndarray,
    ) -> None:
        """Place the entries numbered ``idx`` (ascending positions in
        ``rows`` / ``segs``) in ``node``'s subtree.  ``bbox`` holds every
        entry's placement box and ``totals`` its five ``SubBounds``
        addends, so routing and bounds are array operations per node."""
        cfg = self.config
        stay = idx
        groups = None
        if len(idx) > cfg.beta and node.depth < cfg.max_depth:
            q_lo, q_hi = self._corner_quadrants(node.box, bbox[idx])
            sinks = q_lo == q_hi
            # when splitting makes no progress (everything is inter-node
            # here) the node stays a leaf per the paper's termination rule
            if sinks.any():
                stay = idx[~sinks]
                groups = [idx[sinks & (q_lo == d)] for d in range(4)]
        node.rows, node.segs = rows[stay], segs[stay]
        # left-to-right sums: the order inserts accumulate ``own`` in
        own = np.cumsum(totals[stay], axis=0)[-1] if stay.size else np.zeros(5)
        node.own = SubBounds(*own.tolist())
        if groups is not None:
            boxes = node.box.quadrants()
            node.children = [QNode(boxes[d], node.depth + 1, node) for d in range(4)]
            for d in range(4):
                self._bulk_build(node.children[d], rows, segs, bbox, totals, groups[d])
        self._sum_sub(node)

    @staticmethod
    def _sum_sub(node: QNode) -> None:
        """``sub`` from its parts: the own list, then each child."""
        node.sub = SubBounds(*node.own.as_row())
        for child in node.children or ():
            node.sub.add(child.sub)

    # ------------------------------------------------------------------
    # dynamic updates (Section III-C)
    # ------------------------------------------------------------------
    def insert(self, traj: Trajectory) -> None:
        """Insert one trajectory; O(h) descent per entry plus local splits."""
        if traj.traj_id in self._table.row_of or traj.traj_id in self._pending:
            raise IndexError_(f"duplicate trajectory id {traj.traj_id}")
        alone = UserPointTable((traj,))
        self._check_inside(alone)
        row = self.n_trajectories
        self._pending[traj.traj_id] = alone
        self._max_traj_points = max(self._max_traj_points, traj.n_points)
        variant = self.config.variant
        # the new user's entries as a block of their own: the placement
        # boxes and addends a bulk build would compute for them
        block = NodeBlock(alone, variant, *entry_keys(alone, variant))
        bbox, totals = block.gov[:, 4:8], block.own_totals()
        for k, seg in enumerate(block.segs.tolist()):
            self._insert_entry(row, seg, bbox[k : k + 1], SubBounds(*totals[k].tolist()))
            self._n_entries += 1

    def _insert_entry(self, row: int, seg: int, bbox: np.ndarray, delta: SubBounds) -> None:
        cfg = self.config
        node = self.root
        while not node.is_leaf:
            q_lo, q_hi = self._corner_quadrants(node.box, bbox)
            if q_lo[0] != q_hi[0]:
                break
            node = node.children[int(q_lo[0])]
        node.rows = np.append(node.rows, row)
        node.segs = np.append(node.segs, seg)
        node.own.add(delta)
        node.invalidate()
        if node.is_leaf and node.n_own > cfg.beta and node.depth < cfg.max_depth:
            # the children a bulk build over the leaf's keys would make
            self._place(node, node.rows, node.segs)
        while node is not None:
            self._sum_sub(node)
            node = node.parent

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def containing_qnode(self, box: BBox) -> QNode:
        """The smallest q-node whose region contains ``box``.

        Falls back to the root when ``box`` pokes outside the indexed
        space (a facility near the boundary).
        """
        node = self.root
        if not node.box.contains_bbox(box):
            return node
        while not node.is_leaf:
            assert node.children is not None
            advanced = False
            for child in node.children:
                if child.box.contains_bbox(box):
                    node = child
                    advanced = True
                    break
            if not advanced:
                break
        return node

    @staticmethod
    def ancestors(node: QNode) -> List[QNode]:
        """Proper ancestors of ``node``, root first."""
        chain: List[QNode] = []
        cur = node.parent
        while cur is not None:
            chain.append(cur)
            cur = cur.parent
        chain.reverse()
        return chain

    def nodes(self) -> Iterator[QNode]:
        """All q-nodes, pre-order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.children is not None:
                stack.extend(reversed(node.children))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_trajectories(self) -> int:
        return self._table.n_users + len(self._pending)

    @property
    def n_entries(self) -> int:
        return self._n_entries

    @property
    def max_traj_points(self) -> int:
        return self._max_traj_points

    def trajectory(self, traj_id: int) -> Trajectory:
        table = self.table
        try:
            return table.users[table.row_of[traj_id]]
        except KeyError:
            raise IndexError_(f"unknown trajectory id {traj_id}") from None

    def trajectories(self) -> Iterator[Trajectory]:
        return iter(self.table.users)

    def height(self) -> int:
        best = 0
        for node in self.nodes():
            if node.is_leaf:
                best = max(best, node.depth + 1)
        return best

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
        """The tree as one columnar frame (see :mod:`repro.index.frame`),
        (re)built lazily after updates: every node's entry list laid end
        to end in one block, each node's own block re-pointed at its
        window of it.  A node whose list did not change keeps its block
        *object* (what caches anchor on)."""
        frame = self.root._frame
        if frame is None:
            nodes = list(self.nodes())
            block = NodeBlock(
                self.table, self.config.variant,
                np.concatenate([node.rows for node in nodes]),
                np.concatenate([node.segs for node in nodes]),
            )
            frame = TreeFrame(nodes, block)
            bounds = frame.row_off.tolist()
            for node, lo, hi in zip(nodes, bounds, bounds[1:]):
                if node._dirty:
                    node._block = block.window(lo, hi)
                    node._dirty = False
                else:
                    block.window(lo, hi, into=node._block)
            self.root._frame = frame
        return frame

    def node_block(self, node: QNode) -> NodeBlock:
        """The node's entry list as flat columns — its window of the
        frame's block; row ``i`` is the entry ``(node.rows[i],
        node.segs[i])``."""
        self.frame()
        return node._block

    def zstack(self) -> Optional[ZStack]:
        """The z-structure of every non-empty list, stacked over the
        frame and dropped with it (None for TQ(B))."""
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
        """Materialise everything queries read lazily — the frame with
        every node's block, and on TQ(Z) the z-stack — so construction
        cost is attributed to construction, not to the first query."""
        self.frame()
        self.zstack()
