"""The Trajectory Quadtree (TQ-tree) — the paper's core index (Section III).

A TQ-tree hierarchically organises trajectory *entries*
(:mod:`repro.index.entries`) in a region quadtree:

* an internal q-node stores its **inter-node** entries — those whose
  placement points span two or more of its immediate children;
* a leaf q-node stores its **intra-node** entries — at most ``beta`` of
  them (unless the depth cap absorbed a pathological cluster);
* unlike a conventional spatial index, *every level* stores data: long
  trajectories live high in the tree, short ones sink low, which is what
  makes the per-node service bounds (``sub``) effective for both.

With ``config.use_zorder`` (TQ(Z)), each q-node's entry list is organised
by a :class:`~repro.index.zindex.ZOrderedList`; without it (TQ(B)), the
list stays flat and queries scan it linearly.

The tree keeps its users as one :class:`~repro.core.trajectory
.UserPointTable`, and every q-node's list also exists as flat columns
over that table — what queries actually read: one tree-wide
:class:`~repro.index.frame.TreeFrame` (the nodes as arrays over a single
:class:`~repro.index.block.NodeBlock`), each node's own block a window
of it, the z-structures stacked beside it.  All of it is built lazily
(or by :meth:`TQTree.warm_zindex`), and an insert into a node drops the
frame and marks that node's block and z-structure for rebuilding.

The tree supports dynamic inserts (Section III-C).  One deliberate
deviation from the paper: after an insert the affected node's z-structure
is rebuilt lazily on the next query rather than patched in place (the
paper re-assigns at most ``beta`` z-ids eagerly).  Both approaches keep
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
from .entries import IndexEntry, SubBounds, make_entries, validate_spec_for_variant
from .zindex import ZOrderedList

__all__ = ["QNode", "TQTree"]


class QNode:
    """One node of the TQ-tree."""

    __slots__ = (
        "box",
        "depth",
        "parent",
        "children",
        "entries",
        "sub",
        "_block",
        "_zlist",
        "_z_dirty",
        "_adopted_gov",
        "_frame",
    )

    def __init__(self, box: BBox, depth: int, parent: Optional["QNode"]) -> None:
        self.box = box
        self.depth = depth
        self.parent = parent
        self.children: Optional[List["QNode"]] = None
        self.entries: List[IndexEntry] = []  # UL(E)
        self.sub = SubBounds()
        # the columnar image of ``entries`` (stale while ``_z_dirty``) and
        # the z-order view built over it on demand (see TQTree.frame)
        self._block: Optional[NodeBlock] = None
        self._zlist: Optional[ZOrderedList] = None
        self._z_dirty = True
        self._adopted_gov: Optional["np.ndarray"] = None
        # the tree-wide frame hangs off the *root*, so that a change to
        # any node can drop it without a pointer back to the tree
        self._frame: Optional[TreeFrame] = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def adopt_gov_table(self, table: "np.ndarray") -> bool:
        """Offer a persisted filter table (the ``gov`` column of this
        node's block, e.g. a memmap from a store): frame builds copy it
        into the node's rows in place of the computed one.  Refused when
        it cannot belong to the current entry list; any later change to
        the list withdraws the offer."""
        if table.shape != (len(self.entries), 8):
            return False
        self._adopted_gov = table
        self._stale()
        return True

    def invalidate(self) -> None:
        """The entry list changed: its block, its z-structure, any
        adopted filter table and the tree's frame describe the old
        list."""
        self._adopted_gov = None
        self._stale()

    def _stale(self) -> None:
        self._z_dirty = True
        root = self
        while root.parent is not None:
            root = root.parent
        root._frame = None

    def sub_value(self, spec: ServiceSpec) -> float:
        """The paper's ``sub``: subtree service upper bound for ``spec``."""
        return self.sub.value_for(spec)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"QNode({kind}, depth={self.depth}, |UL|={len(self.entries)})"


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
        self._trajectories: Dict[int, Trajectory] = {}
        self._table = UserPointTable(())
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
        tree._adopt_table(table)
        entries: List[IndexEntry] = []
        for u in table.users:
            entries.extend(make_entries(u, config.variant))
        tree._n_entries = len(entries)
        # the whole entry set as one block: routing reads its bbox
        # columns, the sub bounds its per-entry totals
        block = NodeBlock.of_entries(table, config.variant, entries)
        totals = np.column_stack(
            [np.ones(block.n), block.own_cnt, *block.own_totals()]
        )
        tree._bulk_build(
            tree.root, entries, block.gov[:, 4:8], totals, np.arange(block.n)
        )
        return tree

    def _adopt_table(self, table: UserPointTable) -> None:
        """Register every user of ``table`` (bulk form of :meth:`_register`)."""
        xy, space = table.xy, self.space
        outside = np.flatnonzero(
            (xy[:, 0] < space.xmin) | (xy[:, 0] > space.xmax)
            | (xy[:, 1] < space.ymin) | (xy[:, 1] > space.ymax)
        )
        if outside.size:
            self._register(table.users[int(table.pt_owner[outside[0]])])
        self._trajectories = dict(zip(table.traj_ids.tolist(), table.users))
        self._max_traj_points = int(table.counts.max(initial=0))
        self._table = table

    def _register(self, traj: Trajectory) -> None:
        if traj.traj_id in self._trajectories:
            raise IndexError_(f"duplicate trajectory id {traj.traj_id}")
        for p in traj.points:
            if not self.space.contains_point(p):
                raise IndexError_(
                    f"trajectory {traj.traj_id} point {p} outside indexed "
                    f"space {self.space}"
                )
        self._trajectories[traj.traj_id] = traj
        self._max_traj_points = max(self._max_traj_points, traj.n_points)

    def _route(self, node: QNode, entry: IndexEntry) -> Optional[int]:
        """The single child quadrant holding all placement points, if any."""
        points = entry.placement_points
        q = node.box.quadrant_of(points[0])
        for p in points[1:]:
            if node.box.quadrant_of(p) != q:
                return None
        return q

    def _bulk_build(
        self,
        node: QNode,
        entries: List[IndexEntry],
        bbox: np.ndarray,
        totals: np.ndarray,
        idx: np.ndarray,
    ) -> None:
        """Place the entries numbered ``idx`` (ascending) in ``node``'s
        subtree.  ``bbox`` holds every entry's placement box — an entry
        sinks into a child exactly when the box's two corners share a
        quadrant — and ``totals`` the five ``SubBounds`` addends per
        entry, so routing and bounds are array operations per node."""
        cfg = self.config
        stay = idx
        groups = None
        if len(idx) > cfg.beta and node.depth < cfg.max_depth:
            box = node.box
            cx = (box.xmin + box.xmax) / 2.0
            cy = (box.ymin + box.ymax) / 2.0
            b = bbox[idx]
            # BBox.quadrant_of for the min and the max corner
            q_lo = (b[:, 0] >= cx) | ((b[:, 1] >= cy) << 1)
            q_hi = (b[:, 2] >= cx) | ((b[:, 3] >= cy) << 1)
            sinks = q_lo == q_hi
            # when splitting makes no progress (everything is inter-node
            # here) the node stays a leaf per the paper's termination rule
            if sinks.any():
                stay = idx[~sinks]
                groups = [idx[sinks & (q_lo == d)] for d in range(4)]
        node.entries = [entries[i] for i in stay.tolist()]
        # left-to-right sums, the order SubBounds.add_entry accumulates in
        own = np.cumsum(totals[stay], axis=0)[-1] if stay.size else np.zeros(5)
        node.sub = SubBounds(*own.tolist())
        if groups is not None:
            boxes = node.box.quadrants()
            node.children = [QNode(boxes[d], node.depth + 1, node) for d in range(4)]
            for d in range(4):
                self._bulk_build(node.children[d], entries, bbox, totals, groups[d])
                node.sub.add(node.children[d].sub)

    # ------------------------------------------------------------------
    # dynamic updates (Section III-C)
    # ------------------------------------------------------------------
    def insert(self, traj: Trajectory) -> None:
        """Insert one trajectory; O(h) descent per entry plus local splits."""
        self._register(traj)
        for entry in make_entries(traj, self.config.variant):
            self._insert_entry(entry)
            self._n_entries += 1

    def _insert_entry(self, entry: IndexEntry) -> None:
        cfg = self.config
        node = self.root
        delta = SubBounds()
        delta.add_entry(entry)
        while True:
            node.sub.add(delta)
            if node.is_leaf:
                node.entries.append(entry)
                node.invalidate()
                if len(node.entries) > cfg.beta and node.depth < cfg.max_depth:
                    self._split_leaf(node)
                return
            q = self._route(node, entry)
            if q is None:
                node.entries.append(entry)
                node.invalidate()
                return
            assert node.children is not None
            node = node.children[q]

    def _split_leaf(self, node: QNode) -> None:
        entries = node.entries
        groups: Tuple[List[IndexEntry], ...] = ([], [], [], [])
        stay: List[IndexEntry] = []
        for e in entries:
            q = self._route(node, e)
            if q is None:
                stay.append(e)
            else:
                groups[q].append(e)
        if not any(groups):
            return  # no progress possible; stays an oversized leaf
        boxes = node.box.quadrants()
        node.children = [QNode(boxes[d], node.depth + 1, node) for d in range(4)]
        node.entries = stay
        node.invalidate()
        for d in range(4):
            child = node.children[d]
            child.entries = groups[d]
            for e in groups[d]:
                child.sub.add_entry(e)
            if len(child.entries) > self.config.beta and child.depth < self.config.max_depth:
                self._split_leaf(child)

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
        return len(self._trajectories)

    @property
    def n_entries(self) -> int:
        return self._n_entries

    @property
    def max_traj_points(self) -> int:
        return self._max_traj_points

    def trajectory(self, traj_id: int) -> Trajectory:
        try:
            return self._trajectories[traj_id]
        except KeyError:
            raise IndexError_(f"unknown trajectory id {traj_id}") from None

    def trajectories(self) -> Iterator[Trajectory]:
        return iter(self._trajectories.values())

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
        pending = len(self._trajectories) - self._table.n_users
        if pending:
            users = list(self._trajectories.values())
            self._table = self._table.extended(users[-pending:])
        return self._table

    def frame(self) -> TreeFrame:
        """The tree as one columnar frame (see :mod:`repro.index.frame`),
        (re)built lazily after updates: every node's entry list laid end
        to end in one block, each node's own block re-pointed at its
        window of it.  A node whose list did not change keeps its block
        *object* (what caches anchor on) and its z-structure; only the
        changed lists are re-read entry by entry."""
        frame = self.root._frame
        if frame is None:
            nodes = list(self.nodes())
            table = self.table
            keys = [
                NodeBlock.entry_keys(table, node.entries)
                if node._z_dirty else (node._block.rows, node._block.segs)
                for node in nodes
            ]
            block = NodeBlock(
                table, self.config.variant,
                np.concatenate([rows for rows, _segs in keys]),
                np.concatenate([segs for _rows, segs in keys]),
            )
            frame = TreeFrame(nodes, block)
            bounds = frame.row_off.tolist()
            for node, lo, hi in zip(nodes, bounds, bounds[1:]):
                if node._adopted_gov is not None:
                    # stays offered until the list changes (invalidate)
                    block.gov[lo:hi] = node._adopted_gov
                if node._z_dirty:
                    node._block = block.window(lo, hi)
                    node._zlist = None
                    node._z_dirty = False
                else:
                    block.window(lo, hi, into=node._block)
            self.root._frame = frame
        return frame

    def node_block(self, node: QNode) -> NodeBlock:
        """The node's entry list as flat columns — its window of the
        frame's block; row ``i`` is ``node.entries[i]``."""
        self.frame()
        return node._block

    def node_zlist(self, node: QNode) -> Optional[ZOrderedList]:
        """The node's z-structure under this tree's config (None for TQ(B)
        and for empty lists), built on first use over the node's block."""
        cfg = self.config
        if not cfg.use_zorder or not node.entries:
            return None
        block = self.node_block(node)
        if node._zlist is None:
            node._zlist = ZOrderedList(
                node.box, node.entries, cfg.beta, cfg.z_max_depth, gov=block.gov
            )
        return node._zlist

    def zstack(self, min_len: int = 1) -> Optional[ZStack]:
        """The z-structures of every node holding at least ``min_len``
        entries, stacked over the frame (None for TQ(B)).  One stack is
        kept per frame; asking for shorter lists than it covers widens
        it, building the missing z-structures."""
        if not self.config.use_zorder:
            return None
        frame = self.frame()
        min_len = max(min_len, 1)
        if frame.zstack is None or frame.zstack.min_len > min_len:
            picked = np.flatnonzero(frame.n_own >= min_len)
            zlists = [self.node_zlist(frame.nodes[i]) for i in picked.tolist()]
            frame.zstack = ZStack(frame, picked, zlists, min_len)
        return frame.zstack

    def warm_zindex(self) -> None:
        """Materialise everything queries read lazily — the frame with
        every node's block, and on TQ(Z) every node's z-structure and
        their stack — so construction cost is attributed to
        construction, not to the first query."""
        self.frame()
        self.zstack()
