"""Z-order (Morton) machinery and hierarchical z-ids.

The paper orders the trajectories inside each q-node with a Z-curve whose
cells come from an *adaptive* partition: the node's space is recursively
quartered until each cell holds at most ``beta`` points (Section III,
"Ordered bucketing using z-curve").  A cell is then identified by the path
of quadrant digits taken to reach it — the paper writes these as ``0.0``,
``1.2``, ``2`` and so on.

This module provides:

* :class:`ZID` — an immutable digit-path identifier with the ordering and
  prefix algebra needed for range pruning (``zReduce``).
* :func:`morton_encode` / :func:`morton_decode` — classic fixed-depth Morton
  codes (used by tests and by the uniform-grid fallback).
* :func:`morton_encode_array` / :func:`morton_decode_array` — the same
  codes for whole index arrays at once via bit-spreading, bit-identical
  to the scalar functions element-wise (the cellstring engine's key
  path).
* :class:`AdaptiveZGrid` — the adaptive quadrant partition of a bounding box
  driven by a point multiset; maps points to z-ids (or, for whole arrays,
  to leaf ranks) and regions to the set of intersecting cells.

Digit convention: at every level the quadrant digit is
``(x_bit) | (y_bit << 1)`` (SW=0, SE=1, NW=2, NE=3) — identical to
:meth:`repro.core.geometry.BBox.quadrants`, so q-node children and z-cells
sort in the same Z order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .errors import GeometryError
from .geometry import BBox, Point

__all__ = [
    "ZID",
    "morton_encode",
    "morton_decode",
    "morton_encode_array",
    "morton_decode_array",
    "zid_of_point",
    "boxes_within",
    "AdaptiveZGrid",
]

Digits = Tuple[int, ...]


@dataclass(frozen=True, slots=True, order=True)
class ZID:
    """A hierarchical z-cell identifier: a path of quadrant digits.

    ZIDs compare lexicographically on their digit paths, which coincides
    with Z-curve order across mixed depths: a cell's id is <= the ids of
    everything inside it, and < the ids of every later sibling subtree.
    ``ZID(())`` is the whole space.
    """

    digits: Digits

    def __post_init__(self) -> None:
        for d in self.digits:
            if not 0 <= d <= 3:
                raise GeometryError(f"z-id digit out of range: {d!r}")

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self.digits)

    def child(self, digit: int) -> "ZID":
        """The id of this cell's quadrant ``digit``."""
        if not 0 <= digit <= 3:
            raise GeometryError(f"z-id digit out of range: {digit}")
        return ZID(self.digits + (digit,))

    def is_prefix_of(self, other: "ZID") -> bool:
        """True when this cell contains (or equals) ``other``."""
        n = len(self.digits)
        return len(other.digits) >= n and other.digits[:n] == self.digits

    def range_high(self) -> Optional["ZID"]:
        """Exclusive upper bound of this cell's subtree in ZID order.

        Every id with this id as prefix lies in ``[self, high)`` under
        lexicographic comparison.  Returns ``None`` when the cell is the
        last one in the space (all trailing 3s), meaning "no upper bound".
        """
        digits = list(self.digits)
        while digits:
            if digits[-1] < 3:
                digits[-1] += 1
                return ZID(tuple(digits))
            digits.pop()
        return None

    def __str__(self) -> str:  # paper-style "0.1.2" notation
        return ".".join(str(d) for d in self.digits) if self.digits else "<root>"


def zid_of_point(p: Point, space: BBox, depth: int) -> ZID:
    """The depth-``depth`` z-id of ``p`` inside ``space``.

    Performs ``depth`` successive quadrant descents; the point must lie in
    ``space``.
    """
    if depth < 0:
        raise GeometryError(f"negative z-id depth: {depth}")
    if not space.contains_point(p):
        raise GeometryError(f"point {p} outside space {space}")
    digits: List[int] = []
    box = space
    for _ in range(depth):
        q = box.quadrant_of(p)
        digits.append(q)
        box = box.quadrant(q)
    return ZID(tuple(digits))


def morton_encode(ix: int, iy: int, depth: int) -> int:
    """Interleave ``depth``-bit cell coordinates into a Morton code.

    The y bit is the high bit of each digit pair, matching the quadrant
    digit convention ``digit = x_bit | (y_bit << 1)``.
    """
    if depth < 0:
        raise GeometryError(f"negative depth: {depth}")
    limit = 1 << depth
    if not (0 <= ix < limit and 0 <= iy < limit):
        raise GeometryError(f"cell ({ix}, {iy}) out of range for depth {depth}")
    code = 0
    for level in range(depth):
        bit = depth - 1 - level
        xb = (ix >> bit) & 1
        yb = (iy >> bit) & 1
        code = (code << 2) | (xb | (yb << 1))
    return code


def morton_decode(code: int, depth: int) -> Tuple[int, int]:
    """Invert :func:`morton_encode`."""
    if depth < 0:
        raise GeometryError(f"negative depth: {depth}")
    if not 0 <= code < (1 << (2 * depth)) or (depth == 0 and code != 0):
        raise GeometryError(f"code {code} out of range for depth {depth}")
    ix = iy = 0
    for level in range(depth):
        shift = 2 * (depth - 1 - level)
        digit = (code >> shift) & 3
        ix = (ix << 1) | (digit & 1)
        iy = (iy << 1) | ((digit >> 1) & 1)
    return ix, iy


#: Depth cap for the array codecs: two 31-bit coordinates interleave
#: into 62 bits, keeping every code strictly inside a signed int64.
_MORTON_ARRAY_MAX_DEPTH = 31

# bit-spread masks: move bit i of a 32-bit value to bit 2i of a 64-bit one
_SPREAD_MASKS = tuple(
    np.uint64(m)
    for m in (
        0x00000000FFFFFFFF,
        0x0000FFFF0000FFFF,
        0x00FF00FF00FF00FF,
        0x0F0F0F0F0F0F0F0F,
        0x3333333333333333,
        0x5555555555555555,
    )
)
_SPREAD_SHIFTS = tuple(np.uint64(s) for s in (16, 8, 4, 2, 1))


def _part1by1(v: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of each uint64 so bit ``i`` lands at ``2i``."""
    v = v & _SPREAD_MASKS[0]
    for shift, mask in zip(_SPREAD_SHIFTS, _SPREAD_MASKS[1:]):
        v = (v | (v << shift)) & mask
    return v


def _compact1by1(v: np.ndarray) -> np.ndarray:
    """Invert :func:`_part1by1`: gather every even bit back down."""
    v = v & _SPREAD_MASKS[5]
    for shift, mask in zip(reversed(_SPREAD_SHIFTS), reversed(_SPREAD_MASKS[:5])):
        v = (v | (v >> shift)) & mask
    return v


def morton_encode_array(
    ix: np.ndarray, iy: np.ndarray, depth: int
) -> np.ndarray:
    """Vectorised :func:`morton_encode`: one int64 code per index pair.

    Bit-identical to the scalar function for every element (the scalar
    builds codes MSB-first over ``depth`` levels; since both coordinates
    are validated below ``2**depth``, that equals a plain low-bit
    interleave).  Raises on any out-of-range index, like the scalar.
    """
    if depth < 0:
        raise GeometryError(f"negative depth: {depth}")
    if depth > _MORTON_ARRAY_MAX_DEPTH:
        raise GeometryError(
            f"depth {depth} exceeds the array-codec cap "
            f"{_MORTON_ARRAY_MAX_DEPTH} (codes must fit int64)"
        )
    xs = np.asarray(ix, dtype=np.int64)
    ys = np.asarray(iy, dtype=np.int64)
    limit = np.int64(1) << np.int64(depth)
    if xs.size and not (
        int(xs.min()) >= 0
        and int(xs.max()) < limit
        and int(ys.min()) >= 0
        and int(ys.max()) < limit
    ):
        raise GeometryError(f"cell indices out of range for depth {depth}")
    code = _part1by1(xs.astype(np.uint64)) | (
        _part1by1(ys.astype(np.uint64)) << np.uint64(1)
    )
    return code.astype(np.int64)


def morton_decode_array(
    code: np.ndarray, depth: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`morton_decode`: ``(ix, iy)`` arrays for codes."""
    if depth < 0:
        raise GeometryError(f"negative depth: {depth}")
    if depth > _MORTON_ARRAY_MAX_DEPTH:
        raise GeometryError(
            f"depth {depth} exceeds the array-codec cap "
            f"{_MORTON_ARRAY_MAX_DEPTH} (codes must fit int64)"
        )
    cs = np.asarray(code, dtype=np.int64)
    limit = np.int64(1) << np.int64(2 * depth)
    if cs.size and not (int(cs.min()) >= 0 and int(cs.max()) < limit):
        raise GeometryError(f"codes out of range for depth {depth}")
    u = cs.astype(np.uint64)
    ix = _compact1by1(u).astype(np.int64)
    iy = _compact1by1(u >> np.uint64(1)).astype(np.int64)
    return ix, iy


#: Box-stop pairs :func:`boxes_within` evaluates per pass: cache-sized
#: temporaries however many cells and stops meet (the block size
#: ``repro.core.service.coverage_kernel`` measured fastest).
_PAIRS_PER_PASS = 1 << 14


def boxes_within(boxes: np.ndarray, stops: np.ndarray, psi: float) -> np.ndarray:
    """Which ``(xmin, ymin, xmax, ymax)`` rows lie within ``psi`` of at
    least one of the ``(m, 2)`` ``stops`` — the cell-vs-serving-area test
    of ``zReduce``: the nearest point of each box to each stop, compared
    with ``psi``."""
    out = np.empty(boxes.shape[0], dtype=bool)
    sx, sy = stops[None, :, 0], stops[None, :, 1]
    step = max(1, _PAIRS_PER_PASS // max(1, stops.shape[0]))
    for lo in range(0, boxes.shape[0], step):
        b = boxes[lo : lo + step]
        dx = np.clip(sx, b[:, 0, None], b[:, 2, None]) - sx
        dy = np.clip(sy, b[:, 1, None], b[:, 3, None]) - sy
        out[lo : lo + step] = np.any(dx * dx + dy * dy <= psi * psi, axis=1)
    return out


@dataclass
class _ZCell:
    """One node of the adaptive partition tree."""

    zid: ZID
    box: BBox
    count: int = 0
    children: Optional[List["_ZCell"]] = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def _as_xy(points) -> np.ndarray:
    """``points`` (an ``(n, 2)`` array or a Point sequence) as an array."""
    if isinstance(points, np.ndarray):
        return points.reshape(-1, 2)
    return np.array([(p.x, p.y) for p in points], dtype=np.float64).reshape(-1, 2)


class AdaptiveZGrid:
    """Adaptive quadrant partition of ``space`` driven by a point multiset.

    The space is recursively quartered while a cell holds more than
    ``beta`` of the driving points and the depth cap is not reached.  The
    resulting *leaf cells* define the z-ids used to order trajectories in a
    q-node; a leaf's *rank* is its ordinal among the leaves in Z order,
    so comparing ranks is comparing z-ids.

    The grid answers three questions:

    * :meth:`zid_of` / :meth:`ranks_of` — which leaf cell contains a
      point (works for any point in the space, not just the driving
      ones), one point at a time or a whole array at once;
    * :meth:`cells_intersecting` — which leaf cells intersect a query box;
    * :meth:`cells_serving` — which leaf cells a facility component can
      serve, as a boolean column over the ranks (``zReduce`` indexes it
      with the entries' ranks).
    """

    def __init__(
        self,
        space: BBox,
        points,
        beta: int,
        max_depth: int = 16,
    ) -> None:
        if beta < 1:
            raise GeometryError(f"beta must be >= 1, got {beta}")
        if max_depth < 0:
            raise GeometryError(f"max_depth must be >= 0, got {max_depth}")
        self.space = space
        self.beta = beta
        self.max_depth = max_depth
        xy = _as_xy(points)
        self._root = _ZCell(ZID(()), space, count=xy.shape[0])
        self._flat: Optional[tuple] = None
        self._build(self._root, xy[:, 0], xy[:, 1], 0)

    # ------------------------------------------------------------------
    def _build(self, cell: _ZCell, xs: np.ndarray, ys: np.ndarray, depth: int) -> None:
        if xs.size <= self.beta or depth >= self.max_depth:
            return
        box = cell.box
        # BBox.quadrant_of, for every point of the cell at once
        digits = (xs >= (box.xmin + box.xmax) / 2.0) | (
            (ys >= (box.ymin + box.ymax) / 2.0) << 1
        )
        cell.children = []
        boxes = box.quadrants()
        for digit in range(4):
            inside = digits == digit
            child = _ZCell(
                cell.zid.child(digit), boxes[digit], count=int(inside.sum())
            )
            cell.children.append(child)
            self._build(child, xs[inside], ys[inside], depth + 1)

    # ------------------------------------------------------------------
    def zid_of(self, p: Point) -> ZID:
        """The z-id of the leaf cell containing ``p``."""
        if not self.space.contains_point(p):
            raise GeometryError(f"point {p} outside grid space {self.space}")
        cell = self._root
        while not cell.is_leaf:
            assert cell.children is not None
            cell = cell.children[cell.box.quadrant_of(p)]
        return cell.zid

    def refine_at(self, p: Point, extra_levels: int = 1) -> None:
        """Split the leaf containing ``p`` by ``extra_levels`` more levels.

        Used by the z-index when two trajectories with identical start
        z-ids must be told apart by their end z-ids (paper Section III,
        step (ii)).  Depth remains capped by ``max_depth``.
        """
        self._flat = None
        cell = self._root
        depth = 0
        while not cell.is_leaf:
            assert cell.children is not None
            cell = cell.children[cell.box.quadrant_of(p)]
            depth += 1
        for _ in range(extra_levels):
            if depth >= self.max_depth:
                return
            boxes = cell.box.quadrants()
            cell.children = [
                _ZCell(cell.zid.child(d), boxes[d]) for d in range(4)
            ]
            cell = cell.children[cell.box.quadrant_of(p)]
            depth += 1

    def cells_intersecting(self, box: BBox) -> List[ZID]:
        """Leaf-cell ids whose region intersects ``box``, in Z order.
        A cell that misses ``box`` is skipped with everything inside it."""
        out: List[ZID] = []
        stack = [self._root]
        while stack:
            cell = stack.pop()
            if not cell.box.intersects(box):
                continue
            if cell.is_leaf:
                out.append(cell.zid)
            else:
                assert cell.children is not None
                stack.extend(reversed(cell.children))
        out.sort()
        return out

    def _flattened(self) -> tuple:
        """The partition tree as arrays, cached until :meth:`refine_at`:
        ``(leaf boxes (n_leaves, 4) in Z order, per cell: split x, split
        y, the four child cell numbers or -1, leaf rank or -1)``.
        This is the vectorised backbone of ``zReduce``: ranking points and
        selecting the cells a facility component can serve are a handful
        of NumPy operations instead of a per-cell Python walk.
        """
        if self._flat is None:
            cells: List[_ZCell] = []
            number = {}
            stack = [self._root]
            while stack:  # pre-order with children in digit order == Z order
                cell = stack.pop()
                number[id(cell)] = len(cells)
                cells.append(cell)
                if cell.children is not None:
                    stack.extend(reversed(cell.children))
            split = np.array(
                [
                    ((c.box.xmin + c.box.xmax) / 2.0, (c.box.ymin + c.box.ymax) / 2.0)
                    for c in cells
                ],
                dtype=np.float64,
            )
            children = np.full((len(cells), 4), -1, dtype=np.int64)
            rank = np.full(len(cells), -1, dtype=np.int64)
            leaves = []
            for i, cell in enumerate(cells):
                if cell.children is None:
                    rank[i] = len(leaves)
                    leaves.append(cell.box)
                else:
                    children[i] = [number[id(ch)] for ch in cell.children]
            boxes = np.array(
                [(b.xmin, b.ymin, b.xmax, b.ymax) for b in leaves], dtype=np.float64
            ).reshape(-1, 4)
            self._flat = (boxes, split[:, 0], split[:, 1], children, rank)
        return self._flat

    def leaf_boxes(self) -> np.ndarray:
        """The leaf cells' ``(xmin, ymin, xmax, ymax)`` rows, in Z order
        (row ``r`` is the cell of rank ``r``)."""
        return self._flattened()[0]

    def ranks_of(self, xy: np.ndarray) -> np.ndarray:
        """Leaf rank (ordinal in Z order) of the cell containing each
        row of ``xy``; every point must lie inside the space."""
        _boxes, cx, cy, children, rank = self._flattened()
        xs, ys = xy[:, 0], xy[:, 1]
        cell = np.zeros(xy.shape[0], dtype=np.int64)
        inner = np.flatnonzero(rank[cell] < 0)
        while inner.size:
            at = cell[inner]
            digit = (xs[inner] >= cx[at]) | ((ys[inner] >= cy[at]) << 1)
            cell[inner] = children[at, digit]
            inner = inner[rank[cell[inner]] < 0]
        return rank[cell]

    def cells_serving(
        self,
        embr: BBox,
        stops: Optional[np.ndarray] = None,
        psi: float = 0.0,
    ) -> np.ndarray:
        """Which leaf cells the facility component can serve: a boolean
        column over the leaf ranks.

        A cell qualifies when it intersects ``embr`` and — if ``stops``
        are given — lies within ``psi`` of at least one stop (the true
        union-of-discs serving area, tighter than the EMBR box).
        """
        boxes = self._flattened()[0]
        xmin, ymin, xmax, ymax = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
        mask = (
            (xmin <= embr.xmax)
            & (xmax >= embr.xmin)
            & (ymin <= embr.ymax)
            & (ymax >= embr.ymin)
        )
        if stops is not None and stops.shape[0] > 0 and mask.any():
            idx = np.flatnonzero(mask)
            mask[idx] = boxes_within(boxes[idx], stops, psi)
        return mask

    def leaf_cells(self) -> Iterator[Tuple[ZID, BBox]]:
        """All leaf cells as ``(zid, box)`` pairs, in Z order."""
        stack = [self._root]
        items: List[Tuple[ZID, BBox]] = []
        while stack:
            cell = stack.pop()
            if cell.is_leaf:
                items.append((cell.zid, cell.box))
            else:
                assert cell.children is not None
                stack.extend(reversed(cell.children))
        items.sort(key=lambda t: t[0])
        return iter(items)

    def n_leaves(self) -> int:
        return sum(1 for _ in self.leaf_cells())
