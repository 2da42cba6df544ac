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
  codes, one cell at a time: the reference the array versions are tested
  against.
* :func:`morton_encode_array` / :func:`morton_decode_array` — the same
  codes for whole index arrays at once via bit-spreading, bit-identical
  to the scalar functions element-wise (the cellstring engine's key
  path).
* :func:`quarter_boxes` — the adaptive quadrant partition itself, as
  arrays: many boxes quartered at once, each driven by its own point
  multiset; returns the leaf cells in Z order and every point's leaf rank
  (the integer that stands for its z-id).
* :func:`boxes_within` / :func:`boxes_meet` — the cell-vs-serving-area
  and cell-vs-box tests ``zReduce`` runs over leaf-cell tables.

Digit convention: at every level the quadrant digit is
``(x_bit) | (y_bit << 1)`` (SW=0, SE=1, NW=2, NE=3) — identical to
:meth:`repro.core.geometry.BBox.quadrants`, so q-node children and z-cells
sort in the same Z order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import GeometryError
from .geometry import BBox, Point
from .service import PAIRS_PER_PASS

__all__ = [
    "ZID",
    "morton_encode",
    "morton_decode",
    "morton_encode_array",
    "morton_decode_array",
    "zid_of_point",
    "boxes_within",
    "boxes_meet",
    "quarter_boxes",
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


def boxes_within(boxes: np.ndarray, stops: np.ndarray, psi: float) -> np.ndarray:
    """Which ``(xmin, ymin, xmax, ymax)`` rows lie within ``psi`` of at
    least one of the ``(m, 2)`` ``stops`` — the cell-vs-serving-area test
    of ``zReduce``: the nearest point of each box to each stop, compared
    with ``psi``, :data:`~repro.core.service.PAIRS_PER_PASS` box-stop
    pairs a pass."""
    out = np.empty(boxes.shape[0], dtype=bool)
    # a Python float square overflows to inf without a warning, where an
    # np.float64 one warns; the comparison is the same either way
    r2 = float(psi) * float(psi)
    sx, sy = stops[None, :, 0], stops[None, :, 1]
    step = max(1, PAIRS_PER_PASS // max(1, stops.shape[0]))
    for lo in range(0, boxes.shape[0], step):
        b = boxes[lo : lo + step]
        dx = np.clip(sx, b[:, 0, None], b[:, 2, None]) - sx
        dy = np.clip(sy, b[:, 1, None], b[:, 3, None]) - sy
        out[lo : lo + step] = np.any(dx * dx + dy * dy <= r2, axis=1)
    return out


def boxes_meet(boxes: np.ndarray, box: BBox) -> np.ndarray:
    """Which ``(xmin, ymin, xmax, ymax)`` rows intersect ``box`` (closed)."""
    return (
        (boxes[:, 0] <= box.xmax)
        & (boxes[:, 2] >= box.xmin)
        & (boxes[:, 1] <= box.ymax)
        & (boxes[:, 3] >= box.ymin)
    )


def quarter_boxes(
    boxes: np.ndarray,
    owner: np.ndarray,
    xy: np.ndarray,
    beta: int,
    max_depth: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The adaptive z-partition of many boxes at once.

    Box ``owner[i]`` of the ``(k, 4)`` ``boxes`` holds point ``xy[i]``.
    Every box is quartered level by level, all boxes together: a cell
    splits while it holds more than ``beta`` of its box's points and is
    above ``max_depth``, at the midpoints :meth:`BBox.quadrants` uses,
    its points re-homed by :meth:`BBox.quadrant_of`'s ``>=`` rule; empty
    children stay as leaves, so the leaves tile their box.

    Returns ``(leaf boxes (n_leaves, 4), offsets (k + 1,), ranks (n,))``:
    box ``j`` owns the leaves ``offsets[j] .. offsets[j + 1] - 1``, in
    the Z order of their digit paths, and point ``i`` lies in leaf
    ``offsets[owner[i]] + ranks[i]`` — comparing two ranks of one box is
    comparing the z-ids :func:`zid_of_point` would give.  Digit paths
    are held in an int64, two bits a level: ``max_depth`` is at most 31
    (:class:`~repro.core.config.TQTreeConfig` refuses more).
    """
    k = boxes.shape[0]
    # the cells of the current level: owning box, region, digit path
    root = np.arange(k, dtype=np.int64)
    cell_box = boxes
    code = np.zeros(k, dtype=np.int64)
    # the points not yet in a leaf, and the current-level cell of each
    pts = np.arange(owner.size, dtype=np.int64)
    at = owner
    leaf_of = np.empty(owner.size, dtype=np.int64)  # in emission order
    leaves = []
    n_leaves = 0
    for depth in range(max_depth + 1):
        split = (np.bincount(at, minlength=root.size) > beta) & (depth < max_depth)
        done = ~split
        number = np.cumsum(done) + (n_leaves - 1)
        settled = done[at]
        leaf_of[pts[settled]] = number[at[settled]]
        # left-aligned digit paths sort prefix-free cells in Z order
        leaves.append(
            (root[done], code[done] << (2 * (max_depth - depth)), cell_box[done])
        )
        n_leaves += int(np.count_nonzero(done))
        parents = np.flatnonzero(split)
        if not parents.size:
            break
        xmin, ymin, xmax, ymax = cell_box[parents].T
        cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
        # child ``d`` of the ``j``-th splitting cell is cell ``4 j + d``
        pts, at = pts[~settled], at[~settled]
        j = (np.cumsum(split) - 1)[at]
        at = 4 * j + ((xy[pts, 0] >= cx[j]) | ((xy[pts, 1] >= cy[j]) << 1))
        cell_box = np.stack(
            [
                np.stack([xmin, cx, xmin, cx], axis=1),
                np.stack([ymin, ymin, cy, cy], axis=1),
                np.stack([cx, xmax, cx, xmax], axis=1),
                np.stack([cy, cy, ymax, ymax], axis=1),
            ],
            axis=2,
        ).reshape(-1, 4)
        root = np.repeat(root[parents], 4)
        code = (np.repeat(code[parents], 4) << 2) | np.tile(np.arange(4), parents.size)
    leaf_root, leaf_code, leaf_box = (np.concatenate(column) for column in zip(*leaves))
    order = np.lexsort((leaf_code, leaf_root))
    offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(leaf_root, minlength=k), out=offsets[1:])
    place = np.empty(n_leaves, dtype=np.int64)
    place[order] = np.arange(n_leaves)
    ranks = place[leaf_of] - offsets[owner]
    return leaf_box[order], offsets, ranks
