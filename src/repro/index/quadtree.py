"""A classic point (region) quadtree.

This is the "traditional index" behind the paper's baseline **BL**
(Section VI): user trajectory *points* are indexed individually, and each
facility runs range queries around its stops to find candidate users.

The tree stores ``(point, payload)`` pairs; payloads identify which
trajectory and which point index a stored point belongs to, which is what
the baseline needs to reassemble per-user service values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Iterator, List, Optional, Sequence, Tuple, TypeVar

from ..core.errors import IndexError_
from ..core.geometry import BBox, Point

__all__ = ["PointQuadtree"]

T = TypeVar("T")


@dataclass
class _QTNode(Generic[T]):
    box: BBox
    depth: int
    items: List[Tuple[Point, T]]
    children: Optional[List["_QTNode[T]"]] = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class PointQuadtree(Generic[T]):
    """Point quadtree with disc range queries.

    Parameters
    ----------
    box:
        The indexed space.  Inserting a point outside it raises
        :class:`~repro.core.errors.IndexError_`.
    capacity:
        Leaf capacity before a split (the paper's block size).
    max_depth:
        Hard depth cap so duplicate points cannot split forever.
    """

    def __init__(self, box: BBox, capacity: int = 64, max_depth: int = 16) -> None:
        if capacity < 1:
            raise IndexError_(f"capacity must be >= 1, got {capacity}")
        if max_depth < 1:
            raise IndexError_(f"max_depth must be >= 1, got {max_depth}")
        self.box = box
        self.capacity = capacity
        self.max_depth = max_depth
        self._root: _QTNode[T] = _QTNode(box, 0, [])
        self._size = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def insert(self, point: Point, payload: T) -> None:
        """Insert one ``(point, payload)`` pair."""
        if not self.box.contains_point(point):
            raise IndexError_(f"point {point} outside indexed space {self.box}")
        node = self._root
        while not node.is_leaf:
            assert node.children is not None
            node = node.children[node.box.quadrant_of(point)]
        node.items.append((point, payload))
        self._size += 1
        if len(node.items) > self.capacity and node.depth < self.max_depth:
            self._split(node)

    def extend(self, items: Sequence[Tuple[Point, T]]) -> None:
        """Bulk-insert many pairs."""
        for point, payload in items:
            self.insert(point, payload)

    def _split(self, node: _QTNode[T]) -> None:
        boxes = node.box.quadrants()
        node.children = [
            _QTNode(boxes[d], node.depth + 1, []) for d in range(4)
        ]
        items = node.items
        node.items = []
        for point, payload in items:
            child = node.children[node.box.quadrant_of(point)]
            child.items.append((point, payload))
        # A pathological all-identical batch can overflow a child again;
        # recurse until the depth cap absorbs it.
        for child in node.children:
            if len(child.items) > self.capacity and child.depth < self.max_depth:
                self._split(child)

    # ------------------------------------------------------------------
    def query_circle(self, center: Point, radius: float) -> Iterator[Tuple[Point, T]]:
        """All stored pairs within ``radius`` of ``center``."""
        if radius < 0:
            raise IndexError_(f"negative query radius: {radius}")
        r_sq = radius * radius
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not node.box.intersects_circle(center, radius):
                continue
            if node.is_leaf:
                for point, payload in node.items:
                    dx = point.x - center.x
                    dy = point.y - center.y
                    if dx * dx + dy * dy <= r_sq:
                        yield (point, payload)
            else:
                assert node.children is not None
                stack.extend(node.children)

    # ------------------------------------------------------------------
    def height(self) -> int:
        """Height of the tree (root-only tree has height 1)."""
        best = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                best = max(best, node.depth + 1)
            else:
                assert node.children is not None
                stack.extend(node.children)
        return best

    def n_nodes(self) -> int:
        """Total node count."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                assert node.children is not None
                stack.extend(node.children)
        return count
