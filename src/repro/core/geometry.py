"""Planar geometry substrate.

The whole library works in a planar, Euclidean coordinate space (think
metres after map projection).  The paper's datasets are metropolitan-scale
(New York, Beijing), where a local projection makes Euclidean distance an
excellent approximation; DESIGN.md records this substitution.

Two small value types do most of the work:

* :class:`Point` — an immutable 2-D point.
* :class:`BBox` — an axis-aligned bounding box with the set algebra the
  quadtree and TQ-tree need (containment, intersection, quadrant
  subdivision, expansion by a radius).

The expansion operation ``BBox.expanded(psi)`` is how the paper's *extended
minimum bounding rectangle* (EMBR) of a facility is formed: the bounding box
of the facility's stops grown by the serving distance ``psi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

from .errors import GeometryError

__all__ = [
    "Point",
    "BBox",
    "dist",
    "dist_sq",
    "point_segment_dist",
    "polyline_length",
    "bbox_of_points",
]


@dataclass(frozen=True, slots=True)
class Point:
    """An immutable point in the plane."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"non-finite point coordinates: ({self.x}, {self.y})")

    def dist_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def dist_sq_to(self, other: "Point") -> float:
        """Squared Euclidean distance to ``other`` (avoids the sqrt)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def as_tuple(self) -> Tuple[float, float]:
        """The point as an ``(x, y)`` tuple."""
        return (self.x, self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


def dist(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return a.dist_to(b)


def dist_sq(a: Point, b: Point) -> float:
    """Squared Euclidean distance between two points."""
    return a.dist_sq_to(b)


def point_segment_dist(p: Point, a: Point, b: Point) -> float:
    """Distance from point ``p`` to the closed segment ``ab``.

    Degenerate segments (``a == b``) collapse to point distance.
    """
    ax, ay = a.x, a.y
    dx = b.x - ax
    dy = b.y - ay
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq == 0.0:
        return p.dist_to(a)
    t = ((p.x - ax) * dx + (p.y - ay) * dy) / seg_len_sq
    t = max(0.0, min(1.0, t))
    cx = ax + t * dx
    cy = ay + t * dy
    return math.hypot(p.x - cx, p.y - cy)


def polyline_length(points: Sequence[Point]) -> float:
    """Total length of the polyline through ``points`` in order.

    A polyline with fewer than two points has length 0.
    """
    total = 0.0
    for i in range(1, len(points)):
        total += points[i - 1].dist_to(points[i])
    return total


@dataclass(frozen=True, slots=True)
class BBox:
    """An axis-aligned bounding box ``[xmin, xmax] x [ymin, ymax]``.

    Boxes are closed on all sides for containment tests, which is the
    convention the quadtree subdivision relies on (a point exactly on a
    shared edge is routed to exactly one child via :meth:`quadrant_of`).
    """

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(v) for v in (self.xmin, self.ymin, self.xmax, self.ymax)
        ):
            raise GeometryError("non-finite bounding box coordinates")
        if self.xmax < self.xmin or self.ymax < self.ymin:
            raise GeometryError(
                f"inverted bounding box: x[{self.xmin}, {self.xmax}] "
                f"y[{self.ymin}, {self.ymax}]"
            )

    # ------------------------------------------------------------------
    # basic measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def center(self) -> Point:
        return Point((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def area(self) -> float:
        return self.width * self.height

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def contains_point(self, p: Point) -> bool:
        """True when ``p`` lies inside or on the boundary of the box."""
        return self.xmin <= p.x <= self.xmax and self.ymin <= p.y <= self.ymax

    def intersects(self, other: "BBox") -> bool:
        """True when the two (closed) boxes share at least one point."""
        return not (
            other.xmin > self.xmax
            or other.xmax < self.xmin
            or other.ymin > self.ymax
            or other.ymax < self.ymin
        )

    def intersects_circle(self, center: Point, radius: float) -> bool:
        """True when the disc of ``radius`` around ``center`` meets the box."""
        if radius < 0:
            raise GeometryError(f"negative radius: {radius}")
        nx = min(max(center.x, self.xmin), self.xmax)
        ny = min(max(center.y, self.ymin), self.ymax)
        dx = center.x - nx
        dy = center.y - ny
        return dx * dx + dy * dy <= radius * radius

    # ------------------------------------------------------------------
    # constructions
    # ------------------------------------------------------------------
    def expanded(self, r: float) -> "BBox":
        """The box grown by ``r`` on every side (the EMBR operation)."""
        if r < 0:
            raise GeometryError(f"negative expansion radius: {r}")
        return BBox(self.xmin - r, self.ymin - r, self.xmax + r, self.ymax + r)

    def intersection(self, other: "BBox") -> "BBox | None":
        """The overlap of the two boxes, or ``None`` when disjoint."""
        xmin = max(self.xmin, other.xmin)
        ymin = max(self.ymin, other.ymin)
        xmax = min(self.xmax, other.xmax)
        ymax = min(self.ymax, other.ymax)
        if xmax < xmin or ymax < ymin:
            return None
        return BBox(xmin, ymin, xmax, ymax)

    def union(self, other: "BBox") -> "BBox":
        """The smallest box containing both boxes."""
        return BBox(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    # ------------------------------------------------------------------
    # quadtree support
    # ------------------------------------------------------------------
    def quadrants(self) -> Tuple["BBox", "BBox", "BBox", "BBox"]:
        """The four child quadrants in Morton order (SW, SE, NW, NE).

        The index of a quadrant is ``(x_bit) | (y_bit << 1)`` where the bits
        say whether the child is in the upper half of each axis.  The same
        digit convention is used for z-ids (:mod:`repro.core.zorder`), so
        quadtree cells and z-cells order identically.
        """
        cx = (self.xmin + self.xmax) / 2.0
        cy = (self.ymin + self.ymax) / 2.0
        return (
            BBox(self.xmin, self.ymin, cx, cy),  # 0: SW
            BBox(cx, self.ymin, self.xmax, cy),  # 1: SE
            BBox(self.xmin, cy, cx, self.ymax),  # 2: NW
            BBox(cx, cy, self.xmax, self.ymax),  # 3: NE
        )

    def quadrant_of(self, p: Point) -> int:
        """The Morton index of the quadrant containing ``p``.

        Points exactly on the split lines are routed to the upper/right
        child, so every point maps to exactly one quadrant.
        """
        cx = (self.xmin + self.xmax) / 2.0
        cy = (self.ymin + self.ymax) / 2.0
        return (1 if p.x >= cx else 0) | ((1 if p.y >= cy else 0) << 1)

    def quadrant(self, index: int) -> "BBox":
        """The child quadrant with Morton index ``index``."""
        if not 0 <= index <= 3:
            raise GeometryError(f"quadrant index out of range: {index}")
        return self.quadrants()[index]


def bbox_of_points(points: Iterable[Point]) -> BBox:
    """The tight bounding box of a non-empty point collection."""
    it = iter(points)
    try:
        first = next(it)
    except StopIteration:
        raise GeometryError("bbox of an empty point collection") from None
    xmin = xmax = first.x
    ymin = ymax = first.y
    for p in it:
        if p.x < xmin:
            xmin = p.x
        elif p.x > xmax:
            xmax = p.x
        if p.y < ymin:
            ymin = p.y
        elif p.y > ymax:
            ymax = p.y
    return BBox(xmin, ymin, xmax, ymax)
