"""Trajectory and facility-route data model.

Two first-class citizens, mirroring the paper's Section II:

* :class:`Trajectory` — a user trajectory ``u = {p1, ..., p|u|}``; an
  ordered sequence of visited locations (taxi pickup/drop-off pairs,
  check-in sequences, GPS traces).
* :class:`FacilityRoute` — a candidate facility trajectory ``f``; an
  ordered sequence of *stop points* (bus stops) at which users can be
  picked up or dropped off.

Coordinates are held both as :class:`~repro.core.geometry.Point` tuples
(for the tree algorithms) and as a NumPy ``(n, 2)`` array (for vectorised
``psi``-distance checks in the service evaluators).

:class:`UserPointTable` is the columnar image of a whole user set: every
point of every user gets one global *slot*, and the per-user structure
(first/last slot, segment endpoint slots, lengths) is a handful of flat
arrays.  The TQ-tree's node blocks, the batch engine and
:class:`~repro.core.service.CoverageState` all index this one table, so
a set of covered points is just a sorted array of slots.
"""

from __future__ import annotations

import math
from collections import abc
from functools import cached_property
from itertools import chain
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from .errors import TrajectoryError
from .geometry import BBox, Point, bbox_of_points, polyline_length

__all__ = ["Trajectory", "FacilityRoute", "UserPointTable", "ranges"]


def _as_points(raw: Sequence) -> Tuple[Point, ...]:
    """Normalise ``raw`` (Points or (x, y) pairs) into a Point tuple."""
    points = []
    for item in raw:
        if isinstance(item, Point):
            points.append(item)
        else:
            try:
                x, y = item
                x, y = float(x), float(y)
            except (TypeError, ValueError) as exc:
                raise TrajectoryError(f"malformed point: {item!r}") from exc
            if not (math.isfinite(x) and math.isfinite(y)):
                raise TrajectoryError(f"non-finite point: {item!r}")
            points.append(Point(x, y))
    return tuple(points)


class Trajectory:
    """An immutable user trajectory.

    Parameters
    ----------
    traj_id:
        Integer identifier, unique within a dataset.
    points:
        Ordered locations; at least one point.  Point-to-point datasets
        (taxi trips) have exactly two.
    """

    __slots__ = ("traj_id", "points", "__dict__")

    def __init__(self, traj_id: int, points: Sequence) -> None:
        pts = _as_points(points)
        if not pts:
            raise TrajectoryError(f"trajectory {traj_id} has no points")
        self.traj_id = int(traj_id)
        self.points = pts

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def start(self) -> Point:
        """The source location ``u.p1``."""
        return self.points[0]

    @property
    def end(self) -> Point:
        """The destination location ``u.p|u|``."""
        return self.points[-1]

    @cached_property
    def coords(self) -> np.ndarray:
        """The points as a read-only ``(n, 2)`` float array."""
        arr = np.array([(p.x, p.y) for p in self.points], dtype=np.float64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def length(self) -> float:
        """Total polyline length of the trajectory."""
        return polyline_length(self.points)

    @cached_property
    def bbox(self) -> BBox:
        """Tight bounding box of all points."""
        return bbox_of_points(self.points)

    @cached_property
    def segment_lengths(self) -> Tuple[float, ...]:
        """Length of each consecutive segment ``(p_i, p_{i+1})``."""
        return tuple(
            self.points[i].dist_to(self.points[i + 1])
            for i in range(len(self.points) - 1)
        )

    @property
    def n_segments(self) -> int:
        return len(self.points) - 1

    def segment(self, i: int) -> Tuple[Point, Point]:
        """The ``i``-th consecutive segment as a point pair."""
        if not 0 <= i < self.n_segments:
            raise TrajectoryError(
                f"segment index {i} out of range for trajectory {self.traj_id} "
                f"with {self.n_segments} segments"
            )
        return self.points[i], self.points[i + 1]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.traj_id == other.traj_id and self.points == other.points

    def __hash__(self) -> int:
        return hash((self.traj_id, self.points))

    def __repr__(self) -> str:
        return f"Trajectory(id={self.traj_id}, n_points={self.n_points})"


class FacilityRoute:
    """An immutable facility trajectory (e.g. a bus route with stops).

    Parameters
    ----------
    facility_id:
        Integer identifier, unique within a facility set.
    stops:
        Ordered stop locations; at least one stop.
    """

    __slots__ = ("facility_id", "stops", "__dict__")

    def __init__(self, facility_id: int, stops: Sequence) -> None:
        pts = _as_points(stops)
        if not pts:
            raise TrajectoryError(f"facility {facility_id} has no stops")
        self.facility_id = int(facility_id)
        self.stops = pts

    # ------------------------------------------------------------------
    @property
    def n_stops(self) -> int:
        return len(self.stops)

    @cached_property
    def stop_coords(self) -> np.ndarray:
        """The stops as a read-only ``(n, 2)`` float array."""
        arr = np.array([(p.x, p.y) for p in self.stops], dtype=np.float64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def bbox(self) -> BBox:
        """Tight bounding box of all stops."""
        return bbox_of_points(self.stops)

    def embr(self, psi: float) -> BBox:
        """The extended MBR: stop bounding box grown by ``psi``.

        This is the facility's *serving area* envelope (paper Section
        IV-A); any user point served by the facility lies inside it.
        """
        return self.bbox.expanded(psi)

    @cached_property
    def route_length(self) -> float:
        """Polyline length through the stops in order."""
        return polyline_length(self.stops)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.stops)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.stops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FacilityRoute):
            return NotImplemented
        return self.facility_id == other.facility_id and self.stops == other.stops

    def __hash__(self) -> int:
        return hash((self.facility_id, self.stops))

    def __repr__(self) -> str:
        return f"FacilityRoute(id={self.facility_id}, n_stops={self.n_stops})"


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``
    without the Python loop — the CSR gather every columnar read uses."""
    if starts.size == 1:  # one run: a frontier of one node, a lone candidate
        return np.arange(starts[0], starts[0] + counts[0], dtype=np.int64)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - counts), counts) + np.arange(
        total, dtype=np.int64
    )


class UserPointTable(abc.Sequence):
    """A user set as flat arrays: one row per user, one slot per point.

    Rows follow the order of ``users``; slots are the users' points
    concatenated in that order, so user ``r`` owns the slots
    ``offsets[r] .. offsets[r + 1] - 1`` and point ``i`` of that user
    is slot ``first[r] + i``.  Appending users (:meth:`extended`) never
    moves an existing row or slot.  The table is itself a sequence of
    its :class:`Trajectory` rows, so it can stand wherever a user list
    is expected.

    Columns (all read-only):

    ``traj_ids``  per row, the trajectory id (``row_of`` inverts it)
    ``offsets``   CSR point offsets, ``n_users + 1`` long
    ``first`` / ``last``  per row, the slots of ``u.p1`` and ``u.p|u|``
    ``counts`` / ``n_points``  per row, ``|u|`` as int64 / float64
    ``xy``        per slot, the coordinates
    ``pt_owner``  per slot, the owning row
    ``seg_a``     per segment, the slot of its first endpoint (the
                  second is ``seg_a + 1``); user ``r``'s segments are
                  ``seg_off[r] .. seg_off[r + 1] - 1`` in order
    ``seg_owner`` / ``seg_len``  per segment, owning row and length
    ``traj_len``  per row, the polyline length
    """

    __slots__ = (
        "users", "traj_ids", "row_of", "offsets", "first", "last", "counts",
        "n_points", "xy", "pt_owner", "seg_off", "seg_a", "seg_owner",
        "seg_len", "traj_len",
    )

    def __init__(self, users: Sequence[Trajectory]) -> None:
        self.users: Tuple[Trajectory, ...] = tuple(users)
        n_users = len(self.users)
        self.traj_ids = np.fromiter(
            (u.traj_id for u in self.users), dtype=np.int64, count=n_users
        )
        self.counts = np.fromiter(
            (len(u.points) for u in self.users), dtype=np.int64, count=n_users
        )
        self.xy = np.array(
            [(p.x, p.y) for u in self.users for p in u.points], dtype=np.float64
        ).reshape(-1, 2)
        # lengths come from the trajectories' own (cached) scalar
        # arithmetic: the oracle scores with exactly these floats
        self.seg_len = np.fromiter(
            (d for u in self.users for d in u.segment_lengths),
            dtype=np.float64, count=self.xy.shape[0] - n_users,
        )
        self.traj_len = np.fromiter(
            (u.length for u in self.users), dtype=np.float64, count=n_users
        )
        self._derive({})

    def _derive(self, row_of: Dict[int, int]) -> None:
        """Every column that follows from ``traj_ids`` and ``counts``
        (the others are read off the users, once); ``row_of`` already
        maps the first ``len(row_of)`` rows."""
        n_users = len(self.users)
        row_of.update(zip(self.traj_ids[len(row_of) :].tolist(), range(len(row_of), n_users)))
        if len(row_of) != n_users:
            raise TrajectoryError("duplicate trajectory ids in user set")
        self.row_of = row_of
        self.n_points = self.counts.astype(np.float64)
        self.offsets = np.zeros(n_users + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.offsets[1:])
        self.first = self.offsets[:-1]
        self.last = self.offsets[1:] - 1
        rows = np.arange(n_users, dtype=np.int64)
        self.pt_owner = np.repeat(rows, self.counts)
        # every point that is not the last of its user opens a segment
        self.seg_off = self.offsets - np.arange(n_users + 1, dtype=np.int64)
        opens = np.ones(self.xy.shape[0], dtype=bool)
        opens[self.last] = False
        self.seg_a = np.flatnonzero(opens)
        self.seg_owner = np.repeat(rows, self.counts - 1)
        self._freeze()

    def _freeze(self) -> None:
        for name in self.__slots__:
            column = getattr(self, name)
            if isinstance(column, np.ndarray):
                column.setflags(write=False)

    @classmethod
    def of(cls, users: Sequence[Trajectory]) -> "UserPointTable":
        """``users`` itself when it already is a table, else a new one."""
        return users if isinstance(users, cls) else cls(users)

    def extended(self, *more: Sequence[Trajectory]) -> "UserPointTable":
        """A table with the users of every ``more`` (tables, or user
        sequences tabulated via :meth:`of`) appended in order; existing
        rows and slots keep their numbers.  Only new users are walked:
        the columns read off users are concatenated, the rest derived
        from them again."""
        parts = [self] + [t for t in map(UserPointTable.of, more) if t.users]
        if len(parts) == 1:
            return self
        grown = object.__new__(UserPointTable)
        grown.users = tuple(chain.from_iterable(part.users for part in parts))
        for name in ("traj_ids", "counts", "xy", "seg_len", "traj_len"):
            setattr(grown, name, np.concatenate([getattr(part, name) for part in parts]))
        grown._derive(dict(self.row_of))
        return grown

    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_slots(self) -> int:
        return int(self.xy.shape[0])

    def __len__(self) -> int:
        return len(self.users)

    def __getitem__(self, i):
        return self.users[i]

    def __repr__(self) -> str:
        return f"UserPointTable(n_users={self.n_users}, n_slots={self.n_slots})"
