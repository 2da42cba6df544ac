"""Service-value functions (paper Section II).

A user point is *served* by a facility when it lies within distance ``psi``
of any stop of that facility.  On top of that predicate the paper defines
three per-user service functions ``S(u, f)``:

* ``ENDPOINT`` (Scenario 1) — binary: 1 iff both the source and the
  destination of ``u`` are served.
* ``COUNT``    (Scenario 2) — ``scount(u, f) / |u|``: the fraction of
  ``u``'s points that are served.
* ``LENGTH``   (Scenario 3) — ``slength(u, f) / length(u)``: the fraction
  of ``u``'s length that is served, where a segment counts as served when
  both of its endpoints are served (see DESIGN.md Section 1 for why).

``normalize=False`` switches COUNT/LENGTH to their raw numerators, the
units in which the TQ-tree's per-node upper bound ``sub`` is stated in the
paper.

For MaxkCovRST the *combined* service of a facility set uses union
semantics (the paper's Lemma 1): a point is covered when it is within
``psi`` of the union of all chosen facilities' stops — the source may be
served by one facility and the destination by another.
:class:`CoverageState` tracks which point *slots* of the user table
(:class:`~repro.core.trajectory.UserPointTable`) are covered and derives
all three objectives from that one boolean column; a facility's match set
travels as a :class:`MatchSet`, a sorted slot array that reads as today's
``{traj_id: (idx, ...)}`` mapping wherever one is expected.

Everything in this module is deliberately brute-force and index-free; it
doubles as the *oracle* against which the TQ-tree evaluators are tested.

The one place the ``psi``-disc membership predicate is written down is
:func:`psi_hit` / :func:`coverage_kernel`; :meth:`StopSet.covers_point`
and :meth:`StopSet.covered_mask` both route through it, and so does the
grid-bucketed proximity engine (:mod:`repro.engine`), which gathers
candidate stops from a uniform grid before applying the same kernel.
The engine is a pure accelerator: for any input it returns bit-identical
masks and scores to this module.  When the grid pays off (stop-dense
facilities, small ``psi``) is documented in :mod:`repro.engine`; tiny
stop sets keep using the dense broadcast below, which is why this module
remains the canonical reference implementation.
"""

from __future__ import annotations

import enum
from collections import abc
from itertools import chain
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import QueryError, TrajectoryError
from .geometry import BBox, Point
from .stats import QueryStats
from .trajectory import FacilityRoute, Trajectory, UserPointTable, ranges

__all__ = [
    "ServiceModel",
    "ServiceSpec",
    "StopSet",
    "psi_hit",
    "coverage_kernel",
    "served_point_indices",
    "score_from_indices",
    "score_trajectory",
    "brute_force_service",
    "brute_force_matches",
    "per_user_values",
    "in_order_sum",
    "MatchSet",
    "as_match_set",
    "CoverageState",
    "brute_force_combined_service",
]


class ServiceModel(enum.Enum):
    """Which of the paper's three scenarios defines ``S(u, f)``."""

    ENDPOINT = "endpoint"
    COUNT = "count"
    LENGTH = "length"


@dataclass(frozen=True, slots=True)
class ServiceSpec:
    """A fully parameterised service-value function.

    Parameters
    ----------
    model:
        The per-user scenario.
    psi:
        Serving distance: a user point is served when within ``psi`` of a
        facility stop.  Must be non-negative.
    normalize:
        For COUNT/LENGTH, whether ``S(u, f)`` is the fraction
        (paper's definition) or the raw numerator (the unit of the
        TQ-tree node bounds).  Ignored for ENDPOINT.
    """

    model: ServiceModel
    psi: float
    normalize: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.model, ServiceModel):
            raise QueryError(f"unknown service model: {self.model!r}")
        # one chained test rejects NaN (every comparison false) and inf,
        # which would otherwise die later as a non-finite bounding box
        if not 0 <= self.psi < float("inf"):
            raise QueryError(f"psi must be finite and >= 0, got {self.psi}")


# ----------------------------------------------------------------------
# the psi-disc membership kernel
# ----------------------------------------------------------------------
def psi_hit(
    dx: np.ndarray, dy: np.ndarray, psi: float, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``dx*dx + dy*dy <= psi*psi`` — THE serving predicate.

    Every coverage decision in the library (dense broadcast, grid
    candidate check, single-point probe) reduces to this one comparison,
    so dense and grid paths are bit-identical by construction.

    With ``out`` (a boolean array of their shape) the answer is written
    there and ``dx`` / ``dy`` serve as scratch — they are overwritten —
    so the predicate allocates nothing; the arithmetic is the same.

    A squared offset too large for a float64 overflows to ``inf``, which
    compares as *not covered* against any finite ``psi * psi`` — the
    defined answer for a point that far away, so the overflow is not
    worth a warning.
    """
    with np.errstate(over="ignore"):
        if out is None:
            return dx * dx + dy * dy <= psi * psi
        np.multiply(dx, dx, out=dx)
        np.multiply(dy, dy, out=dy)
        return np.less_equal(np.add(dx, dy, out=dx), psi * psi, out=out)


#: Pairs one vectorised pass evaluates: point-stop pairs in
#: :func:`coverage_kernel`, box-stop pairs in
#: :func:`repro.core.zorder.boxes_within`, stop-cell pairs in
#: :func:`repro.engine.cellstring.build_cellstring_index`.  A TQ-tree
#: walk hands the kernel all its candidates at once; broadcasting them in
#: blocks keeps the pair temporaries cache-sized (and out of the
#: allocator's large-block path), which measures 2x faster from a few
#: hundred points up and bounds memory for stop-dense facilities.
PAIRS_PER_PASS = 1 << 14


def coverage_kernel(
    points: np.ndarray,
    stops: np.ndarray,
    psi: float,
    stats: Optional[QueryStats] = None,
) -> np.ndarray:
    """Dense all-pairs coverage: which ``points`` rows are within ``psi``
    of any ``stops`` row.

    The arrays are ``(n, 2)`` and ``(m, 2)``; the result is an ``(n,)``
    boolean mask.  ``stats``, when given, accrues the geometric work
    performed (every point is scanned, every pair is evaluated).
    """
    pts = np.asarray(points, dtype=np.float64)
    stops = np.asarray(stops, dtype=np.float64)
    if pts.size == 0:
        return np.zeros(0, dtype=bool)
    if stops.size == 0:
        return np.zeros(pts.shape[0], dtype=bool)
    n, m = int(pts.shape[0]), int(stops.shape[0])
    if stats is not None:
        stats.points_scanned += n
        stats.distance_evals += n * m
    sx, sy = stops[None, :, 0], stops[None, :, 1]
    step = max(64, PAIRS_PER_PASS // m)
    out = np.empty(n, dtype=bool)
    # one set of pass buffers, refilled in place by every pass
    rows = min(step, n)
    dx, dy, hit = np.empty((rows, m)), np.empty((rows, m)), np.empty((rows, m), dtype=bool)
    for lo in range(0, n, step):  # one pass unless the block is large
        block = pts[lo : lo + step]
        r = block.shape[0]
        np.subtract(block[:, 0, None], sx, out=dx[:r])
        np.subtract(block[:, 1, None], sy, out=dy[:r])
        psi_hit(dx[:r], dy[:r], psi, out=hit[:r])
        np.any(hit[:r], axis=1, out=out[lo : lo + step])
    return out


class StopSet:
    """An immutable set of facility stop points with fast ``psi`` checks.

    Wraps an ``(n, 2)`` coordinate array; all distance checks are
    vectorised.  A ``StopSet`` may be a whole facility or a *component* of
    one (the divide-and-conquer evaluation slices facilities by region).
    """

    __slots__ = ("coords", "_bbox")

    def __init__(self, coords: np.ndarray) -> None:
        arr = np.asarray(coords, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise QueryError(f"stop coords must be (n, 2), got {arr.shape}")
        self.coords = arr
        self._bbox: Optional[BBox] = None

    @classmethod
    def of_facility(cls, facility: FacilityRoute) -> "StopSet":
        return cls(facility.stop_coords)

    @property
    def n_stops(self) -> int:
        return int(self.coords.shape[0])

    @property
    def is_empty(self) -> bool:
        return self.coords.shape[0] == 0

    @property
    def bbox(self) -> Optional[BBox]:
        """Tight bbox of the stops, or ``None`` when empty."""
        if self.is_empty:
            return None
        if self._bbox is None:
            xmin, ymin = self.coords.min(axis=0)
            xmax, ymax = self.coords.max(axis=0)
            self._bbox = BBox(float(xmin), float(ymin), float(xmax), float(ymax))
        return self._bbox

    def embr(self, psi: float) -> Optional[BBox]:
        """Serving-area envelope: stop bbox grown by ``psi``."""
        box = self.bbox
        return None if box is None else box.expanded(psi)

    # ------------------------------------------------------------------
    def covers_point(
        self, p: Point, psi: float, stats: Optional[QueryStats] = None
    ) -> bool:
        """True when ``p`` is within ``psi`` of any stop: one point
        through :meth:`covered_mask`, so a dressed set answers through
        its index."""
        mask = self.covered_mask(
            np.array([[p.x, p.y]], dtype=np.float64), psi, stats
        )
        return bool(mask[0])

    def covered_mask(
        self, coords: np.ndarray, psi: float, stats: Optional[QueryStats] = None
    ) -> np.ndarray:
        """Boolean mask: which of ``coords`` rows are within ``psi``."""
        pts = np.asarray(coords, dtype=np.float64)
        if pts.size == 0:
            return np.zeros(0, dtype=bool)
        if self.is_empty:
            return np.zeros(pts.shape[0], dtype=bool)
        return coverage_kernel(pts, self.coords, psi, stats)

    def _restriction_mask(self, box: BBox) -> np.ndarray:
        x = self.coords[:, 0]
        y = self.coords[:, 1]
        return (x >= box.xmin) & (x <= box.xmax) & (y >= box.ymin) & (y <= box.ymax)

    def restricted_to(self, box: BBox) -> "StopSet":
        """The sub-set of stops lying inside ``box`` (closed)."""
        if self.is_empty:
            return self
        return self.with_coords(self.coords[self._restriction_mask(box)])

    def with_coords(self, coords: np.ndarray) -> "StopSet":
        """A set of ``coords`` dressed like this one, nothing probed yet."""
        return StopSet(coords)

    def unprobed(self) -> "StopSet":
        """This set as it was before its first probe."""
        return self.with_coords(self.coords)


# ----------------------------------------------------------------------
# per-user scoring (the oracle path)
# ----------------------------------------------------------------------
def served_point_indices(
    traj: Trajectory, stops: StopSet, psi: float
) -> Tuple[int, ...]:
    """Indices of ``traj``'s points within ``psi`` of ``stops``."""
    mask = stops.covered_mask(traj.coords, psi)
    return tuple(int(i) for i in np.nonzero(mask)[0])


def score_from_indices(
    traj: Trajectory, covered: Iterable[int], spec: ServiceSpec
) -> float:
    """``S(u, f)`` given the set of covered point indices of ``u``.

    This is the single scoring rule shared by every evaluator in the
    library — the indexed ones only differ in how they find ``covered``.
    """
    idx: Set[int] = set(covered)
    n = traj.n_points
    if spec.model is ServiceModel.ENDPOINT:
        return 1.0 if (0 in idx and (n - 1) in idx) else 0.0
    if spec.model is ServiceModel.COUNT:
        raw = float(len(idx))
        return raw / n if spec.normalize else raw
    # LENGTH: a segment is served when both its endpoints are covered.
    raw = 0.0
    seg_lengths = traj.segment_lengths
    for i in range(traj.n_segments):
        if i in idx and (i + 1) in idx:
            raw += seg_lengths[i]
    if not spec.normalize:
        return raw
    return raw / traj.length if traj.length > 0 else 0.0


def score_trajectory(traj: Trajectory, stops: StopSet, spec: ServiceSpec) -> float:
    """``S(u, f)`` computed directly (no index)."""
    if spec.model is ServiceModel.ENDPOINT:
        # Only the two endpoints matter; avoid scanning interior points.
        if stops.covers_point(traj.start, spec.psi) and stops.covers_point(
            traj.end, spec.psi
        ):
            return 1.0
        return 0.0
    return score_from_indices(traj, served_point_indices(traj, stops, spec.psi), spec)


def brute_force_service(
    users: Sequence[Trajectory], facility: FacilityRoute, spec: ServiceSpec
) -> float:
    """``SO(U, f) = sum_u S(u, f)`` by exhaustive scan — the test oracle."""
    stops = StopSet.of_facility(facility)
    return sum(score_trajectory(u, stops, spec) for u in users)


def brute_force_matches(
    users: Sequence[Trajectory], facility: FacilityRoute, psi: float
) -> Dict[int, Tuple[int, ...]]:
    """Per-user covered point indices, exhaustively (for coverage tests)."""
    stops = StopSet.of_facility(facility)
    out: Dict[int, Tuple[int, ...]] = {}
    for u in users:
        idx = served_point_indices(u, stops, psi)
        if idx:
            out[u.traj_id] = idx
    return out


# ----------------------------------------------------------------------
# columnar scoring over the user table
# ----------------------------------------------------------------------
def in_order_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, bit-identical to ``sum()`` over the same
    values as a Python list (``np.sum`` adds pairwise)."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def per_user_values(
    table: UserPointTable,
    covered: np.ndarray,
    spec: ServiceSpec,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``S(u, .)`` per user row from a ``covered[slot]`` boolean column.

    The arithmetic is :func:`score_from_indices`'s, user by user: a
    covered-point count over ``|u|``, segment lengths accumulated in
    segment order (``np.bincount`` adds in array order) over the
    trajectory length.  ``rows`` restricts the result to those rows (any
    order, no repeats); the default is every row in table order.
    """
    if rows is None:
        n = table.n_users
        first, last = table.first, table.last
        n_points, traj_len = table.n_points, table.traj_len
    else:
        n = rows.size
        first, last = table.first[rows], table.last[rows]
        n_points, traj_len = table.n_points[rows], table.traj_len[rows]
    if spec.model is ServiceModel.ENDPOINT:
        return (covered[first] & covered[last]).astype(np.float64)
    if spec.model is ServiceModel.COUNT:
        if rows is None:
            owner, hit = table.pt_owner, covered
        else:
            counts = table.counts[rows]
            owner = np.repeat(np.arange(n, dtype=np.int64), counts)
            hit = covered[ranges(first, counts)]
        raw = np.bincount(owner, weights=hit.astype(np.float64), minlength=n)
        return raw / n_points if spec.normalize else raw
    # LENGTH: a segment is served when both its endpoints are covered
    if rows is None:
        owner, seg_a, seg_len = table.seg_owner, table.seg_a, table.seg_len
    else:
        counts = table.counts[rows] - 1
        owner = np.repeat(np.arange(n, dtype=np.int64), counts)
        segs = ranges(table.seg_off[rows], counts)
        seg_a, seg_len = table.seg_a[segs], table.seg_len[segs]
    served = covered[seg_a] & covered[seg_a + 1]
    raw = np.bincount(owner, weights=seg_len * served, minlength=n)
    if not spec.normalize:
        return raw
    out = np.zeros(n, dtype=np.float64)
    np.divide(raw, traj_len, out=out, where=traj_len > 0)
    return out


class MatchSet(abc.Mapping):
    """The user points one facility serves: sorted unique slots of a
    :class:`~repro.core.trajectory.UserPointTable`.

    Reads as the ``{traj_id: (idx, ...)}`` mapping the match-set API has
    always exposed (users without a covered point are absent, users in
    table order); the mapping is only materialised when someone reads
    it, so solver loops that stay on :attr:`slots` never pay for it.
    """

    __slots__ = ("table", "slots", "_dict")

    def __init__(self, table: UserPointTable, slots: np.ndarray) -> None:
        self.table = table
        self.slots = slots
        self._dict: Optional[Dict[int, Tuple[int, ...]]] = None

    def as_dict(self) -> Dict[int, Tuple[int, ...]]:
        if self._dict is None:
            table, slots = self.table, self.slots
            owner = table.pt_owner[slots]
            idx = (slots - table.first[owner]).tolist()
            cuts = (np.flatnonzero(np.diff(owner)) + 1).tolist()
            ids = table.traj_ids[owner[[0] + cuts]].tolist() if slots.size else []
            self._dict = {
                tid: tuple(idx[a:b])
                for tid, a, b in zip(ids, [0] + cuts, cuts + [len(idx)])
            }
        return self._dict

    def __getitem__(self, traj_id: int) -> Tuple[int, ...]:
        return self.as_dict()[traj_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self.as_dict())

    def __len__(self) -> int:
        return len(self.as_dict())

    def __repr__(self) -> str:
        return f"MatchSet(n_slots={self.slots.size})"


def as_match_set(
    table: UserPointTable, matches: Mapping[int, Iterable[int]]
) -> MatchSet:
    """``matches`` as a :class:`MatchSet` over ``table``: itself when it
    already is one, else its ``{traj_id: indices}`` pairs translated to
    slots.  Solvers translate each facility's matches once and price
    them many times."""
    if isinstance(matches, MatchSet) and matches.table is table:
        return matches
    rows, parts = [], []
    for traj_id, idx in matches.items():
        row = table.row_of.get(traj_id)
        if row is None:
            raise QueryError(f"matches refer to unknown user {traj_id}")
        rows.append(row)
        parts.append(list(idx))
    counts = [len(part) for part in parts]
    idx = np.fromiter(chain.from_iterable(parts), dtype=np.int64, count=sum(counts))
    row = np.repeat(np.array(rows, dtype=np.int64), counts)
    if ((idx < 0) | (idx >= table.counts[row])).any():
        raise QueryError("matches refer to a point index outside its user")
    return MatchSet(table, np.unique(table.first[row] + idx))


# ----------------------------------------------------------------------
# combined (MaxkCovRST) coverage
# ----------------------------------------------------------------------
class CoverageState:
    """Covered user points under union semantics, as one boolean column
    over the user table's slots.

    Supports the greedy MaxkCovRST loop: ``gain`` prices a candidate's
    marginal contribution, ``add`` commits it.  The objective for every
    :class:`ServiceModel` is derived from the covered column, so one
    state serves all scenarios.  ``users`` may be a plain trajectory
    sequence or a ready :class:`~repro.core.trajectory.UserPointTable`;
    match sets may be :class:`MatchSet` objects over that table (used
    as they are) or any ``{traj_id: indices}`` mapping (translated to
    slots first) — both forms price identically, because a gain is
    always the per-user value deltas summed in ascending row order.
    """

    def __init__(self, users: Sequence[Trajectory], spec: ServiceSpec) -> None:
        self.spec = spec
        try:
            self.table = UserPointTable.of(users)
        except TrajectoryError as exc:
            raise QueryError(str(exc)) from exc
        self._covered = np.zeros(self.table.n_slots, dtype=bool)
        self._user_value = np.zeros(self.table.n_users, dtype=np.float64)
        self._value = 0.0

    # ------------------------------------------------------------------
    @property
    def value(self) -> float:
        """Current combined service ``SO(U, F')``."""
        return self._value

    def copy(self) -> "CoverageState":
        """An independent snapshot (used by branch-and-bound search)."""
        clone = CoverageState.__new__(CoverageState)
        clone.spec = self.spec
        clone.table = self.table
        clone._covered = self._covered.copy()
        clone._user_value = self._user_value.copy()
        clone._value = self._value
        return clone

    def covered_indices(self, traj_id: int) -> frozenset:
        """Covered point indices of one user (empty if untouched)."""
        row = self.table.row_of.get(traj_id)
        if row is None:
            return frozenset()
        lo, hi = self.table.offsets[row], self.table.offsets[row + 1]
        return frozenset(np.flatnonzero(self._covered[lo:hi]).tolist())

    # ------------------------------------------------------------------
    def _priced(
        self, matches: Mapping[int, Iterable[int]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(new, rows, values)``: the not-yet-covered slots of
        ``matches`` (sorted), the users they touch (ascending), and those
        users' ``S`` once the new slots are covered too.  The covered
        column is lent the new slots for the computation and handed back
        as it was."""
        slots = as_match_set(self.table, matches).slots
        new = slots[~self._covered[slots]]
        rows = np.unique(self.table.pt_owner[new])
        self._covered[new] = True
        try:
            values = per_user_values(self.table, self._covered, self.spec, rows)
        finally:
            self._covered[new] = False
        return new, rows, values

    def gain(self, matches: Mapping[int, Iterable[int]]) -> float:
        """Marginal combined-service gain of adding ``matches``.

        ``matches`` maps ``traj_id`` to the point indices the candidate
        facility serves.  The state is not modified.
        """
        _new, rows, values = self._priced(matches)
        return in_order_sum(values - self._user_value[rows])

    def new_coverage_count(self, matches: Mapping[int, Iterable[int]]) -> int:
        """How many (user, point-index) slots ``matches`` would newly cover.

        Used as a secondary greedy signal: under the non-submodular
        combined objective a facility can have zero *objective* gain yet
        make progress toward it (e.g. covering only sources when the
        objective needs source+destination).  The state is not modified.
        """
        slots = as_match_set(self.table, matches).slots
        return int(slots.size - np.count_nonzero(self._covered[slots]))

    def add(self, matches: Mapping[int, Iterable[int]]) -> float:
        """Commit ``matches`` to the state; returns the realised gain."""
        new, rows, values = self._priced(matches)
        delta = in_order_sum(values - self._user_value[rows])
        self._covered[new] = True
        self._user_value[rows] = values
        self._value += delta
        return delta

    def users_fully_served(self) -> int:
        """How many users have ``S = 1`` under ENDPOINT semantics.

        This is the paper's "# Users Served" metric (Figure 10 (b), (d)).
        """
        table = self.table
        return int(
            np.count_nonzero(self._covered[table.first] & self._covered[table.last])
        )


def brute_force_combined_service(
    users: Sequence[Trajectory],
    facilities: Sequence[FacilityRoute],
    spec: ServiceSpec,
) -> float:
    """``SO(U, F')`` under union semantics by exhaustive scan (oracle)."""
    if not facilities:
        return 0.0
    all_stops = StopSet(np.vstack([f.stop_coords for f in facilities]))
    total = 0.0
    for u in users:
        idx = served_point_indices(u, all_stops, spec.psi)
        total += score_from_indices(u, idx, spec)
    return total
