"""The paper's baseline **BL** (Section VI, "Baseline").

User trajectory *points* are indexed individually in a traditional
spatial index (a point quadtree, as in the paper's experiments).  To
score one facility, a disc range query of radius ``psi`` runs around
every stop; the returned points are grouped back into their trajectories
and the per-user service values are assembled from the covered point
indices.  Top-k simply scores every facility and sorts.

This is deliberately unsophisticated — it is the comparison floor the
TQ-tree approaches are measured against (Figures 6–10).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from ..core.errors import QueryError
from ..core.geometry import BBox, bbox_of_points
from ..core.service import ServiceSpec, score_from_indices
from ..core.trajectory import FacilityRoute, Trajectory, require_positive_int
from ..index.quadtree import PointQuadtree
from .kmaxrrst import FacilityScore, KMaxRRSTResult, ranked
from .evaluate import QueryStats

__all__ = ["BaselineIndex"]

# payload stored per indexed point: (trajectory id, point index)
_Payload = Tuple[int, int]


class BaselineIndex:
    """Point-quadtree index over all user trajectory points."""

    def __init__(self, tree: PointQuadtree[_Payload], users: Dict[int, Trajectory]):
        self._tree = tree
        self._users = users

    @classmethod
    def build(
        cls,
        users: Sequence[Trajectory],
        capacity: int = 64,
        space: Optional[BBox] = None,
    ) -> "BaselineIndex":
        """Index every point of every user trajectory."""
        if not users:
            raise QueryError("cannot build a baseline index over no users")
        if space is None:
            all_pts = [p for u in users for p in u.points]
            tight = bbox_of_points(all_pts)
            pad = max(tight.width, tight.height, 1.0) * 1e-9 + 1e-9
            space = tight.expanded(pad)
        tree: PointQuadtree[_Payload] = PointQuadtree(space, capacity=capacity)
        registry: Dict[int, Trajectory] = {}
        for u in users:
            if u.traj_id in registry:
                raise QueryError(f"duplicate trajectory id {u.traj_id}")
            registry[u.traj_id] = u
            for i, p in enumerate(u.points):
                tree.insert(p, (u.traj_id, i))
        return cls(tree, registry)

    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        return len(self._users)

    @property
    def n_points(self) -> int:
        return len(self._tree)

    def covered_indices(
        self, facility: FacilityRoute, psi: float
    ) -> Dict[int, Set[int]]:
        """Per-user point indices within ``psi`` of any stop of the facility.

        One disc range query per stop; duplicates across overlapping discs
        collapse in the per-user sets.
        """
        if psi < 0:
            raise QueryError(f"psi must be >= 0, got {psi}")
        covered: Dict[int, Set[int]] = {}
        for stop in facility.stops:
            for _point, (traj_id, idx) in self._tree.query_circle(stop, psi):
                covered.setdefault(traj_id, set()).add(idx)
        return covered

    def service_value(self, facility: FacilityRoute, spec: ServiceSpec) -> float:
        """``SO(U, f)`` via range queries (the BL evaluation strategy)."""
        covered = self.covered_indices(facility, spec.psi)
        total = 0.0
        for traj_id, indices in covered.items():
            total += score_from_indices(self._users[traj_id], indices, spec)
        return total

    def matches(
        self, facility: FacilityRoute, psi: float
    ) -> Dict[int, Tuple[int, ...]]:
        """Per-user covered indices as immutable tuples (for MaxkCovRST)."""
        return {
            tid: tuple(sorted(idx))
            for tid, idx in self.covered_indices(facility, psi).items()
        }

    def top_k(
        self, facilities: Sequence[FacilityRoute], k: int, spec: ServiceSpec
    ) -> KMaxRRSTResult:
        """BL top-k: score every facility, sort, return the best k —
        exact ties by lowest facility id, as the tree's kMaxRRST ranks.

        The per-facility cost does not depend on ``k`` — the flat curve in
        Figure 7(b).
        """
        require_positive_int("k", k)
        scored = [FacilityScore(f, self.service_value(f, spec)) for f in facilities]
        return KMaxRRSTResult(ranked(scored, k), QueryStats(entries_scored=len(scored)))
