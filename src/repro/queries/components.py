"""Facility components for divide-and-conquer evaluation (Section IV-A).

When Algorithm 1 descends into a q-node's children, the facility is
"divided": each child receives only the stops that can serve points
inside that child — the stops within the child's region expanded by
``psi``.  A stop near a boundary legitimately lands in several children.

The paper's ``MakeUnion(f)`` merge step exists so that a user served by
two disconnected pieces of the *same* facility is still credited to that
one facility.  Here every :class:`FacilityComponent` carries its facility
id and holds **all** of the facility's stops relevant to its region in a
single :class:`~repro.core.service.StopSet`, so same-facility pieces are
already unified and a user is never double-counted across components.

:class:`DivisionPlan` is the paper's ``intersectingComponents`` for a
whole tree at once: one closed-interval test of every stop against every
q-node's expanded region gives each node's component as a row of a
membership matrix, from which the set of nodes a walk reaches and each
component's serving envelope follow without visiting a node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.geometry import BBox
from ..core.service import StopSet
from ..core.trajectory import FacilityRoute
from ..index.frame import TreeFrame

__all__ = ["FacilityComponent", "DivisionPlan"]


@dataclass(frozen=True)
class FacilityComponent:
    """A facility restricted to a region of space.

    ``stops`` holds the stops that can serve any point of the region
    (i.e. stops within the region expanded by ``psi``); ``psi`` rides
    along so the component can derive its serving envelope.
    """

    facility_id: int
    stops: StopSet
    psi: float

    @classmethod
    def whole(cls, facility: FacilityRoute, psi: float) -> "FacilityComponent":
        """The undivided facility as a single component."""
        return cls(facility.facility_id, StopSet.of_facility(facility), psi)

    def with_stops(self, stops: StopSet) -> "FacilityComponent":
        """The same component with its stop set swapped (e.g. for a
        grid-backed :class:`~repro.engine.GriddedStopSet`, which carries
        through a ``restricted_to`` division)."""
        return FacilityComponent(self.facility_id, stops, self.psi)

    @property
    def is_empty(self) -> bool:
        return self.stops.is_empty

    @property
    def embr(self) -> Optional[BBox]:
        """Serving-area envelope: stop bbox expanded by ``psi``."""
        return self.stops.embr(self.psi)

    def restricted_to(self, box: BBox) -> "FacilityComponent":
        """The component serving region ``box``: stops within ``box ⊕ psi``."""
        serving = box.expanded(self.psi)
        return FacilityComponent(
            self.facility_id, self.stops.restricted_to(serving), self.psi
        )


class DivisionPlan:
    """One component divided over every q-node of a tree frame.

    ``member[i, j]`` says stop ``j`` of ``component`` belongs to node
    ``i``'s component — it lies in ``box[i]`` grown by ``psi``, the very
    comparison :meth:`FacilityComponent.restricted_to` makes.
    ``visited[i]`` says the paper's walk from the root reaches node
    ``i``: its component is non-empty and its subtree holds an entry
    (the root needs only the former).  No ancestor check is needed: a
    child's region lies inside its parent's, and subtracting ``psi``
    from both keeps the order, so a stop that is a member at a node is
    a member at every ancestor, and a subtree with an entry makes every
    enclosing subtree non-empty too.
    """

    __slots__ = ("component", "member", "visited", "_embr")

    def __init__(self, frame: TreeFrame, component: FacilityComponent) -> None:
        self.component = component
        psi = component.psi
        xy, box = component.stops.coords, frame.box
        x, y = xy[None, :, 0], xy[None, :, 1]
        self.member = (
            (x >= (box[:, 0] - psi)[:, None])
            & (x <= (box[:, 2] + psi)[:, None])
            & (y >= (box[:, 1] - psi)[:, None])
            & (y <= (box[:, 3] + psi)[:, None])
        )
        self.visited = self.member.any(axis=1)
        self.visited[1:] &= frame.sub[1:, 0] > 0
        self._embr: Optional[np.ndarray] = None

    def embr(self, nodes: np.ndarray) -> np.ndarray:
        """Serving envelopes of the (non-empty) components at ``nodes``,
        one ``(xmin, ymin, xmax, ymax)`` row each: the member stops'
        bounding box grown by ``psi`` — ``FacilityComponent.embr``'s
        floats.  Tabled for the whole tree on first use (a walk the
        cache answers never asks)."""
        if self._embr is None:
            served = np.flatnonzero(self.member.any(axis=1))
            member = self.member[served]
            xy, psi = self.component.stops.coords, self.component.psi
            x, y = xy[None, :, 0], xy[None, :, 1]
            low, high = dict(axis=1, initial=np.inf), dict(axis=1, initial=-np.inf)
            table = np.full((self.visited.size, 4), np.nan)
            table[served, 0] = np.where(member, x, np.inf).min(**low) - psi
            table[served, 1] = np.where(member, y, np.inf).min(**low) - psi
            table[served, 2] = np.where(member, x, -np.inf).max(**high) + psi
            table[served, 3] = np.where(member, y, -np.inf).max(**high) + psi
            self._embr = table
        return self._embr[nodes]
