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

:func:`divide` is the paper's ``intersectingComponents`` for a whole
tree at once: one closed-interval test of every stop against every
q-node's expanded region says which nodes' components are non-empty,
which nodes a walk reaches and each component's serving envelope,
without visiting a node; the test itself is not kept.  A
:class:`DivisionPlan` is a component and those three per-node arrays —
a function of the component's stop coordinates, ``psi`` and the node
table, so a runtime's cache can hand a later walk the arrays of an
earlier one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.geometry import BBox
from ..core.service import StopSet
from ..core.trajectory import FacilityRoute
from ..index.frame import TreeFrame

__all__ = ["FacilityComponent", "DivisionPlan", "Division", "divide"]


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


#: One division over a node table: per node, whether its component is
#: non-empty (``served``) and whether the walk reaches it (``visited``),
#: and the ``(n, 4)`` table of the served components' serving envelopes
#: (NaN rows elsewhere).
Division = Tuple[np.ndarray, np.ndarray, np.ndarray]


def divide(frame: TreeFrame, stops: np.ndarray, psi: float) -> Division:
    """Divide the stops ``stops`` (an ``(m, 2)`` array) over every node
    of ``frame``.

    Stop ``j`` belongs to node ``i``'s component when it lies in
    ``box[i]`` grown by ``psi`` — the very comparison
    :meth:`FacilityComponent.restricted_to` makes.  A node is *served*
    when one stop belongs to it, and *visited* — the paper's walk from
    the root reaches it — when it is served and its subtree holds an
    entry (the root needs only the former).  No ancestor check is
    needed: a child's region lies inside its parent's, and subtracting
    ``psi`` from both keeps the order, so a stop that belongs to a node
    belongs to every ancestor, and a subtree with an entry makes every
    enclosing subtree non-empty too.  A served node's envelope is its
    stops' bounding box grown by ``psi`` — ``FacilityComponent.embr``'s
    floats.  The arrays are read-only: a cache shares them between
    walks."""
    box = frame.box
    x, y = stops[None, :, 0], stops[None, :, 1]
    member = (
        (x >= (box[:, 0] - psi)[:, None])
        & (x <= (box[:, 2] + psi)[:, None])
        & (y >= (box[:, 1] - psi)[:, None])
        & (y <= (box[:, 3] + psi)[:, None])
    )
    served = member.any(axis=1)
    visited = served.copy()
    visited[1:] &= frame.sub[1:, 0] > 0
    rows = np.flatnonzero(served)
    member = member[rows]
    low, high = dict(axis=1, initial=np.inf), dict(axis=1, initial=-np.inf)
    envelopes = np.full((served.size, 4), np.nan)
    envelopes[rows, 0] = np.where(member, x, np.inf).min(**low) - psi
    envelopes[rows, 1] = np.where(member, y, np.inf).min(**low) - psi
    envelopes[rows, 2] = np.where(member, x, -np.inf).max(**high) + psi
    envelopes[rows, 3] = np.where(member, y, -np.inf).max(**high) + psi
    for array in (served, visited, envelopes):
        array.flags.writeable = False
    return served, visited, envelopes


class DivisionPlan:
    """One component divided over every q-node of a tree frame: the
    component itself (the walk's stops, dressed for its runtime), the
    arrays :func:`divide` made of its coordinates and, for a walk a
    runtime's cache keeps, its :class:`~repro.engine.cache.WalkRecord`."""

    __slots__ = ("component", "served", "visited", "envelopes", "record")

    def __init__(self, component: FacilityComponent, division: Division, record=None) -> None:
        self.component, self.record = component, record
        self.served, self.visited, self.envelopes = division

    def embr(self, nodes: np.ndarray) -> np.ndarray:
        """Serving envelopes of the (served) components at ``nodes``,
        one ``(xmin, ymin, xmax, ymax)`` row each."""
        return self.envelopes[nodes]
