"""Block-I/O cost model for disk-resident TQ-trees (paper Sections III-B, VI-A).

The paper states that ``beta`` "corresponds to the size of a memory block
(or a disk block for a disk-resident list UL(E))" and that "without loss
of generality our data structures can be applied for disk-based
systems".  This module makes that concrete: it prices a query's work in
*block accesses*, the machine-independent unit database papers compare
on, so the TQ(Z)-vs-TQ(B) separation can be shown free of CPython
constant factors.

Pricing rules (classic external-memory accounting, one block = ``beta``
entries):

* visiting a q-node costs one block (its header: region, ``sub``,
  pointers);
* a TQ(B) evaluation reads the node's *entire* entry list —
  ``ceil(|UL|/beta)`` blocks;
* a TQ(Z) evaluation reads only the z-nodes (buckets) holding surviving
  candidates, plus the z-grid directory (one block per grid);
* the BL baseline reads every leaf block of the point quadtree touched
  by each disc query.

:func:`estimate_query_blocks` prices a service-value evaluation with
these rules and returns the per-method totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.service import ServiceSpec
from ..core.trajectory import FacilityRoute
from ..index.tqtree import TQTree
from .evaluate import candidate_mode, walk_plan

__all__ = ["BlockCosts", "estimate_query_blocks"]


@dataclass
class BlockCosts:
    """Block accesses attributed to one query."""

    node_blocks: int = 0  # q-node headers read
    list_blocks: int = 0  # entry-list blocks read
    directory_blocks: int = 0  # z-grid directories read

    @property
    def total(self) -> int:
        return self.node_blocks + self.list_blocks + self.directory_blocks


def estimate_query_blocks(
    tree: TQTree, facility: FacilityRoute, spec: ServiceSpec
) -> BlockCosts:
    """Price Algorithm 1 for ``facility`` in block accesses.

    Reads the pruning decisions off the live evaluator's own plan and
    filter: a pruned child costs nothing; a reached TQ(B) node pays for
    its whole list; a reached TQ(Z) node pays for its two grid
    directories plus only the buckets (z-nodes, one block each) holding
    ``zReduce`` survivors of the non-collecting walk.
    """
    tree.validate_spec(spec)
    plan = walk_plan(tree, facility, spec.psi, None)
    frame = tree.frame()
    reached = np.flatnonzero(plan.visited)
    costs = BlockCosts(node_blocks=int(reached.size))
    listed = reached[frame.n_own[reached] > 0]
    stack = tree.zstack()
    if stack is None:
        # TQ(B): every reached list is scanned in full
        beta = tree.config.beta
        costs.list_blocks = sum(math.ceil(n / beta) for n in frame.n_own[listed].tolist())
    elif listed.size:
        picked, _counts = stack.candidates(
            stack.slot_of[listed], plan.embr(listed),
            candidate_mode(spec, tree.config.variant, collecting=False),
            plan.component.stops.coords, spec.psi,
        )
        costs.directory_blocks = 2 * int(listed.size)
        costs.list_blocks = int(np.unique(stack.bucket[picked]).size)
    return costs
