"""Index introspection: storage-cost accounting (paper Section III-B).

The paper's storage claims, which :func:`storage_report` verifies on a
live tree's node table (and the test-suite asserts):

* endpoint / full-trajectory variants: every trajectory stored exactly
  once, so ``sum_E |UL(E)| == |U|``;
* segmented variant: every segment stored exactly once, so
  ``sum_E |UL(E)| == sum_u (|u| - 1)`` (single-point trajectories
  contribute one degenerate entry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..core.config import IndexVariant
from .tqtree import TQTree

__all__ = ["IndexStats", "storage_report"]


@dataclass(frozen=True)
class IndexStats:
    """A snapshot of a TQ-tree's shape and storage."""

    n_trajectories: int
    n_entries_expected: int
    n_entries_stored: int
    n_nodes: int
    n_leaves: int
    height: int
    inter_node_entries: int
    intra_node_entries: int
    entries_per_level: Dict[int, int]
    max_leaf_occupancy: int

    @property
    def stores_each_entry_once(self) -> bool:
        return self.n_entries_stored == self.n_entries_expected


def storage_report(tree: TQTree) -> IndexStats:
    """Account for every stored entry, from the node table's columns."""
    frame = tree.frame()
    n_own = frame.n_own
    leaf = frame.children[:, 0] < 0
    # every depth from 0 to the deepest holds a node
    per_level = np.bincount(frame.depth, weights=n_own).astype(np.int64)

    if tree.config.variant is IndexVariant.SEGMENTED:
        expected = int(np.maximum(tree.table.counts - 1, 1).sum())
    else:
        expected = tree.n_trajectories

    return IndexStats(
        n_trajectories=tree.n_trajectories,
        n_entries_expected=expected,
        n_entries_stored=int(n_own.sum()),
        n_nodes=len(frame),
        n_leaves=int(leaf.sum()),
        height=tree.height(),
        inter_node_entries=int(n_own[~leaf].sum()),
        intra_node_entries=int(n_own[leaf].sum()),
        entries_per_level=dict(enumerate(per_level.tolist())),
        max_leaf_occupancy=int(n_own[leaf].max()),
    )
