"""Index introspection: storage-cost accounting (paper Section III-B).

The paper's storage claims, which :func:`storage_report` verifies on a
live tree (and the test-suite asserts):

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
    """Walk the tree and account for every stored entry."""
    n_nodes = 0
    n_leaves = 0
    inter = 0
    intra = 0
    per_level: Dict[int, int] = {}
    max_leaf = 0
    stored = 0
    for node in tree.nodes():
        n_nodes += 1
        stored += node.n_own
        per_level[node.depth] = per_level.get(node.depth, 0) + node.n_own
        if node.is_leaf:
            n_leaves += 1
            intra += node.n_own
            max_leaf = max(max_leaf, node.n_own)
        else:
            inter += node.n_own

    if tree.config.variant is IndexVariant.SEGMENTED:
        expected = int(np.maximum(tree.table.counts - 1, 1).sum())
    else:
        expected = tree.n_trajectories

    return IndexStats(
        n_trajectories=tree.n_trajectories,
        n_entries_expected=expected,
        n_entries_stored=stored,
        n_nodes=n_nodes,
        n_leaves=n_leaves,
        height=tree.height(),
        inter_node_entries=inter,
        intra_node_entries=intra,
        entries_per_level=per_level,
        max_leaf_occupancy=max_leaf,
    )
