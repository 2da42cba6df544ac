"""Index entries: the unit of storage inside a TQ-tree.

The paper's Section III-A gives three ways a user trajectory enters the
index (endpoint pair, segmented, full trajectory).  All three are stored
the same way: an entry is the pair ``(row, seg)`` — the user's row in the
tree's :class:`~repro.core.trajectory.UserPointTable` and the segment it
stands for, ``-1`` for a whole-trajectory entry or a one-point user.
:func:`entry_keys` writes a user set's keys; everything else about an
entry — placement box, governing points, owned points and segments,
probe points — is a column of the :class:`~repro.index.block.NodeBlock`
built over its key.  Ownership partitions each trajectory's points and
segments across its entries, so summing entry scores over the whole
index never double-counts.

:class:`SubBounds` names the per-node aggregate the paper calls ``sub``:
the upper bound of the service value obtainable from a subtree, in the
unit of whichever :class:`~repro.core.service.ServiceSpec` the query uses.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.config import IndexVariant
from ..core.errors import QueryError
from ..core.service import ServiceModel, ServiceSpec
from ..core.trajectory import UserPointTable, ranges

__all__ = ["SubBounds", "entry_keys", "validate_spec_for_variant"]


def entry_keys(
    table: UserPointTable, variant: IndexVariant
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(rows, segs)`` keys of every entry of ``table``'s users,
    ascending: one per user (ENDPOINT, FULL) or one per consecutive
    point pair (SEGMENTED; a one-point user keeps one entry, ``seg``
    ``-1``)."""
    n = table.n_users
    if variant is not IndexVariant.SEGMENTED:
        return np.arange(n, dtype=np.int64), np.full(n, -1, dtype=np.int64)
    per_user = np.maximum(table.counts - 1, 1)
    rows = np.repeat(np.arange(n, dtype=np.int64), per_user)
    segs = ranges(np.zeros(n, dtype=np.int64), per_user)
    segs[table.counts[rows] == 1] = -1
    return rows, segs


def validate_spec_for_variant(
    spec: ServiceSpec, variant: IndexVariant, max_points: int
) -> None:
    """Reject service-model / index-variant pairings that cannot be exact.

    * ENDPOINT service on a SEGMENTED index is undefined (a segment is not
      a user).  Segment-level datasets (the paper's BJG setup) should be
      segmented *before* indexing, then queried on an ENDPOINT index.
    * Partial service (COUNT/LENGTH) on an ENDPOINT index silently ignores
      interior points when trajectories have more than two points, so it
      is rejected for such data.
    """
    if spec.model is ServiceModel.ENDPOINT and variant is IndexVariant.SEGMENTED:
        raise QueryError(
            "ENDPOINT service is undefined on a SEGMENTED index; segment the "
            "dataset itself and build an ENDPOINT index instead"
        )
    if (
        spec.model is not ServiceModel.ENDPOINT
        and variant is IndexVariant.ENDPOINT
        and max_points > 2
    ):
        raise QueryError(
            "partial service models need SEGMENTED or FULL indexing when "
            f"trajectories have more than two points (max seen: {max_points})"
        )


class SubBounds:
    """Per-node subtree aggregates — the paper's ``sub`` for all specs.

    Five counters, exactly additive over entries: entries, points,
    length, points over ``|u|`` and length over ``length(u)``.  They are
    the columns of the node table's ``own`` (a node's list) and ``sub``
    (its subtree: its own list plus its children's bounds) rows, in the
    order of :meth:`NodeBlock.own_totals
    <repro.index.block.NodeBlock.own_totals>`.
    """

    @staticmethod
    def column_for(spec: ServiceSpec) -> int:
        """Which counter (column of ``own`` / ``sub``) bounds ``spec``."""
        if spec.model is ServiceModel.ENDPOINT:
            return 0
        if spec.model is ServiceModel.COUNT:
            return 3 if spec.normalize else 1
        return 4 if spec.normalize else 2
