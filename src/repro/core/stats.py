"""Work counters shared by every evaluation path.

:class:`QueryStats` started life next to the TQ-tree evaluators; it now
lives in ``core`` so the index-free proximity engine
(:mod:`repro.engine`) can report into the same object without importing
the query layer.  The first five counters describe tree navigation and
entry pruning (Algorithms 1–4); the last four describe raw geometric
work and are what the engine's grid path is expected to shrink:

* ``points_scanned`` — user points that received at least one exact
  ``psi``-distance test (the dense path tests every point; the grid path
  skips points whose 3x3 cell neighbourhood holds no stops);
* ``distance_evals`` — individual point-stop distance evaluations.  A
  TQ-tree walk probes all its candidates against the *walk's* stops
  (the facility restricted to the indexed space), so on the dense path
  this is ``points_scanned x |walk stops|`` — what the kernel really
  computes — not the smaller sum over each q-node's own component;
* ``cells_probed``   — non-empty grid cells gathered while assembling
  candidate stops;
* ``cache_hits``     — listed nodes (reached, with a list of their own)
  of a walk whose answer a :class:`repro.engine.CoverageCache`
  returned, and batch masks a
  :class:`repro.engine.BatchQueryEngine` reused, instead of being
  recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["QueryStats", "StoreStats"]


@dataclass
class QueryStats:
    """Work counters for ablation and pruning-effectiveness tests.

    ``states_relaxed`` and ``states_pruned`` are always 0: kMaxRRST
    evaluates every candidate, so it relaxes and prunes no best-first
    state.  perfbench reads both for ``queries.states_pruned_ratio``, so
    they stay for perfbench and the wire until the benchmark releases
    them.
    """

    nodes_visited: int = 0
    entries_considered: int = 0
    entries_scored: int = 0
    states_relaxed: int = 0
    states_pruned: int = 0
    # proximity-engine counters (see module docstring)
    points_scanned: int = 0
    distance_evals: int = 0
    cells_probed: int = 0
    cache_hits: int = 0

    def merge(self, other: "QueryStats") -> "QueryStats":
        """Accumulate ``other``'s counters into this object (returns self).

        Batched query paths aggregate one per-query stats object per
        request into a single grand total with this.
        """
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self


#: :class:`QueryStats`' counter names, read once: calling ``fields()``
#: on every merge doubled its cost.
_COUNTERS = tuple(f.name for f in fields(QueryStats))


@dataclass(frozen=True)
class StoreStats:
    """A point-in-time snapshot of :class:`repro.engine.ShardStore`
    cache behaviour.

    Frozen on purpose: a snapshot is an observation, not an accumulator
    — mutating one must never perturb the live store's counters, and
    the serving layer hands these out over ``GET /stats`` while queries
    are in flight.  The grid and cellstring hit/miss/eviction triples
    cover the store's two content-addressed tables; ``opened`` counts
    indexes served from a persisted :mod:`repro.store` file instead of
    being rebuilt, and ``verified`` counts how many of those passed the
    bitwise re-verification against the requesting coordinates (an
    ``opened`` without a matching ``verified`` never happens on the
    serving path — a failed verification falls back to a fresh build).

    ``shard_hits``, ``shard_misses`` and ``shard_evictions`` are always
    0: a grid builds its own shards, so the store interns none.  perfbench
    reads ``shard_evictions``, so the three stay for perfbench and the
    wire until the benchmark releases them.
    """

    grid_hits: int = 0
    grid_misses: int = 0
    grid_evictions: int = 0
    shard_hits: int = 0
    shard_misses: int = 0
    shard_evictions: int = 0
    cellstring_hits: int = 0
    cellstring_misses: int = 0
    cellstring_evictions: int = 0
    opened: int = 0
    verified: int = 0
