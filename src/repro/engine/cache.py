"""Coverage memoisation for repeated query evaluation.

The query layer recomputes coverage from scratch for every evaluation:
a facility queried twice walks the same (node, facility-component)
pairs twice, kMaxRRST re-scans ancestor lists across relax rounds, the
greedy/genetic/exact MaxkCovRST solvers each re-derive the same
per-facility match sets, and batched multi-model queries re-derive the
identical ``psi``-mask once per service model.  :class:`CoverageCache`
memoises the four shapes of that repeated work:

* **division plans** — per ``(facility, psi, node-table generation)``
  the arrays Algorithm 1's division makes (which nodes are served and
  reached, their serving envelopes): a walk's plan is a function of its
  stop coordinates, ``psi`` and the node table, so the key has no mode
  and a collecting re-walk shares its shortlist's plan.  Arrays only,
  never the component: a cache shared by runtimes of different
  backends must not hand one runtime another's dressed stop set;

* **node results** — per walk ``(facility, psi, mode)`` a table of
  Algorithm 2's candidate rows and coverage masks per node stamp (the
  component a facility induces at a q-node is deterministic, so the
  pair's mask is too; collecting and non-collecting walks select
  different candidates, so mode is part of the walk key and reuse is
  within-mode);
* **match sets** — per-facility served-point-index maps (the input to
  the greedy / genetic / exact MaxkCovRST solvers);
* **batch masks** — per ``(stop set, psi)`` coverage masks over a batch
  engine's concatenated probe block (shared across service models and
  ``normalize`` settings, which only differ in aggregation).

Everything held carries enough to re-verify itself on lookup — a plan
and a walk table their walk's stop coordinates by value (the facility
restricted to the indexed space: equal walks induce equal components at
every node; checked once per walk, and a mismatch is a miss, or swaps in
a fresh table), the
facility object by identity for match sets, the stop-set object by
identity for batch masks — so neither ``id`` reuse after garbage
collection nor two facilities sharing a ``facility_id`` can alias to a
wrong cached answer; a failed verification is simply a miss.  Node
results need no check of their own: they are keyed by the node's
*stamp*, which no other node of any tree in the process ever carries
and which an insert into the node (or a split re-placing it) renews —
so rows cached against an older list miss, and a node an insert left
alone keeps its stamp and its hits.  Plans are keyed by the node table's
*generation*, which an insert renews the same way, so an insert
re-divides every walk after it.  A cache is only valid for a fixed user
set / tree: drop it (or :meth:`clear`) when the underlying data changes.

Node results and match sets are keyed on client-supplied values
(``psi`` is a float on the wire), so each kind is held to at most
:data:`MAX_ENTRIES`: match sets drop their oldest entry beyond that,
node results whole walks, least recently filled first and never the
walk being filled — an evicted result is a miss like any other.  Plans
are held to :data:`MAX_PLAN_ROWS` node rows, least recently used first
out.  Plans are bookkeeping, not answers: they count in neither
``hits`` / ``misses`` nor ``len()``.

**Thread safety.**  A cache shared by a :class:`repro.service
.QueryService` is read and written from the service's bridge threads
concurrently, so every table access and counter update happens under
one internal lock — a frontier's node results are read in one
acquisition and its misses stored in one more (entries themselves are
immutable once stored, so serving a reference outside the lock is
safe).  The lock covers the bookkeeping only: the expensive work a miss
triggers — probe kernels,
``match_fn`` bodies — runs outside it, so concurrent misses on
*different* keys still overlap.  Concurrent misses on the *same* key
both compute and the last store wins — identical content either way;
the service avoids even the duplicated work by serialising requests
that share probe units (see ``repro.service``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

__all__ = ["CoverageCache"]

#: Node results (over all walk tables) and match sets each held before
#: the oldest go.  Twice the largest working set a perfbench workload
#: ends with (``paper_multipoint``: 8,001 node results), so a warm
#: catalog never evicts while a sweep over never-repeated keys stays
#: bounded.
MAX_ENTRIES = 16_384

#: Node rows held over all division plans before the least recently
#: used plans go.  Twice the largest working set a perfbench workload
#: has (``serve_burst``: 960 (route, psi) walks of a 33-node tree,
#: ~31.7k rows; ``paper_multipoint`` 66 x (305 + 9) ~ 20.7k).
MAX_PLAN_ROWS = 65_536

#: One node result: (node-relative candidate rows, mask).
NodeResult = Tuple[np.ndarray, np.ndarray]
#: One walk: its stop coordinates and its node results by node stamp.
Walk = Tuple[np.ndarray, Dict[int, NodeResult]]
#: One division plan's arrays: served, visited, envelopes
#: (``repro.queries.components.Division``).
Division = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _store(table: "OrderedDict[Hashable, Any]", key: Hashable, entry: Any) -> None:
    table[key] = entry
    if len(table) > MAX_ENTRIES:
        table.popitem(last=False)


class CoverageCache:
    """Memoises coverage masks, node candidate sets, and match sets."""

    def __init__(self) -> None:
        # walk key -> (stop coords, {node stamp: node result}), least
        # recently filled first; _held counts the results of all walks
        self._walks: "OrderedDict[Hashable, Walk]" = OrderedDict()  # guarded-by: _lock
        self._held = 0  # guarded-by: _lock
        # plan key -> (stop coords, division), least recently used
        # first; _plan_rows counts the node rows of all plans
        self._plans: "OrderedDict[Hashable, Tuple[np.ndarray, Division]]" = OrderedDict()  # guarded-by: _lock
        self._plan_rows = 0  # guarded-by: _lock
        # key -> (facility, matches)
        self._matches: "OrderedDict[Hashable, Tuple[Any, Mapping]]" = OrderedDict()  # guarded-by: _lock
        self._masks: Dict[Hashable, Tuple[Any, np.ndarray, np.ndarray]] = {}  # guarded-by: _lock
        self._match_fns: Dict[int, Callable] = {}  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Algorithm-1 division plans
    # ------------------------------------------------------------------
    def lookup_plan(self, key: Hashable, stop_coords: np.ndarray) -> Optional[Division]:
        """The division held for plan ``key`` if its stop coordinates
        equal ``stop_coords`` bitwise (as walk tables are verified),
        else ``None``.  A hit becomes the most recently used plan."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is None or not np.array_equal(plan[0], stop_coords):
                return None
            self._plans.move_to_end(key)
            return plan[1]

    def store_plan(self, key: Hashable, stop_coords: np.ndarray, division: Division) -> None:
        """Hold ``division`` — made of ``stop_coords`` — as plan
        ``key``'s, replacing what the key held; least recently used
        plans go until all fit in :data:`MAX_PLAN_ROWS` node rows (a
        plan larger than that is not held)."""
        rows = division[0].size
        with self._lock:
            plan = self._plans.pop(key, None)
            if plan is not None:
                self._plan_rows -= plan[1][0].size
            if rows > MAX_PLAN_ROWS:
                return
            while self._plan_rows + rows > MAX_PLAN_ROWS:
                self._plan_rows -= self._plans.popitem(last=False)[1][1][0].size
            self._plans[key] = (stop_coords, division)
            self._plan_rows += rows

    # ------------------------------------------------------------------
    # Algorithm-2 node results, one table per walk
    # ------------------------------------------------------------------
    def lookup_walk(
        self, key: Hashable, stop_coords: np.ndarray, stamps: List[int]
    ) -> Tuple[Dict[int, NodeResult], List[Optional[NodeResult]]]:
        """Walk ``key``'s table and, per node stamp of ``stamps``, the
        result it holds for that node (or ``None``), read under one lock.

        The table is verified once: its stop coordinates — the walk's,
        i.e. the facility's stops within reach of the indexed space —
        must equal ``stop_coords`` bitwise, or the walk gets a fresh
        table, which replaces the held one when stored.  A node's
        component is a function of those and the node's box, so equal
        coordinates mean an equal component at every node; the check is
        what makes the cache sound when two distinct facilities share an
        id (their stops differ, so they miss instead of aliasing) while
        still hitting across re-walks and across algorithms, which
        rebuild equal-valued arrays.  Hits and misses are counted by
        :meth:`store_walk`."""
        with self._lock:
            walk = self._walks.get(key)
            if walk is None or not np.array_equal(walk[0], stop_coords):
                return {}, [None] * len(stamps)
            table = walk[1]
            return table, [table.get(stamp) for stamp in stamps]

    def store_walk(
        self,
        key: Hashable,
        stop_coords: np.ndarray,
        table: Dict[int, NodeResult],
        results: Dict[int, NodeResult],
        hits: int,
    ) -> None:
        """Count ``hits`` hits and one miss per entry of ``results``,
        and hold ``results`` in ``table`` (from :meth:`lookup_walk` with
        the same key and coordinates) as walk ``key``'s newest table.

        Beyond :data:`MAX_ENTRIES` node results, whole walks go, least
        recently filled first; the walk being filled stays, and one
        larger than the whole cache keeps what fits.  Whatever the walk
        holds when ``table`` is not it (a fresh table after a coordinate
        mismatch, or one evicted or replaced since the lookup) is
        replaced: the last store wins, and every result in ``table`` was
        computed against ``stop_coords``."""
        with self._lock:
            self.hits += hits
            self.misses += len(results)
            if not results:
                return
            walk = self._walks.pop(key, None)
            if walk is not None:
                self._held -= len(walk[1])
            table.update(results)
            while self._walks and self._held + len(table) > MAX_ENTRIES:
                self._held -= len(self._walks.popitem(last=False)[1][1])
            while len(table) > MAX_ENTRIES - self._held:
                table.popitem()
            self._walks[key] = (stop_coords, table)
            self._held += len(table)

    # ------------------------------------------------------------------
    # per-facility match sets
    # ------------------------------------------------------------------
    def cached_match_fn(
        self,
        match_fn: Callable,
        key: Optional[Hashable] = None,
        pin: Any = None,
    ) -> Callable:
        """Wrap a ``MatchFn`` so each facility's match set is computed
        once per (cache, key) pair.

        ``key`` names the wrapped function's *semantics* (e.g. which
        tree and spec produce the matches) so independently created
        closures with the same meaning share entries — pass ``pin`` to
        keep any ``id``-based part of that key unambiguous.  Without a
        key, entries are private to the ``match_fn`` object itself
        (which the cache pins alive).  A fn already wrapped by this
        cache passes through unchanged, so solver layers can wrap
        defensively without stacking.
        """
        if getattr(match_fn, "_coverage_cache", None) is self:
            return match_fn
        with self._lock:
            if key is None:
                # entries key on id(match_fn): pin it so the allocator
                # cannot recycle that id while the cache can serve them
                self._match_fns[id(match_fn)] = match_fn
                scope: Hashable = ("fn", id(match_fn))
            else:
                if pin is not None:
                    self._match_fns[id(pin)] = pin
                scope = ("sem", key)

        def fn(facility):
            entry_key = (scope, facility.facility_id)
            with self._lock:
                entry = self._matches.get(entry_key)
                if entry is not None and entry[0] is facility:
                    self.hits += 1
                    return entry[1]
            # compute outside the lock: match_fn re-enters the cache
            # through lookup_walk/store_walk, and holding the lock here
            # would serialise every concurrent miss on the whole cache
            matches = match_fn(facility)
            with self._lock:
                _store(self._matches, entry_key, (facility, matches))
                self.misses += 1
            return matches

        fn._coverage_cache = self  # type: ignore[attr-defined]
        return fn

    # ------------------------------------------------------------------
    # batch-engine probe masks
    # ------------------------------------------------------------------
    def lookup_mask(
        self, owner: Any, psi: float, block: np.ndarray
    ) -> Optional[np.ndarray]:
        """Cached mask for ``(owner stop set, psi)`` — valid only for
        the probe ``block`` it was computed over, verified by identity
        (a cache shared between engines with different user sets must
        miss, not serve a mask of the wrong length/meaning)."""
        with self._lock:
            entry = self._masks.get((id(owner), psi, id(block)))
            if entry is None or entry[0] is not owner or entry[1] is not block:
                return None
            self.hits += 1
            return entry[2]

    def store_mask(
        self, owner: Any, psi: float, block: np.ndarray, mask: np.ndarray
    ) -> None:
        with self._lock:
            self.misses += 1
            self._masks[(id(owner), psi, id(block))] = (owner, block, mask)

    # ------------------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self._walks.clear()
            self._held = 0
            self._plans.clear()
            self._plan_rows = 0
            self._matches.clear()
            self._masks.clear()
            self._match_fns.clear()

    def __len__(self) -> int:
        with self._lock:
            return self._held + len(self._matches) + len(self._masks)
