"""Coverage memoisation for repeated query evaluation.

The query layer recomputes coverage from scratch for every evaluation:
a facility queried twice walks the same (node, facility-component)
pairs twice, kMaxRRST re-scans ancestor lists across relax rounds, the
greedy/genetic/exact MaxkCovRST solvers each re-derive the same
per-facility match sets, and batched multi-model queries re-derive the
identical ``psi``-mask once per service model.  :class:`CoverageCache`
memoises the three shapes of that repeated work:

* **walk records** — per ``(facility, psi, node-table generation)`` the
  arrays Algorithm 1's division makes (which nodes are served and
  reached, their serving envelopes), the walk's stop set as the runtime
  that made the record dressed it, and, per ``(model, normalize)``,
  three node-indexed columns of Algorithm 2's values (``known``, the
  ``value`` a node's own list adds, how many candidates scoring it took)
  and a kMaxRRST *level script* once they know every value a state's
  rounds add.  A warm frontier is one gather, a warm kMaxRRST state a
  replay.  The stop set goes out as an unprobed copy, and only to the
  runtime that dressed it (held by identity, not kept alive): no record
  pins a built grid or cellstring, and runtimes of different backends
  share divisions and values, never a dressing.  Only non-collecting
  walks fill value columns — a collecting walk's product is its match
  set, memoised whole below;
* **match sets** — per-facility served-point-index maps (the input to
  the greedy / genetic / exact MaxkCovRST solvers);
* **batch masks** — per ``(stop set, psi)`` coverage masks over a batch
  engine's concatenated probe block (shared across service models and
  ``normalize`` settings, which only differ in aggregation).

Everything held carries enough to re-verify itself on lookup — a walk
record the facility's own stop coordinates, by identity, else by value
(equal stops restrict to equal walk stops), the facility object by
identity for match sets, the stop-set object by identity for batch
masks — so neither ``id`` reuse after garbage collection nor two
facilities sharing a ``facility_id`` can alias to a wrong cached answer;
a failed verification is simply a miss.  The node table's *generation*
is drawn from a process-wide counter when the table is made and
whenever an insert changes it, so two trees never share a record and an
insert re-walks every node after it (TQ-tree match sets carry it in
their key too).  Any other data change is the caller's to scope: drop
the cache (or :meth:`clear`) when it happens.

Records are held to :data:`MAX_ROWS` node rows (a division and each
value column count one row per node, a level script one per node of its
anchor path and frontiers), least recently used first out and never the
record being filled; match sets, keyed on client-supplied values
(``psi`` is a float on the wire), to :data:`MAX_ENTRIES`, oldest first
out.  An evicted answer is a miss like any other.  Divisions are
bookkeeping, not answers: they count in neither ``hits`` / ``misses``
nor ``len()``; a node value counts one hit or one miss per listed node a
frontier reads.

**Thread safety.**  A cache shared by a :class:`repro.service
.QueryService` is read and written from the service's bridge threads
concurrently, so every table access and counter update happens under one
internal lock.  Value columns are copied on write and swapped in under
the lock, and a level script is installed once, so neither changes once
stored and both are read outside it.  The lock covers the bookkeeping
only: the expensive work a miss triggers — probe kernels, ``match_fn``
bodies — runs outside it, so concurrent misses on *different* keys still
overlap.  Concurrent misses on the *same* key both compute; the first
walk record stored is kept, otherwise the last store wins — identical
content either way; the service avoids even the duplicated work by
serialising requests that share probe units (see ``repro.service``).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Mapping, Optional, Tuple

import numpy as np

__all__ = ["CoverageCache", "WalkRecord"]

#: Match sets held before the oldest go: a warm catalog never evicts
#: while a sweep over never-repeated keys stays bounded.
MAX_ENTRIES = 16_384

#: Node rows held over all walk records before the least recently used
#: go.  About twice the largest working set a perfbench workload has
#: (``serve_burst``: 960 (route, psi) walks of a 33-node tree with one
#: ENDPOINT column, ~63.4k rows; ``paper_multipoint``: 66 walks of 305 +
#: 9 nodes with a COUNT and a LENGTH column, ~62.2k, level scripts ~4k).
MAX_ROWS = 131_072

#: One division's arrays: served, visited, envelopes
#: (``repro.queries.components.Division``).
Division = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: One value column: known, value, scored-candidate count per node.
Column = Tuple[np.ndarray, np.ndarray, np.ndarray]


class WalkRecord:
    """One walk's division, value columns, level scripts and unprobed
    stop set, with the runtime that dressed it (weakly held).  ``columns``,
    ``scripts`` and ``rows`` change only under the owning cache's lock;
    a column is replaced, never written into."""

    __slots__ = ("key", "coords", "division", "dresser", "stops", "columns", "scripts", "rows")

    def __init__(self, key, coords: np.ndarray, division: Division, dresser, stops) -> None:
        self.key, self.coords, self.division = key, coords, division
        self.dresser, self.stops = weakref.ref(dresser), stops
        self.columns: Dict[Hashable, Column] = {}  # guarded-by: _lock
        self.scripts: Dict[Hashable, Any] = {}  # guarded-by: _lock
        self.rows = division[0].size  # guarded-by: _lock

    def made_of(self, stop_coords: np.ndarray) -> bool:
        """Was the record made of ``stop_coords`` — that array, or one equal bitwise?"""
        return self.coords is stop_coords or np.array_equal(self.coords, stop_coords)


class CoverageCache:
    """Memoises walk records, match sets and batch masks."""

    def __init__(self) -> None:
        # record key -> record, least recently used first; _rows counts
        # the node rows of all records
        self._records: "OrderedDict[Hashable, WalkRecord]" = OrderedDict()  # guarded-by: _lock
        self._rows = 0  # guarded-by: _lock
        # key -> (facility, matches)
        self._matches: "OrderedDict[Hashable, Tuple[Any, Mapping]]" = OrderedDict()  # guarded-by: _lock
        self._masks: Dict[Hashable, Tuple[Any, np.ndarray, np.ndarray]] = {}  # guarded-by: _lock
        self._match_fns: Dict[int, Callable] = {}  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # walk records: Algorithm-1 divisions and Algorithm-2 value columns
    # ------------------------------------------------------------------
    def lookup_record(self, key: Hashable, stop_coords: np.ndarray) -> Optional[WalkRecord]:
        """The record held for ``key`` if it was made of the facility
        stops ``stop_coords`` — the same array, or one equal bitwise —
        else ``None``.  Equal stops restrict to equal walk stops, so
        the check is what keeps two distinct facilities sharing an id
        apart while re-walks hit.  A hit becomes the most recently used
        record."""
        with self._lock:
            record = self._records.get(key)
            if record is None or not record.made_of(stop_coords):
                return None
            self._records.move_to_end(key)
            return record

    def store_record(
        self, key: Hashable, stop_coords: np.ndarray, division: Division, dresser, stops
    ) -> WalkRecord:
        """A record of ``division`` — made of the facility stops
        ``stop_coords``, walked as ``dresser`` dressed them: ``stops`` —
        held as ``key``'s, replacing what the key held, unless it alone is
        larger than :data:`MAX_ROWS` (then it is returned unheld).  A
        record of equal stops the key gained meanwhile (a concurrent walk
        that missed too) is kept and returned: both fill one record."""
        with self._lock:
            record = held = self._records.pop(key, None)
            if held is not None:
                self._rows -= held.rows
            if held is None or not held.made_of(stop_coords):
                record = WalkRecord(key, stop_coords, division, dresser, stops)
            if record.rows <= MAX_ROWS:
                self._records[key] = record
                self._rows += record.rows
                self._evict()
        return record

    def read_column(self, record: WalkRecord, column: Hashable) -> Optional[Column]:
        """``record``'s value column ``column`` as it stands, or ``None``."""
        with self._lock:
            return record.columns.get(column)

    def store_column(
        self,
        record: WalkRecord,
        column: Hashable,
        nodes: np.ndarray,
        values: np.ndarray,
        counts: np.ndarray,
        hits: int,
    ) -> None:
        """Count ``hits`` hits and one miss per node of ``nodes``, and
        set those nodes' values and scored-candidate counts in
        ``record``'s column ``column`` — a copy swapped in for the one
        held — if the cache still holds ``record``.  A new column adds
        one row per node; least recently used records go until all fit
        in :data:`MAX_ROWS`, ``record`` last."""
        with self._lock:
            self.hits += hits
            self.misses += nodes.size
            if not nodes.size or self._records.get(record.key) is not record:
                return
            held = record.columns.get(column)
            if held is None:
                n = record.division[0].size
                held = (np.zeros(n, dtype=bool), np.zeros(n), np.zeros(n, dtype=np.int64))
                record.rows += n
                self._rows += n
            known, value, count = (array.copy() for array in held)
            known[nodes], value[nodes], count[nodes] = True, values, counts
            record.columns[column] = (known, value, count)
            self._records.move_to_end(record.key)
            self._evict()

    def read_script(self, record: WalkRecord, column: Hashable) -> Any:
        """``record``'s level script for ``column``, or ``None``."""
        with self._lock:
            return record.scripts.get(column)

    def store_script(self, record: WalkRecord, column: Hashable, script, rows: int) -> None:
        """Hold ``script`` — ``rows`` node rows — as ``record``'s level
        script for ``column`` if the cache still holds ``record`` and no
        script for it yet; evict like :meth:`store_column`."""
        with self._lock:
            if self._records.get(record.key) is record and column not in record.scripts:
                record.scripts[column] = script
                record.rows += rows
                self._rows += rows
                self._records.move_to_end(record.key)
                self._evict()

    def count_hits(self, hits: int) -> None:
        """Count ``hits`` node values a replayed level read."""
        with self._lock:
            self.hits += hits

    def _evict(self) -> None:  # requires-lock: _lock
        while self._rows > MAX_ROWS:
            self._rows -= self._records.popitem(last=False)[1].rows

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
            # through its walk records, and holding the lock here
            # would serialise every concurrent miss on the whole cache
            matches = match_fn(facility)
            with self._lock:
                self._matches[entry_key] = (facility, matches)
                if len(self._matches) > MAX_ENTRIES:
                    self._matches.popitem(last=False)
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
            self._records.clear()
            self._rows = 0
            self._matches.clear()
            self._masks.clear()
            self._match_fns.clear()

    def __len__(self) -> int:
        """Answers held: known node values, match sets and masks."""
        with self._lock:
            known = sum(
                int(np.count_nonzero(column[0]))
                for record in self._records.values()
                for column in record.columns.values()
            )
            return known + len(self._matches) + len(self._masks)
