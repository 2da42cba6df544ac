"""Coverage memoisation for repeated query evaluation.

The query layer recomputes coverage from scratch for every evaluation:
a facility queried twice walks the same (node, facility-component)
pairs twice, kMaxRRST evaluates candidates other queries walked, and
the greedy / genetic / exact MaxkCovRST solvers each want the same
per-facility match sets.  All of that is one walk's work — it depends
on the facility's stops, ``psi`` and the tree, and nothing else — so
:class:`CoverageCache` holds one thing: a **walk record** per
``(facility, psi, node-table generation)``.  A record keeps

* the arrays Algorithm 1's division makes (which nodes are served and
  reached, their serving envelopes) and the walk's stop set as the
  runtime dressed it, unprobed — the walk gets an unprobed copy, so no
  record pins a built grid or cellstring;
* per ``(model, normalize)`` column: three node-indexed arrays of
  Algorithm 2's values (``known``, the ``value`` a node's own list
  adds, how many candidates scoring it took), filled by non-collecting
  walks; and the collecting walk's **match set** (the served-point
  slots the MaxkCovRST solvers price).

A warm frontier is one gather, a warm match set a lookup.

A record is found by its key and verified against the facility's own
stop coordinates — by identity, else bitwise (equal stops restrict to
equal walk stops) — so neither two facilities sharing a
``facility_id`` nor two ``FacilityRoute`` objects of one route can get
a wrong answer, and the second of two equal routes hits.  A failed
verification is simply a miss.  The node table's *generation* is drawn
from a process-wide counter when the table is made and whenever an
insert changes it, so two trees never share a record and an insert
re-walks every node after it.  Any other data change is the caller's to
scope: drop the cache (or :meth:`clear`) when it happens.

Records are held to :data:`MAX_ROWS` rows — a division and each value
column one per node, a match set one per slot — least recently used
first out and never the record being filled.  An evicted answer is a miss like any
other.  Divisions are bookkeeping, not answers: they count in neither
``hits`` / ``misses`` nor ``len()``; a node value counts one hit or one
miss per listed node a frontier reads, a match set one per request.

**One thread owns a cache**, as one thread owns the runtime that holds
it (DESIGN.md §6): nothing here takes a lock.  A value column is still
copied on write and swapped in, and a match set is installed once, so
none changes once stored and a caller may keep what it read.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

import numpy as np

__all__ = ["CoverageCache", "WalkRecord"]

#: Rows held over all walk records before the least recently used go.
#: Measured working sets, as record rows + match-set slots:
#: ``paper_multipoint`` 44.5-45.3k + 64.6-65.8k, ``serve_burst``
#: 55.2-55.6k + 16.9-18.1k; ``paper_cold`` never repeats a walk and sits
#: at the bound.
MAX_ROWS = 131_072

#: One division's arrays: served, visited, envelopes
#: (what ``repro.queries.evaluate.divide`` returns).
Division = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: One value column: known, value, scored-candidate count per node.
Column = Tuple[np.ndarray, np.ndarray, np.ndarray]


class WalkRecord:
    """One walk's division and unprobed stop set, with its value
    columns and match sets per ``(model, normalize)``.  ``columns``,
    ``matches`` and ``rows`` change only through the owning cache; a
    column is replaced, never written into, and a match set is
    installed once."""

    __slots__ = ("key", "coords", "division", "stops", "columns", "matches", "rows")

    def __init__(self, key, coords: np.ndarray, division: Division, stops) -> None:
        self.key, self.coords, self.division, self.stops = key, coords, division, stops
        self.columns: Dict[Hashable, Column] = {}
        self.matches: Dict[Hashable, Any] = {}
        self.rows = division[0].size

    def made_of(self, stop_coords: np.ndarray) -> bool:
        """Was the record made of ``stop_coords`` — that array, or one equal bitwise?"""
        return self.coords is stop_coords or np.array_equal(self.coords, stop_coords)


class CoverageCache:
    """Memoises walk records for the one thread that owns it (see
    module docstring)."""

    def __init__(self) -> None:
        # record key -> record, least recently used first; _rows counts
        # the rows of all records
        self._records: "OrderedDict[Hashable, WalkRecord]" = OrderedDict()
        self._rows = 0
        self.hits = 0
        self.misses = 0

    def lookup_record(self, key: Hashable, stop_coords: np.ndarray) -> Optional[WalkRecord]:
        """The record held for ``key`` if it was made of the facility
        stops ``stop_coords`` — the same array, or one equal bitwise —
        else ``None``.  Equal stops restrict to equal walk stops, so
        the check is what keeps two distinct facilities sharing an id
        apart while re-walks hit.  A hit becomes the most recently used
        record."""
        record = self._records.get(key)
        if record is None or not record.made_of(stop_coords):
            return None
        self._records.move_to_end(key)
        return record

    def store_record(
        self, key: Hashable, stop_coords: np.ndarray, division: Division, stops
    ) -> WalkRecord:
        """A record of ``division`` — made of the facility stops
        ``stop_coords``, walked as ``stops`` — held as ``key``'s,
        replacing what the key held, unless it alone is larger than
        :data:`MAX_ROWS` (then it is returned unheld)."""
        held = self._records.pop(key, None)
        if held is not None:
            self._rows -= held.rows
        record = WalkRecord(key, stop_coords, division, stops)
        if record.rows <= MAX_ROWS:
            self._records[key] = record
            self._rows += record.rows
            self._evict()
        return record

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
        self.hits += hits
        self.misses += nodes.size
        if not nodes.size or self._records.get(record.key) is not record:
            return
        held, rows = record.columns.get(column), 0
        if held is None:
            rows = n = record.division[0].size
            held = (np.zeros(n, dtype=bool), np.zeros(n), np.zeros(n, dtype=np.int64))
        known, value, count = (array.copy() for array in held)
        known[nodes], value[nodes], count[nodes] = True, values, counts
        record.columns[column] = (known, value, count)
        self._grow(record, rows)

    def read_matches(
        self, key: Hashable, stop_coords: np.ndarray, column: Hashable
    ) -> Any:
        """The match set held for ``column`` on the record
        :meth:`lookup_record` finds, counted as one hit, or ``None``."""
        record = self.lookup_record(key, stop_coords)
        matches = None if record is None else record.matches.get(column)
        if matches is not None:
            self.hits += 1
        return matches

    def store_matches(
        self, key: Hashable, stop_coords: np.ndarray, column: Hashable, matches
    ) -> None:
        """Count one miss, and hold ``matches`` — one row per slot — for
        ``column`` on the record :meth:`lookup_record` finds if there is
        one and it holds no match set for ``column`` yet; evict like
        :meth:`store_column`."""
        self.misses += 1
        record = self.lookup_record(key, stop_coords)
        if record is not None and column not in record.matches:
            record.matches[column] = matches
            self._grow(record, matches.slots.size)

    def _grow(self, record: WalkRecord, rows: int) -> None:
        """``record``, held, gained ``rows`` rows and is used: least
        recently used records go until all fit, ``record`` last."""
        record.rows += rows
        self._rows += rows
        self._records.move_to_end(record.key)
        self._evict()

    def _evict(self) -> None:
        while self._rows > MAX_ROWS:
            self._rows -= self._records.popitem(last=False)[1].rows

    def clear(self) -> None:
        self._records.clear()
        self._rows = 0

    def __len__(self) -> int:
        """Answers held: known node values and match sets."""
        return sum(
            len(record.matches)
            + sum(int(np.count_nonzero(known)) for known, _, _ in record.columns.values())
            for record in self._records.values()
        )
