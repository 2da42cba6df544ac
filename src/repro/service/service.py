"""The asyncio query service: concurrent requests over one runtime.

:class:`QueryService` is the serving layer the ROADMAP's heavy-traffic
north star calls for: an asyncio front that accepts concurrent
:class:`~repro.service.requests.QueryRequest` submissions and runs
their query cores, one after another, on the thread that runs its
event loop, all against one shared :class:`~repro.runtime.QueryRuntime`.

**Cores on the loop.**  A query core is synchronous Python; under the
GIL a worker thread could not run one beside the loop anyway, so the
service calls it directly — no thread pool, no cross-thread wake-up,
no GIL hand-off per request.  The trade: a long core holds the loop,
so reads, ``/healthz`` and other connections wait until it ends.

**One rule for when a core runs.**  At submission the request is
planned by the :class:`~repro.service.planner.QueryPlanner`.  With
``ServiceConfig.batch_window == 0`` its core then runs at once, inside
:meth:`submit`, before the first ``await``.  With a window, every
request of any of the three types joins the service's one open group
instead; the group runs its members' cores in submission order one
loop iteration after its first member's submit, so every submit made
in that iteration — one :meth:`run` gather — joins it.  Either way
each core runs alone, in submission order, against the one runtime,
which is why service results **and per-request stats** are ``==`` the
synchronous functions called in the same order
(``tests/test_query_service.py``) and the same at every window
(``tests/test_batch_service.py``).  A repeat of earlier work rides the
runtime's :class:`~repro.engine.CoverageCache` as cache hits.

**Cancellation.**  A caller may cancel a group member (e.g.
:func:`asyncio.wait_for` timing out) before the group runs: the
member's outcome future is cancelled with it, the group skips it, its
siblings run as scheduled, and it counts in
``ServiceStats.requests_cancelled``.  Nothing awaits inside a core, so
a cancel never lands mid-core.

**What the service never does** is change an answer: batching bounds
*when* work runs, and every answer is bit-identical to the one the
request's synchronous core returns.
"""

from __future__ import annotations

import asyncio
import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.config import ServiceConfig
from ..core.errors import QueryError
from ..runtime import QueryRuntime
from .planner import QueryPlan, QueryPlanner
from .requests import QueryRequest, QueryResult

__all__ = ["QueryService", "ServiceStats"]

#: An open group: each member's plan and the future its submitter awaits.
_Group = List[Tuple[QueryPlan, "asyncio.Future"]]


@dataclass
class ServiceStats:
    """Serving-layer counters (scheduling, not geometry — the geometric
    work counters live on the runtime's :class:`~repro.core.stats
    .QueryStats` totals).

    ``probe_units_planned`` sums the planner's probe units over submitted
    requests.  ``probe_units_batched`` counts the units of members whose
    core ran, and delivered, inside a group (a cancelled or failed
    member's units are not counted); ``batch_groups_run`` counts the
    groups that ran, so ``probe_units_batched / batch_groups_run`` is
    the mean units per group.  With a window on and nothing failing,
    ``probe_units_batched == probe_units_planned``.

    ``probe_units_coalesced`` and ``dedup_rate`` are always 0: no
    request waits behind another, so none is served from another's
    in-flight work (a repeat rides the cache as hits instead).  They
    stay for perfbench and the wire until the benchmark releases them.

    Every submitted request settles into exactly one outcome counter, so
    ``requests_completed + requests_failed + requests_cancelled ==
    requests_submitted`` once the workload drains.  ``requests_rejected``
    is always 0: the service admits every request (backpressure is the
    caller's, TCP's on the HTTP front).  It stays for perfbench and the
    wire.
    """

    requests_submitted: int = 0
    requests_completed: int = 0
    requests_failed: int = 0
    requests_rejected: int = 0
    requests_cancelled: int = 0
    probe_units_planned: int = 0
    probe_units_coalesced: int = 0
    probe_units_batched: int = 0
    batch_groups_run: int = 0

    @property
    def dedup_rate(self) -> float:
        if self.probe_units_planned == 0:
            return 0.0
        return self.probe_units_coalesced / self.probe_units_planned


class QueryService:
    """Asyncio serving front over one :class:`~repro.runtime
    .QueryRuntime` (see module docstring).

    Parameters
    ----------
    runtime:
        The execution context every request shares — its cache and
        shard store carry work from one request to the next.  ``None``
        creates a private runtime (default config).
    config:
        Batching setting (:class:`~repro.core.config.ServiceConfig`;
        the default runs every request inside its submit).

    Use as an async context manager::

        async with QueryService(runtime) as service:
            result = await service.submit(EvaluateRequest(tree, f, spec))

    or drive many requests at once with :meth:`run`.  The service is
    bound to whichever event loop first submits through it and may be
    reused across loops (e.g. successive ``asyncio.run`` calls) only
    while idle.  One thread owns a service, as it owns the runtime the
    service runs on (DESIGN.md §6): another thread reaches it through
    its loop (``loop.call_soon_threadsafe``,
    ``asyncio.run_coroutine_threadsafe``), never directly.
    """

    def __init__(
        self,
        runtime: Optional[QueryRuntime] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.runtime = runtime if runtime is not None else QueryRuntime()
        self.config = config if config is not None else ServiceConfig()
        self.planner = QueryPlanner()
        # the live counters stay private: :attr:`stats` hands out
        # copies, so no caller can change the service's accounting
        self._stats = ServiceStats()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: the open group, if any (its run is already scheduled)
        self._group: Optional[_Group] = None
        self._pending = 0
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse further submissions (members of a group that has not
        run yet fail with :class:`QueryError` instead of running)."""
        self._closed = True

    async def __aenter__(self) -> "QueryService":
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the loop binding (lazy, rebindable while idle)
    # ------------------------------------------------------------------
    def _bind_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            if self._pending:
                raise QueryError(
                    "QueryService is in use on another event loop; await "
                    "its outstanding requests before switching loops"
                )
            self._loop = loop
            self._group = None
        return loop

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(self, request: QueryRequest) -> QueryResult:
        """Answer one request.

        Everything up to the first ``await`` — planning, and at window
        0 the core itself — runs synchronously.  Re-raises whatever the
        request's query core raises (a failed request never poisons the
        next one, exactly as a sequential caller would continue after a
        failed call).  Cancelling the returned coroutine while it waits
        in a group drops it from the group's run.
        """
        if self._closed:
            raise QueryError("QueryService is closed")
        loop = self._bind_loop()
        plan = self.planner.plan(request)  # validates the request type
        self._pending += 1
        self._stats.requests_submitted += 1
        self._stats.probe_units_planned += len(plan.units)
        try:
            if self.config.batch_window > 0.0:
                result = await self._join(loop, plan)
            else:
                result = self._execute(plan)
        except asyncio.CancelledError:
            # CancelledError is a BaseException: without this branch a
            # cancelled request would count in requests_submitted but in
            # no outcome counter
            self._stats.requests_cancelled += 1
            raise
        except BaseException:
            # BaseException, not Exception: a core raising SystemExit/
            # KeyboardInterrupt must still land in an outcome counter or
            # the ServiceStats sum invariant breaks
            self._stats.requests_failed += 1
            raise
        finally:
            self._pending -= 1
        self._stats.requests_completed += 1
        return result

    def _execute(self, plan: QueryPlan) -> QueryResult:
        """One core plus its accrual into the runtime totals — what both
        a window-0 submit and a group run per request."""
        result = plan.execute(self.runtime)
        self.runtime.accrue(result.stats)
        return result

    def _join(self, loop, plan: QueryPlan) -> "asyncio.Future":
        """Add ``plan`` to the open group — opening one, and scheduling
        its run for the next loop iteration, if none is open — and
        return the future its outcome is delivered on.  Awaiting that
        future directly is what makes a cancel local: the submitter's
        cancel cancels the future, and the run skips it."""
        if self._group is None:
            self._group = []
            loop.call_soon(self._run_group, self._group)
        outcome = loop.create_future()
        self._group.append((plan, outcome))
        return outcome

    def _run_group(self, group: _Group) -> None:
        """Run every live member's core (:meth:`_execute`) in
        submission order and deliver each outcome.  A member's failure
        is its own outcome (the same exception its window-0 core
        raises, with nothing accrued) and never stops its siblings; a
        group whose service closed before it ran fails every member."""
        if self._group is group:
            self._group = None
        if self._closed:
            for _, outcome in group:
                if not outcome.done():
                    outcome.set_exception(QueryError("QueryService is closed"))
            return
        batched = 0
        for plan, outcome in group:
            if outcome.done():  # cancelled before the group ran
                continue
            try:
                result = self._execute(plan)
            except BaseException as exc:
                outcome.set_exception(exc)
                continue
            outcome.set_result(result)
            batched += len(plan.units)
        self._stats.batch_groups_run += 1
        self._stats.probe_units_batched += batched

    async def run(self, requests: Sequence[QueryRequest]) -> List[QueryResult]:
        """Submit ``requests`` concurrently; results in request order.

        The sugar most callers want: every request is submitted in
        sequence (so, with a window, the whole batch is one group).
        Every request is awaited to completion before anything is
        raised — a failed sibling must not abandon the others' work —
        then the first failure (submission order) propagates.  Callers
        that want the per-request outcomes instead should gather
        :meth:`submit` calls themselves with ``return_exceptions``.
        """
        outcomes = await asyncio.gather(
            *(self.submit(r) for r in requests), return_exceptions=True
        )
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        return list(outcomes)

    # ------------------------------------------------------------------
    @property
    def stats(self) -> ServiceStats:
        """A copy of the serving-layer counters.  The outcome-sum
        invariant holds in any copy taken after the workload drains;
        mutating it never perturbs the service's accounting.
        """
        return dataclasses.replace(self._stats)

    @property
    def in_flight(self) -> int:
        """Requests currently submitted and not yet settled."""
        return self._pending
