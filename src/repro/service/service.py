"""The asyncio query service: concurrent requests over one runtime.

:class:`QueryService` is the serving layer the ROADMAP's heavy-traffic
north star calls for: an asyncio front that accepts concurrent
:class:`~repro.service.requests.QueryRequest` submissions, runs their
query cores on a bridge thread pool (the event loop never executes a
probe kernel), and coalesces probe work across in-flight requests
through the shared :class:`~repro.runtime.QueryRuntime`.

**Coalescing.**  At submission the request is lowered by the
:class:`~repro.service.planner.QueryPlanner` into probe units — the
shareable (facility, psi, mode) work descriptors — and registered
against the service's unit table *synchronously*, so every request
submitted in the same event-loop tick sees every other.  A request
whose units are all fresh is scheduled immediately; a request that
shares a unit with an earlier in-flight request waits for that request
to finish and then runs with the earlier request's masks, match sets,
and shard builds already in the runtime's :class:`~repro.engine
.CoverageCache` / :class:`~repro.engine.ShardStore` — its probes are
served from the shared pass instead of recomputed.  Ordering is by
submission, which makes the whole schedule equivalent to *some*
sequential execution of the same requests against the same runtime:
that equivalence is why service results **and per-request stats** are
bit-identical to the synchronous functions (the differential suite in
``tests/test_query_service.py`` holds both to ``==`` on the inline and
the fan-out probe path).

**Admission control.**  ``ServiceConfig.queue_depth`` bounds how many
requests may be admitted at once — a submission past the bound fails
fast with :class:`~repro.core.errors.ServiceOverloaded` instead of
growing an unbounded queue; ``max_in_flight`` bounds how many cores
execute concurrently on the bridge pool.

**Cancellation.**  A caller may cancel an admitted submission (e.g.
:func:`asyncio.wait_for` timing out).  Cancellation is strictly local
to that request: the shared predecessor futures it was waiting on are
shielded, so siblings gathering on the same futures never see the
cancel; its admission slot is released; and its own done-future
resolves only once all of *its* predecessors have resolved, so a
successor sharing a unit still runs strictly after the surviving chain
— submission order on overlap holds even around cancelled requests.
A request cancelled *after* its core started cannot abandon it (a
thread cannot be interrupted): the orphaned core keeps its bridge-pool
slot and its position in the schedule — successors wait for it exactly
as they would for a completing predecessor — and when it finishes, its
stats are accrued into the runtime totals, because its cache work
happened and is visible to successors just like a sequential
predecessor's.  Cancelled requests are counted in
``ServiceStats.requests_cancelled``.

**Batching** (``ServiceConfig.batch_window`` > 0).  Evaluate requests
submitted while a group is open join it.  The hold is work-conserving:
a leader task yields once (every submit already scheduled in this loop
iteration joins), then holds only while a core is running on the
bridge pool, at most ``batch_window`` seconds — an idle bridge fires
the group at once, a busy one when its running cores finish or the
window expires.  The leader then waits for the members' out-of-group
predecessors and runs every live member's core back to back, in
submission order, as *one* bridge-pool task under *one* admission slot
— the same ``plan.execute`` + ``runtime.accrue`` the unbatched path
runs per request, so value, matches and per-request stats are ``==``
whatever the window is, for every request shape.  What a group saves is
scheduling (one hand-off and one slot per wave, not per request), never
geometry.  Group scheduling composes with everything above: each member
is admitted, registered, and counted individually; tail-future chains
are honoured; each member's done-future resolves only after the group's
core settles, so successors still serialize behind it — and count the
member's units as coalesced exactly as they would behind an unbatched
predecessor; and a cancelled member is dropped from the run without
abandoning its siblings.  A delivered member's units are counted in
``ServiceStats.probe_units_batched`` (``batch_groups_run`` counts the
groups that reached the bridge) and never in
``probe_units_coalesced``, so ``dedup_rate`` keeps meaning reuse across
requests that were scheduled apart.  The multi-facility solvers never
join a group: their cores are long, and running them side by side on
the bridge pool is worth more than the hand-off a group would save.

**What the service never does** is change an answer: scheduling,
coalescing, batching, and admission bound *when and where* work runs,
and every answer is bit-identical to the one the request's synchronous
core returns.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.config import ServiceConfig
from ..core.errors import QueryError, ServiceOverloaded
from ..runtime import QueryRuntime
from .planner import ProbeUnit, QueryPlan, QueryPlanner
from .requests import EvaluateRequest, QueryRequest, QueryResult

__all__ = ["QueryService", "ServiceStats"]

class _BatchMember:
    """One admitted request riding a batch group: its plan, the future
    its submitter awaits (``outcome``), the out-of-group futures its
    done-future must still chain behind, and the abandonment flag a
    cancelled submitter sets so delivery skips it without disturbing
    its siblings."""

    __slots__ = ("plan", "outcome", "predecessors", "done", "abandoned")

    def __init__(
        self,
        plan: QueryPlan,
        outcome: "asyncio.Future",
        predecessors: Tuple["asyncio.Future", ...],
        done: "asyncio.Future",
    ) -> None:
        self.plan = plan
        self.outcome = outcome
        self.predecessors = predecessors
        self.done = done
        self.abandoned = False


class _BatchGroup:
    """One batch group: the members collected so far, the barrier
    every member's done-future chains behind, and the submission
    sequence number at which the group opened (the joinability check
    compares predecessor registration against it)."""

    __slots__ = (
        "opened_seq", "barrier", "members", "member_dones", "closed", "task",
    )

    def __init__(self, opened_seq: int, barrier: "asyncio.Future") -> None:
        self.opened_seq = opened_seq
        self.barrier = barrier
        self.members: List[_BatchMember] = []
        self.member_dones: set = set()
        self.closed = False
        self.task: Optional["asyncio.Task"] = None


@dataclass
class ServiceStats:
    """Serving-layer counters (scheduling, not geometry — the geometric
    work counters live on the runtime's :class:`~repro.core.stats
    .QueryStats` totals).

    ``probe_units_coalesced`` counts units a request served from shared
    work instead of recomputing.  It is counted when the request
    reaches execution, not at registration: the unit must have been
    claimed by an earlier in-flight request at submission time *and*
    some earlier member of the unit's dependency chain must have run
    its core to completion — a predecessor cancelled before its core
    ran computed nothing, and one whose core failed computed nothing
    complete, so riding either is (conservatively) not counted as
    sharing.  ``dedup_rate`` is
    the fraction of planned units so served (perfbench reports it as
    ``service.dedup_rate``).

    ``probe_units_batched`` counts units whose core ran inside a batch
    group (delivered outcomes only — an abandoned member's units are
    not counted).  A member's units are never counted as coalesced, so
    ``dedup_rate`` keeps meaning reuse across requests that were
    scheduled apart; a request *outside* the group that shares a unit
    with a delivered member counts it as coalesced like any other.
    ``batch_groups_run`` counts the groups whose bridge task ran, so
    ``probe_units_batched / batch_groups_run`` is the mean group size
    over single-unit evaluates.

    Every admitted request settles into exactly one outcome counter, so
    ``requests_completed + requests_failed + requests_cancelled ==
    requests_submitted`` once the workload drains (rejected submissions
    are counted in ``requests_rejected`` only — they are never
    admitted).  Batched members follow the same discipline — delivery,
    failure, and mid-batch cancellation each land in exactly one
    counter — so the invariant holds under batched waves too.
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
        The execution context every request shares — its cache, shard
        store, and thread pool are what coalescing coalesces
        *into*.  ``None`` creates a private runtime (default config)
        that :meth:`close` also closes; a caller-supplied runtime is
        left open (the caller owns it).
    config:
        Admission and coalescing bounds (:class:`~repro.core.config
        .ServiceConfig` defaults: 8 in flight, no window, depth 64).

    Use as an async context manager::

        async with QueryService(runtime) as service:
            result = await service.submit(EvaluateRequest(tree, f, spec))

    or drive many requests at once with :meth:`run`.  The service is
    bound to whichever event loop first submits through it and may be
    reused across loops (e.g. successive ``asyncio.run`` calls) only
    while idle.
    """

    def __init__(
        self,
        runtime: Optional[QueryRuntime] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self._owns_runtime = runtime is None
        self.runtime = runtime if runtime is not None else QueryRuntime()
        self.config = config if config is not None else ServiceConfig()
        self.planner = QueryPlanner()
        # the live counters stay private: they are mutated from the
        # event loop *and* from bridge-side reapers, so handing the
        # mutable instance to callers would let them read torn counters
        # mid-update — or corrupt the service's accounting by
        # assignment.  The public :attr:`stats` property snapshots
        # under this lock (the same discipline QueryRuntime's stats
        # lock applies one layer down).
        self._stats = ServiceStats()  # guarded-by: _stats_lock
        self._stats_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_in_flight,
            thread_name_prefix="repro-service",
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._sem: Optional[asyncio.Semaphore] = None
        #: unit -> the done-future of the newest admitted request
        #: claiming it (the tail of that unit's dependency chain)
        self._tails: Dict[ProbeUnit, asyncio.Future] = {}
        #: unit -> has any member of its live dependency chain actually
        #: executed?  (decides whether a successor's unit counts as
        #: coalesced; cleaned up with the chain's ``_tails`` entry)
        self._chain_executed: Dict[ProbeUnit, bool] = {}
        #: unit -> the submission sequence number at which the current
        #: ``_tails`` entry was registered; the batch joinability check
        #: uses it to tell pre-window predecessors (safe to wait on)
        #: from requests interleaved after the window opened (waiting
        #: on those from inside the group would deadlock — see
        #: ``_submit_batched``)
        self._tail_seq: Dict[ProbeUnit, int] = {}
        #: monotone submission counter backing ``_tail_seq``
        self._seq = 0
        #: the currently open batch group, if any
        self._group: Optional[_BatchGroup] = None
        self._pending = 0
        #: cores handed to the bridge pool and not yet finished, kept
        #: on a threading lock (not asyncio state) so it stays truthful
        #: even when a cancelled core outlives its event loop
        self._executing = 0  # guarded-by: _core_lock
        self._core_lock = threading.Lock()
        #: the bridge futures of those same cores, as the loop sees
        #: them (loop-confined: added in ``_to_bridge``, discarded by a
        #: done-callback on the loop); a batch group holds while it is
        #: non-empty
        self._on_bridge: set = set()
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the bridge pool down (waiting for running cores) and,
        when the service created its own runtime, close that too.
        Call after outstanding submissions have completed."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        if self._owns_runtime:
            self.runtime.close()

    async def __aenter__(self) -> "QueryService":
        return self

    async def __aexit__(self, *exc) -> None:
        # shutdown(wait=True) can block on running cores; keep the loop
        # responsive by closing from a worker thread
        await asyncio.get_running_loop().run_in_executor(None, self.close)

    # ------------------------------------------------------------------
    # the loop binding (lazy, rebindable while idle)
    # ------------------------------------------------------------------
    def _bind_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            with self._core_lock:
                executing = self._executing
            if self._pending or executing:
                # `executing` catches cores whose callers were cancelled
                # and whose loop may even be gone: rebinding while one
                # runs would let a fresh request race it on shared units
                raise QueryError(
                    "QueryService is in use on another event loop; await "
                    "its outstanding requests (including cores kept "
                    "running by cancelled submissions) before switching "
                    "loops"
                )
            self._loop = loop
            self._sem = asyncio.Semaphore(self.config.max_in_flight)
            self._tails = {}
            self._chain_executed = {}
            self._tail_seq = {}
            self._group = None
            self._on_bridge = set()
        return loop

    def _to_bridge(
        self, loop: asyncio.AbstractEventLoop, body, arg
    ) -> asyncio.Future:
        """Hand ``body(arg)`` — :meth:`_run_core` or
        :meth:`_run_batch_core`, which release ``_executing`` when they
        finish — to the bridge pool, and track its future in
        ``_on_bridge`` until it is done."""
        with self._core_lock:
            self._executing += 1
        try:
            future = loop.run_in_executor(self._executor, body, arg)
        except BaseException:  # pragma: no cover - pool raced us
            with self._core_lock:
                self._executing -= 1
            raise
        self._on_bridge.add(future)
        future.add_done_callback(self._on_bridge.discard)
        return future

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(self, request: QueryRequest) -> QueryResult:
        """Answer one request through the coalescing schedule.

        Everything up to the first ``await`` — planning, admission, and
        probe-unit registration — runs synchronously, so requests
        submitted together coalesce regardless of how their coroutines
        interleave afterwards.  Raises :class:`ServiceOverloaded` when
        the admission queue is full, and re-raises whatever the
        request's query core raises (a failed request never poisons its
        successors: they proceed, exactly as a sequential caller would
        continue after a failed call).  Cancelling the returned
        coroutine releases the request's admission slot and leaves the
        shared schedule intact (see *Cancellation* in the module
        docstring).
        """
        if self._closed:
            raise QueryError("QueryService is closed")
        loop = self._bind_loop()
        plan = self.planner.plan(request)  # validates the request type
        if self._pending >= self.config.queue_depth:
            with self._stats_lock:
                self._stats.requests_rejected += 1
            raise ServiceOverloaded(
                f"admission queue full ({self.config.queue_depth} requests "
                "admitted); retry later or raise ServiceConfig.queue_depth"
            )
        self._pending += 1
        self._seq += 1
        seq = self._seq
        with self._stats_lock:
            self._stats.requests_submitted += 1
            self._stats.probe_units_planned += len(plan.units)
        done: asyncio.Future = loop.create_future()
        predecessors = set()
        coalesced_units: List[ProbeUnit] = []
        pred_seqs: Dict[asyncio.Future, int] = {}
        for unit in plan.units:
            tail = self._tails.get(unit)
            if tail is not None and not tail.done():
                predecessors.add(tail)
                coalesced_units.append(unit)
                pred_seqs[tail] = self._tail_seq.get(unit, 0)
            else:
                # a fresh unit starts a new chain with no executed work
                self._chain_executed[unit] = False
            self._tails[unit] = done
            self._tail_seq[unit] = seq
        if self.config.batch_window > 0.0 and isinstance(request, EvaluateRequest):
            return await self._submit_batched(
                loop, plan, seq, done, predecessors, pred_seqs
            )
        exec_future: Optional[asyncio.Future] = None
        try:
            if predecessors:
                # shield(): the predecessor futures are shared — other
                # requests gather on the very same objects, and their
                # owners resolve them in a finally.  A cancelled waiter
                # (asyncio.wait_for timeout, task.cancel()) must cancel
                # only its own wait, never the futures themselves.
                await asyncio.gather(
                    *(asyncio.shield(p) for p in predecessors)
                )
            await self._sem.acquire()
            try:
                if self._closed:
                    # closed while we waited: fail deliberately instead
                    # of scheduling on the shut-down bridge pool
                    raise QueryError("QueryService is closed")
                # coalescing is decided here, not at registration: the
                # unit was truly served from shared work only if some
                # earlier chain member actually executed (a predecessor
                # cancelled before its core ran computed nothing)
                with self._stats_lock:
                    for unit in coalesced_units:
                        if self._chain_executed.get(unit):
                            self._stats.probe_units_coalesced += 1
                exec_future = self._to_bridge(loop, self._run_core, plan)
            except BaseException:
                self._sem.release()
                raise
            try:
                result = await asyncio.shield(exec_future)
            except BaseException:
                # the caller stops waiting here — usually a cancel while
                # the core still runs on its bridge thread (threads
                # cannot be interrupted).  The bridge slot, exception
                # consumption, and chain-executed marking transfer to
                # the reaper, which runs as soon as the core finishes
                # (or immediately, if the future settled this very
                # tick).
                exec_future.add_done_callback(
                    functools.partial(
                        self._reap_abandoned,
                        self._sem,
                        plan.units,
                        self._chain_executed,
                    )
                )
                raise
            # marked only when the core succeeded: a failed core
            # computed no (complete) reusable work, and successors must
            # not count riding it as sharing
            for unit in plan.units:
                self._chain_executed[unit] = True
            self._sem.release()
        except asyncio.CancelledError:
            # CancelledError is a BaseException: without this branch a
            # cancelled request would count in requests_submitted but in
            # no outcome counter
            with self._stats_lock:
                self._stats.requests_cancelled += 1
            raise
        except BaseException:
            # BaseException, not Exception: a core raising SystemExit/
            # KeyboardInterrupt must still land in an outcome counter or
            # the ServiceStats sum invariant breaks
            with self._stats_lock:
                self._stats.requests_failed += 1
            raise
        finally:
            self._pending -= 1
            self._resolve(done, predecessors, plan.units, exec_future)
        with self._stats_lock:
            self._stats.requests_completed += 1
        return result

    def _run_core(self, plan):
        """The bridge-thread body: run the plan's core and accrue its
        stats into the runtime totals.

        Accrual lives here — not on the event loop after the await —
        because the core's caller may be gone by the time it finishes
        (cancelled mid-execution) and its loop may even be closed;
        bridge-side accrual guarantees the totals reflect every core
        that ran, and the runtime's own stats lock serializes it
        against concurrent accruals and ``reset_stats``.
        ``_executing`` is incremented (:meth:`_to_bridge`) *before* the
        bridge handoff (a queued core someone cancelled is still
        in-flight work) and released only here, so loop rebinding stays
        blocked while any core runs, loop health notwithstanding.
        """
        try:
            return self._execute(plan)
        finally:
            with self._core_lock:
                self._executing -= 1

    def _execute(self, plan: QueryPlan) -> QueryResult:
        """One core plus its accrual — the unit both bridge bodies run."""
        result = plan.execute(self.runtime)
        self.runtime.accrue(result.stats)  # runtime-locked merge
        return result

    # ------------------------------------------------------------------
    # batching (ServiceConfig.batch_window > 0)
    # ------------------------------------------------------------------
    async def _submit_batched(
        self,
        loop: asyncio.AbstractEventLoop,
        plan: QueryPlan,
        seq: int,
        done: asyncio.Future,
        predecessors: set,
        pred_seqs: Dict[asyncio.Future, int],
    ) -> QueryResult:
        """The batched tail of :meth:`submit`: join (or open) the
        group and await delivery from its run.

        Admission, registration, and every counter were already handled
        by :meth:`submit`; this method only replaces *execution*.  The
        member's done-future still resolves after its out-of-group
        predecessors plus the group barrier, so successors chained on
        its units serialize behind the run exactly as they would
        behind a private core.

        **Joinability.**  A member may join the open group only when
        each of its live predecessors is another member of the same
        group (the leader skips those — members run in submission
        order) or was registered before the window opened (such a
        future can only be waiting on futures registered even earlier,
        so it resolves independently of this group's barrier).  A
        predecessor registered *after* the window opened by a foreign
        (unbatchable) request is the deadly case: that request may
        itself be waiting on a member of this group, so the run would
        wait on work that waits on the run.  When it happens the open
        group is closed to new members (its leader still fires on
        schedule) and a fresh window opens with this request as its
        first member — ordering is preserved because the new group's
        run still waits for the foreign predecessor to finish.
        """
        group = self._group
        if group is not None and any(
            p not in group.member_dones
            and pred_seqs.get(p, 0) > group.opened_seq
            for p in predecessors
        ):
            group.closed = True
        if group is None or group.closed:
            group = self._group = _BatchGroup(seq, loop.create_future())
            # reference kept on the group: a bare create_task result
            # may be garbage-collected mid-flight
            group.task = loop.create_task(self._lead_group(loop, group))
        member = _BatchMember(plan, loop.create_future(), tuple(predecessors), done)
        group.members.append(member)
        group.member_dones.add(done)
        try:
            result = await asyncio.shield(member.outcome)
        except asyncio.CancelledError:
            # mid-batch cancellation is strictly local: the member is
            # flagged so the group skips it, and the surviving siblings
            # run exactly as scheduled
            member.abandoned = True
            with self._stats_lock:
                self._stats.requests_cancelled += 1
            raise
        except BaseException:
            with self._stats_lock:
                self._stats.requests_failed += 1
            raise
        finally:
            self._pending -= 1
            self._resolve(done, list(predecessors) + [group.barrier], plan.units)
        with self._stats_lock:
            self._stats.requests_completed += 1
        return result

    async def _lead_group(
        self, loop: asyncio.AbstractEventLoop, group: _BatchGroup
    ) -> None:
        """The group leader: hold the group open (:meth:`_hold`), wait
        the members' out-of-group predecessors, run the members' cores
        on the bridge pool as one task under one admission slot, and
        deliver per-member outcomes.

        The leader task is internal — nothing external cancels it short
        of loop shutdown — so a member cancelling only ever flags
        itself.  On any group-level failure (service closed while
        waiting, bridge pool gone, leader cancelled at shutdown) every
        undelivered member fails with the cause; the exception is not
        re-raised from the task, because the members' submitters are
        its consumers.
        """
        try:
            await self._hold(loop)
            group.closed = True
            if self._group is group:
                self._group = None  # a fired group pins nothing
            preds = set()
            for m in group.members:
                preds.update(m.predecessors)
            preds -= group.member_dones
            remaining = [p for p in preds if not p.done()]
            if remaining:
                # shield for the same reason submit() shields: these
                # futures are shared with sibling waiters
                await asyncio.gather(*(asyncio.shield(p) for p in remaining))
            await self._sem.acquire()
            try:
                if self._closed:
                    raise QueryError("QueryService is closed")
                outcomes = await self._to_bridge(
                    loop, self._run_batch_core, group
                )
            finally:
                self._sem.release()
            batched_units = 0
            for member, outcome in outcomes:
                if not isinstance(outcome, BaseException):
                    # the core succeeded — delivered or not, its cache
                    # work is real, so successors riding it count as
                    # coalesced (what the unbatched path and its reaper
                    # mark for a private core)
                    for unit in member.plan.units:
                        self._chain_executed[unit] = True
                fut = member.outcome
                if member.abandoned or fut.done():
                    continue
                if isinstance(outcome, BaseException):
                    fut.set_exception(outcome)
                    # retrieve defensively: the waiter may be cancelled
                    # between delivery and its next tick, and an
                    # unretrieved exception would warn at GC
                    fut.exception()
                else:
                    fut.set_result(outcome)
                    batched_units += len(member.plan.units)
            with self._stats_lock:
                self._stats.batch_groups_run += 1
                self._stats.probe_units_batched += batched_units
        except BaseException as exc:
            failure: BaseException = exc
            if isinstance(exc, asyncio.CancelledError):
                # loop shutdown cancelled the leader; members must not
                # count as *cancelled* (their submitters were not) —
                # they failed
                failure = QueryError(
                    "batch group abandoned: event loop shut down while "
                    "the group was in flight"
                )
            for member in group.members:
                fut = member.outcome
                if not fut.done():
                    fut.set_exception(failure)
                    fut.exception()
            if isinstance(exc, asyncio.CancelledError):
                raise
        finally:
            group.closed = True
            if not group.barrier.done():
                group.barrier.set_result(None)

    async def _hold(self, loop: asyncio.AbstractEventLoop) -> None:
        """Keep a group open only while waiting is free.

        One bare yield lets every submit already scheduled in this loop
        iteration — a pipelined wave parsed from one read — join.  After
        it the group holds only while some core (batched or not, an
        orphan included) is running on the bridge pool, and never past
        ``batch_window``: what a group saves is a hand-off, so holding
        an idle bridge buys nothing.  Cores that start during the hold
        are picked up by the re-check.
        """
        await asyncio.sleep(0)
        deadline = loop.time() + self.config.batch_window
        while self._on_bridge and (remaining := deadline - loop.time()) > 0.0:
            await asyncio.wait(set(self._on_bridge), timeout=remaining)

    def _run_batch_core(self, group: _BatchGroup):
        """The bridge-thread body of a group: each live member's core
        and accrual (:meth:`_execute`, what :meth:`_run_core` runs for
        one request), in submission order.  Returns ``[(member,
        QueryResult | BaseException), ...]``: a member's failure is its
        own outcome (the same exception its unbatched core raises, with
        nothing accrued) and never stops its siblings.  A member
        cancelled before its turn is skipped, as a request cancelled
        before its core started is on the unbatched path.
        """
        try:
            outcomes: list = []
            for member in group.members:
                if member.abandoned:
                    continue
                try:
                    outcomes.append((member, self._execute(member.plan)))
                except BaseException as exc:
                    outcomes.append((member, exc))
            return outcomes
        finally:
            with self._core_lock:
                self._executing -= 1

    def _resolve(
        self,
        done: asyncio.Future,
        predecessors: Iterable[asyncio.Future],
        units: Sequence[ProbeUnit],
        exec_future: Optional[asyncio.Future] = None,
    ) -> None:
        """Resolve ``done`` once every one of the request's own
        predecessors — and its own core, if one is in flight — has
        resolved.

        On the happy path both conditions already hold and ``done``
        resolves immediately.  The deferral matters when a request dies
        out of order: one cancelled *before* executing must not release
        successors sharing its units while the head of its dependency
        chain is still running (so we chain to the predecessors), and
        one cancelled *while* executing leaves an orphaned core running
        on its bridge thread that successors must still serialize
        behind (so we chain to ``exec_future`` too).  Together these
        keep done-futures resolving in transitive dependency order,
        which is what preserves submission order on overlap — and the
        per-request stats guarantee — around cancellations.  ``_tails``
        entries are cleaned up at the same moment, never earlier: a
        unit must keep pointing at its chain tail while later
        submissions can still chain onto it.
        """
        remaining = [p for p in predecessors if not p.done()]
        if exec_future is not None and not exec_future.done():
            remaining.append(exec_future)
        if not remaining:
            self._settle(done, units)
            return
        pending = len(remaining)

        def _on_predecessor(_: asyncio.Future) -> None:
            nonlocal pending
            pending -= 1
            if pending == 0:
                self._settle(done, units)

        for p in remaining:
            p.add_done_callback(_on_predecessor)

    def _settle(
        self, done: asyncio.Future, units: Sequence[ProbeUnit]
    ) -> None:
        if not done.done():
            done.set_result(None)
        for unit in units:
            if self._tails.get(unit) is done:
                del self._tails[unit]
                self._chain_executed.pop(unit, None)
                self._tail_seq.pop(unit, None)

    def _reap_abandoned(
        self,
        sem: asyncio.Semaphore,
        units: Sequence[ProbeUnit],
        chains: Dict[ProbeUnit, bool],
        fut: asyncio.Future,
    ) -> None:
        """Finish up for a core outcome its caller will not consume:
        return the bridge slot it occupied, mark the chain executed
        when the orphan's core succeeded (its cache work is real, so
        successors riding it count as coalesced — this runs before the
        ``_resolve`` countdown attached later, so the marks land before
        any successor wakes), and retrieve the exception, if any —
        there is no caller left to re-raise to, and retrieving it keeps
        asyncio's never-retrieved warning quiet.  ``sem`` and
        ``chains`` are passed in (not read from ``self``) so a loop
        rebind between abandonment and completion cannot release the
        wrong semaphore or stamp a stale unit into the rebound loop's
        fresh table.  The orphan's stats need no attention here:
        `_run_core` accrued them on the bridge thread the moment the
        core finished.
        """
        sem.release()
        if fut.cancelled():
            return
        if fut.exception() is None and chains is self._chain_executed:
            for unit in units:
                # only while the unit's chain is still live: an entry
                # exists exactly as long as its _tails chain does, and
                # re-inserting one _settle already popped would leak it
                if unit in chains:
                    chains[unit] = True

    async def run(self, requests: Sequence[QueryRequest]) -> List[QueryResult]:
        """Submit ``requests`` concurrently; results in request order.

        The sugar most callers want: every request is registered in
        sequence (so the whole batch coalesces) and executed under the
        service's bounds.  Every admitted request is awaited to
        completion before anything is raised — a rejected or failed
        sibling must not abandon in-flight work — then the first
        failure (submission order) propagates.  Callers that want the
        per-request outcomes instead should gather
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
        """A consistent snapshot of the serving-layer counters.

        The live instance is private and mutated concurrently (event
        loop plus bridge-side reapers); the snapshot is taken under the
        service's stats lock so its counters are mutually consistent —
        in particular the outcome-sum invariant (``completed + failed +
        cancelled == submitted``) holds in any snapshot taken after the
        workload drains.  Mutating the returned object never perturbs
        the service's own accounting.
        """
        with self._stats_lock:
            return dataclasses.replace(self._stats)

    @property
    def in_flight(self) -> int:
        """Requests currently admitted (queued or executing).  A core
        kept running by a cancelled submission is no longer a request
        and is not counted here, but it still blocks loop rebinding
        and holds its bridge slot until it finishes."""
        return self._pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snapshot = self.stats
        return (
            f"QueryService(pending={self._pending}, "
            f"completed={snapshot.requests_completed}, "
            f"dedup_rate={snapshot.dedup_rate:.2f})"
        )
