"""Ready-queue scheduling: match allocated tasks to workers.

The scheduler owns the queue of ready tasks and the dispatch scan.  It
deliberately knows nothing about allocation policy or attempt outcomes:
the manager hands it an ``allocation_of`` callback (ask the allocator at
dispatch time, Figure 3a arrows 1-4), an ``allocation_version``
callback (has the allocator learned anything since this prediction was
made?), and a ``start_attempt`` callback (place the task and schedule
its fate).

Two properties matter for fidelity and speed:

* **Allocation at dispatch time.**  A queued task's predicted
  allocation is refreshed whenever its category's allocator state has
  changed since the prediction was cached, so a task that waited
  through the end of the exploratory phase is dispatched with a current
  prediction, not a stale bootstrap one.  Retry allocations (set
  explicitly by the manager after an exhaustion) are sticky: the
  escalation ladder must not be re-rolled, or progress is lost.
* **Scan cost.**  Dispatch is FIFO with backfilling — the scan walks
  the whole queue so small tasks behind a large head are not starved —
  and it is one pass per :meth:`Scheduler.try_dispatch`.  Within a
  scan, capacity only shrinks (placements reserve, nothing releases),
  the memo of allocations that failed to fit only grows, and a policy
  gate that closed a category stays closed, so a second walk over the
  tasks this one left behind could not place any of them.  Allocations
  that failed to fit are memoized, so queues full of identically
  allocated tasks (the common case) cost one placement probe instead of
  one per task, and a closed category's gate is asked once per scan,
  not once per queued task.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Hashable, Optional, Set

from repro.core.resources import ResourceVector
from repro.sim.pool import WorkerPool
from repro.sim.task import SimTask, TaskState
from repro.sim.worker import Worker

__all__ = ["Scheduler"]


class Scheduler:
    """FIFO-with-backfill dispatcher over a worker pool."""

    def __init__(
        self,
        pool: WorkerPool,
        allocation_of: Callable[[SimTask], ResourceVector],
        allocation_version: Callable[[SimTask], Hashable],
        start_attempt: Callable[[SimTask, Worker], None],
        may_dispatch: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self._pool = pool
        self._allocation_of = allocation_of
        self._allocation_version = allocation_version
        self._start_attempt = start_attempt
        #: Per-category policy gate evaluated before placement (e.g. the
        #: exploratory concurrency bound); gated tasks stay queued.  Within
        #: one scan a gate that returned False must keep returning False
        #: (placements can only close it), so it is asked once per closed
        #: category per scan.
        self._may_dispatch = may_dispatch
        self._ready: Deque[SimTask] = deque()
        #: task_id -> version of the allocator state the cached first-
        #: attempt prediction was computed against.
        self._cached_version: dict = {}
        #: tasks whose current_allocation was set by a retry escalation
        #: (or survives an eviction) and must not be re-predicted.
        self._sticky: Set[int] = set()
        self._dispatching = False
        self._total_dispatches = 0

    # -- queue management -----------------------------------------------------------

    def enqueue(self, task: SimTask) -> None:
        """Add a freshly ready task at the back of the queue."""
        if task.state is not TaskState.READY:
            raise ValueError(f"cannot enqueue task {task.task_id} in state {task.state}")
        self._ready.append(task)

    def enqueue_retry(self, task: SimTask) -> None:
        """Re-admit a killed/evicted task at the front of the queue.

        Its ``current_allocation`` (the escalated retry allocation, or
        the unchanged one after an eviction) is pinned.
        """
        if task.state is not TaskState.READY:
            raise ValueError(f"cannot requeue task {task.task_id} in state {task.state}")
        if task.current_allocation is None:
            raise ValueError(f"retry of task {task.task_id} has no allocation")
        self._sticky.add(task.task_id)
        self._ready.appendleft(task)

    @property
    def n_ready(self) -> int:
        return len(self._ready)

    @property
    def total_dispatches(self) -> int:
        return self._total_dispatches

    # -- dispatch -----------------------------------------------------------------------

    def _probe_allocation(self, task: SimTask) -> ResourceVector:
        """The allocation used to *probe* worker fit — possibly stale.

        Queued tasks keep their last prediction while waiting; computing
        a fresh draw for every queued task on every allocator update
        would dominate the run without changing what gets dispatched.
        The prediction is re-validated at placement time instead
        (:meth:`_fresh_allocation`).
        """
        if task.current_allocation is None:
            task.current_allocation = self._allocation_of(task)
            self._cached_version[task.task_id] = self._allocation_version(task)
        return task.current_allocation

    def _fresh_allocation(self, task: SimTask) -> ResourceVector:
        """Dispatch-time allocation: re-predicted if the state moved."""
        if task.task_id in self._sticky:
            assert task.current_allocation is not None
            return task.current_allocation
        version = self._allocation_version(task)
        if (
            task.current_allocation is None
            or self._cached_version.get(task.task_id) != version
        ):
            task.current_allocation = self._allocation_of(task)
            self._cached_version[task.task_id] = version
        return task.current_allocation

    def try_dispatch(self) -> int:
        """Place every queued task that fits a worker; returns the count."""
        if self._dispatching or not self._ready or not self._pool.has_headroom():
            # Re-entrant call, empty queue or saturated pool: nothing to do.
            return 0
        self._dispatching = True
        dispatched = 0
        may_dispatch = self._may_dispatch
        # Allocations that failed to fit anywhere in this scan: identical
        # requests behind them cannot fit either.
        unfit: Set[ResourceVector] = set()
        # Categories whose gate said no; it cannot reopen within a scan.
        closed: Set[str] = set()
        still_waiting: Deque[SimTask] = deque()
        try:
            while self._ready:
                task = self._ready.popleft()
                if may_dispatch is not None:
                    category = task.category
                    if category in closed:
                        still_waiting.append(task)
                        continue
                    if not may_dispatch(category):
                        closed.add(category)
                        still_waiting.append(task)
                        continue
                allocation = self._probe_allocation(task)
                if allocation in unfit:
                    still_waiting.append(task)
                    continue
                worker = self._pool.find_fit(allocation)
                if worker is None:
                    unfit.add(allocation)
                    still_waiting.append(task)
                    continue
                # A worker can host the (possibly stale) probe: now take
                # the dispatch-time prediction and re-validate.
                fresh = self._fresh_allocation(task)
                if fresh is not allocation:
                    worker = self._pool.find_fit(fresh)
                    if worker is None:
                        unfit.add(fresh)
                        still_waiting.append(task)
                        continue
                task.state = TaskState.RUNNING
                self._sticky.discard(task.task_id)
                self._cached_version.pop(task.task_id, None)
                self._total_dispatches += 1
                dispatched += 1
                self._start_attempt(task, worker)
                if not self._pool.has_headroom():
                    # The placement saturated the pool; the rest of the
                    # queue cannot possibly be placed this scan.
                    break
        finally:
            still_waiting.extend(self._ready)
            self._ready = still_waiting
            self._dispatching = False
        return dispatched

    def __repr__(self) -> str:
        return f"Scheduler(ready={len(self._ready)}, dispatched={self._total_dispatches})"
