"""The workflow manager: glue between workflow, allocator and simulator.

:class:`WorkflowManager` drives one workflow run end to end, mirroring
Figure 1/3a:

1. submit every task (dependency-free tasks are ready immediately;
   others wait for their parents);
2. at dispatch time, ask the :class:`TaskOrientedAllocator` for the
   task's allocation — first attempt through :meth:`allocate`, retries
   through :meth:`allocate_retry`;
3. decide each attempt's fate up front with the consumption profile
   (the simulator knows the hidden truth; the allocator never sees it)
   and schedule the completion or kill event;
4. on success, feed the resource record back to the allocator and the
   ledger; on exhaustion, grow the allocation and requeue; on eviction,
   requeue with the same allocation.

``run()`` returns a :class:`SimulationResult` bundling the ledger and
run-level statistics — the unit every experiment module consumes.
"""

from __future__ import annotations

import dataclasses
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.allocator import AllocatorConfig, TaskOrientedAllocator
from repro.core.resources import TIME, Resource, ResourceVector
from repro.sim.accounting import Ledger, WasteBreakdown
from repro.sim.engine import SimulationEngine
from repro.sim.faults import FaultConfig, FaultInjector, FaultStats
from repro.sim.invariants import InvariantChecker
from repro.sim.pool import PoolConfig, WorkerPool
from repro.sim.profiles import ConsumptionProfile, LinearRampProfile
from repro.sim.resilience import (
    DeadLetterEntry,
    ResilienceConfig,
    ResilienceEngine,
    ResilienceStats,
)
from repro.sim.scheduler import Scheduler
from repro.sim.task import Attempt, AttemptOutcome, SimTask, TaskState
from repro.sim.trace import SimEvent
from repro.sim.worker import Worker
from repro.workflows.spec import WorkflowSpec

__all__ = ["SimulationConfig", "SimulationResult", "WorkflowManager"]


@dataclass(frozen=True)
class SimulationConfig:
    """Everything configurable about one simulated run."""

    allocator: AllocatorConfig = field(default_factory=AllocatorConfig)
    pool: PoolConfig = field(default_factory=PoolConfig)
    profile: ConsumptionProfile = field(default_factory=LinearRampProfile)
    #: Maximum tasks revealed to the scheduler but not yet completed.
    #: Dynamic applications (Colmena's batched molecule campaigns,
    #: Coffea's chunked submission) keep a bounded number of tasks in
    #: flight rather than dumping the whole run at t=0; ``None`` models
    #: the dump-everything extreme.
    max_outstanding: Optional[int] = None
    #: Allocate every task exactly its true peak consumption (and true
    #: duration, when TIME is managed).  The oracle of Section II-C:
    #: zero waste, AWE = 1 by construction.  Not realizable online — it
    #: exists as the reference ceiling for experiments and tests.
    oracle: bool = False
    #: Hard bound on processed events; a livelocked run raises instead of
    #: spinning (attempts per task are bounded by doubling, so legitimate
    #: runs stay far below ~20 events/task).
    max_events: Optional[int] = None
    #: Fault-injection schedule (see :mod:`repro.sim.faults`); ``None``
    #: runs fault-free.  Faults are seeded independently of the pool's
    #: churn and the allocator, so the same ``faults.seed`` replays the
    #: same adversity bit for bit.
    faults: Optional[FaultConfig] = None
    #: Continuous invariant auditing (see :mod:`repro.sim.invariants`).
    #: On by default — the conservation laws are cheap relative to the
    #: dispatch scan; very large perf sweeps may opt out.
    check_invariants: bool = True
    #: Task-level resilience policy (retry budgets, deadlines, backoff,
    #: quarantine, circuit breaker, watchdog; see
    #: :mod:`repro.sim.resilience`).  ``None`` — and a default-valued
    #: config — reproduce the paper's unbounded retry behaviour exactly.
    resilience: Optional[ResilienceConfig] = None

    def __post_init__(self) -> None:
        if self.max_outstanding is not None and self.max_outstanding < 1:
            raise ValueError(
                f"max_outstanding must be >= 1, got {self.max_outstanding}"
            )

    def effective_max_events(self, n_tasks: int) -> int:
        if self.max_events is not None:
            return self.max_events
        return max(10_000, 200 * n_tasks)


@dataclass
class SimulationResult:
    """Outcome of one (workflow, algorithm) simulated run."""

    workflow_name: str
    algorithm: str
    ledger: Ledger
    makespan: float
    n_tasks: int
    n_attempts: int
    n_failed_attempts: int
    n_evicted_attempts: int
    workers_joined: int
    workers_left: int
    wall_clock_seconds: float
    #: Injected-fault tallies; all zero on a fault-free run.
    fault_stats: FaultStats = field(default_factory=FaultStats)
    #: Tasks moved to the dead-letter ledger instead of completing.
    n_quarantined: int = 0
    #: The dead-letter entries themselves, in quarantine order.
    dead_letters: Tuple[DeadLetterEntry, ...] = ()
    #: Resilience-layer tallies; ``None`` when no policy was configured.
    resilience_stats: Optional[ResilienceStats] = None

    def awe(self, resource: Resource) -> float:
        return self.ledger.awe(resource)

    def waste(self, resource: Resource) -> WasteBreakdown:
        return self.ledger.waste(resource)

    def summary(self) -> Dict[str, object]:
        """Flat dict for tabular reporting."""
        row: Dict[str, object] = {
            "workflow": self.workflow_name,
            "algorithm": self.algorithm,
            "tasks": self.n_tasks,
            "attempts": self.n_attempts,
            "failed_attempts": self.n_failed_attempts,
            "evicted_attempts": self.n_evicted_attempts,
            "quarantined": self.n_quarantined,
            "makespan_s": round(self.makespan, 3),
        }
        for res in self.ledger.resources:
            row[f"awe_{res.key}"] = round(self.ledger.awe(res), 4)
        return row

    # -- checkpointing ----------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe snapshot (exact floats) for the grid-result journal.

        ``wall_clock_seconds`` rides along for reporting but is the one
        field that is *not* reproducible across runs; bit-identity
        comparisons must exclude it.
        """
        return {
            "workflow_name": self.workflow_name,
            "algorithm": self.algorithm,
            "ledger": self.ledger.state_dict(),
            "makespan": self.makespan,
            "n_tasks": self.n_tasks,
            "n_attempts": self.n_attempts,
            "n_failed_attempts": self.n_failed_attempts,
            "n_evicted_attempts": self.n_evicted_attempts,
            "workers_joined": self.workers_joined,
            "workers_left": self.workers_left,
            "wall_clock_seconds": self.wall_clock_seconds,
            "fault_stats": dataclasses.asdict(self.fault_stats),
            "n_quarantined": self.n_quarantined,
            "dead_letters": [entry.state_dict() for entry in self.dead_letters],
            "resilience_stats": (
                dataclasses.asdict(self.resilience_stats)
                if self.resilience_stats is not None
                else None
            ),
        }

    @classmethod
    def from_state(cls, state: dict) -> "SimulationResult":
        """Rebuild a result journaled by :meth:`state_dict`.

        The resilience keys are read with defaults so journals written
        before the resilience layer existed still load.
        """
        stats_doc = state.get("resilience_stats")
        return cls(
            workflow_name=state["workflow_name"],
            algorithm=state["algorithm"],
            ledger=Ledger.from_state(state["ledger"]),
            makespan=float(state["makespan"]),
            n_tasks=int(state["n_tasks"]),
            n_attempts=int(state["n_attempts"]),
            n_failed_attempts=int(state["n_failed_attempts"]),
            n_evicted_attempts=int(state["n_evicted_attempts"]),
            workers_joined=int(state["workers_joined"]),
            workers_left=int(state["workers_left"]),
            wall_clock_seconds=float(state["wall_clock_seconds"]),
            fault_stats=FaultStats(**state["fault_stats"]),
            n_quarantined=int(state.get("n_quarantined", 0)),
            dead_letters=tuple(
                DeadLetterEntry.from_state(doc)
                for doc in state.get("dead_letters", ())
            ),
            resilience_stats=(
                ResilienceStats(**stats_doc) if stats_doc is not None else None
            ),
        )


class WorkflowManager:
    """Run one workflow against one allocator configuration."""

    def __init__(self, workflow: WorkflowSpec, config: Optional[SimulationConfig] = None) -> None:
        self._workflow = workflow
        self._config = config if config is not None else SimulationConfig()
        resilience_config = self._config.resilience
        self._resilience: Optional[ResilienceEngine] = (
            ResilienceEngine(resilience_config)
            if resilience_config is not None and resilience_config.enabled
            else None
        )
        if self._resilience is None or not resilience_config.quarantine_enabled:
            # With quarantine off an oversized (poison) task would retry
            # forever, so it is rejected up front; with a budget or
            # deadline configured it is admitted and dead-lettered.
            workflow.validate_fits(self._config.pool.capacity)

        self._engine = SimulationEngine()
        self._pool = WorkerPool(self._engine, self._config.pool)
        # The allocator's notion of "a whole machine" must be the pool's
        # actual worker shape — Whole Machine allocations, the
        # whole-machine exploratory policy and the capacity clamp all
        # depend on it.
        allocator_config = self._config.allocator
        if allocator_config.machine_capacity != self._config.pool.capacity:
            allocator_config = dataclasses.replace(
                allocator_config, machine_capacity=self._config.pool.capacity
            )
        self._allocator = TaskOrientedAllocator(allocator_config)
        if self._resilience is not None:
            # Satellite of the retry policy: retry doublings are clamped
            # to the largest *alive* worker, so a degraded pool never
            # receives an unsatisfiable escalation.
            self._allocator.set_capacity_provider(self._pool.largest_alive_capacity)
        self._ledger = Ledger(self._config.allocator.resources)
        self._manage_time = TIME in self._config.allocator.resources

        self._tasks: Dict[int, SimTask] = {
            spec.task_id: SimTask(spec) for spec in workflow
        }
        #: task_id -> position in the workflow's submission order; used
        #: to tell whether a cascade-quarantined task was ever revealed.
        self._spec_index: Dict[int, int] = {
            spec.task_id: i for i, spec in enumerate(workflow.tasks)
        }
        # Reverse dependency index: parent -> children waiting on it.
        self._children: Dict[int, List[int]] = {}
        for spec in workflow:
            for dep in spec.dependencies:
                self._children.setdefault(dep, []).append(spec.task_id)

        self._scheduler = Scheduler(
            self._pool,
            allocation_of=self._allocation_of,
            allocation_version=self._allocation_version,
            start_attempt=self._start_attempt,
            may_dispatch=self._may_dispatch,
        )
        self._running_per_category: Dict[str, int] = {}
        self._explore_concurrency = (
            self._config.allocator.exploratory.effective_explore_concurrency
        )
        self._pool.on_worker_joined = self._on_worker_joined
        self._pool.on_worker_leaving = self._on_worker_leaving
        self._pool.on_worker_degraded = self._on_worker_degraded

        #: Subscribers to the manager's event stream (trace recorders).
        self._event_listeners: List[Callable[[SimEvent], None]] = []
        self._invariants: Optional[InvariantChecker] = (
            InvariantChecker(self) if self._config.check_invariants else None
        )
        self._faults: Optional[FaultInjector] = None
        if self._config.faults is not None and self._config.faults.enabled:
            self._faults = FaultInjector(
                self._engine,
                self._pool,
                self._config.faults,
                running_tasks=lambda: tuple(self._attempt_worker),
                kill_task=self._fault_kill,
            )

        #: attempt validity tokens: an eviction invalidates the pending
        #: end-of-attempt event of the evicted task.
        self._attempt_token: Dict[int, int] = {t: 0 for t in self._tasks}
        self._attempt_start: Dict[int, float] = {}
        self._attempt_worker: Dict[int, int] = {}
        self._completed = 0
        self._quarantined = 0
        #: Cascade-quarantined tasks the submission window has not yet
        #: revealed; needed to state the conservation law exactly.
        self._quarantined_unrevealed = 0
        self._next_to_submit = 0
        self._outstanding = 0
        self._ran = False
        self._started_wall = 0.0
        if self._resilience is not None and self._resilience.watchdog is not None:
            self._engine.add_listener(self._watchdog_check)

    # -- public API --------------------------------------------------------------

    @property
    def workflow(self) -> WorkflowSpec:
        return self._workflow

    @property
    def allocator(self) -> TaskOrientedAllocator:
        return self._allocator

    @property
    def engine(self) -> SimulationEngine:
        return self._engine

    @property
    def pool(self) -> WorkerPool:
        return self._pool

    @property
    def ledger(self) -> Ledger:
        return self._ledger

    @property
    def invariants(self) -> Optional[InvariantChecker]:
        return self._invariants

    @property
    def faults(self) -> Optional[FaultInjector]:
        return self._faults

    def tasks(self) -> Tuple[SimTask, ...]:
        return tuple(self._tasks.values())

    def add_event_listener(self, listener: Callable[[SimEvent], None]) -> None:
        """Subscribe to the manager's event stream (trace recording)."""
        self._event_listeners.append(listener)

    def _emit(self, kind: str, **fields) -> None:
        if self._event_listeners:
            event = SimEvent(time=self._engine.now, kind=kind, fields=fields)
            for listener in self._event_listeners:
                listener(event)

    @property
    def algorithm_label(self) -> str:
        """The algorithm name reported in results ("oracle" in oracle mode)."""
        return "oracle" if self._config.oracle else self._config.allocator.algorithm

    @property
    def completed_tasks(self) -> int:
        return self._completed

    @property
    def resilience(self) -> Optional[ResilienceEngine]:
        return self._resilience

    @property
    def quarantined_tasks(self) -> int:
        """Tasks moved to the dead-letter ledger (0 without a policy)."""
        return self._quarantined

    @property
    def quarantined_unrevealed(self) -> int:
        """Quarantined tasks the submission window never revealed."""
        return self._quarantined_unrevealed

    @property
    def submitted_tasks(self) -> int:
        """Tasks revealed to the scheduler so far."""
        return self._next_to_submit

    @property
    def outstanding_tasks(self) -> int:
        """Revealed tasks that are neither completed nor quarantined."""
        return self._outstanding

    @property
    def terminal_tasks(self) -> int:
        """Tasks that reached a final state (completed or quarantined)."""
        return self._completed + self._quarantined

    def run(self) -> SimulationResult:
        """Execute the workflow to completion and return the result."""
        self.begin()
        self.advance()
        return self.finish()

    def begin(self) -> None:
        """Arm the simulation: submit the first tasks, schedule dispatch.

        ``run()`` is ``begin(); advance(); finish()`` — the split exists
        for the checkpoint/resume machinery, which needs to pause after a
        bounded number of events (:meth:`advance` with
        ``stop_after_events``) and to attach listeners before the first
        event fires.
        """
        if self._ran:
            raise RuntimeError("a WorkflowManager instance runs exactly once")
        self._ran = True
        # reprolint: disable=R1,F3  # feeds reporting-only wall_clock_seconds, never the sim
        self._started_wall = _time.perf_counter()
        self._submit_more()
        self._engine.schedule(0.0, self._dispatch)

    def advance(self, stop_after_events: Optional[int] = None) -> bool:
        """Process events; returns True once the workflow has completed.

        ``stop_after_events`` pauses the engine cleanly once its lifetime
        event count reaches that value (checkpoint replay); ``None``
        drains the queue.
        """
        if not self._ran:
            raise RuntimeError("call begin() before advance()")
        self._engine.run(
            max_events=self._config.effective_max_events(len(self._workflow)),
            stop_after_total=stop_after_events,
        )
        return self.terminal_tasks == len(self._workflow)

    def finish(self) -> SimulationResult:
        """Validate the completed run and bundle the result."""
        if self.terminal_tasks != len(self._workflow):
            raise RuntimeError(
                f"simulation drained with {self._completed}/{len(self._workflow)} "
                f"tasks completed and {self._quarantined} quarantined — the pool "
                "can no longer host the remaining tasks"
            )
        if self._invariants is not None:
            self._invariants.check_complete()
        assert self._ledger.identity_holds(), "accounting identity violated"

        terminal_times = [
            t.completion_time
            for t in self._tasks.values()
            if t.completion_time is not None
        ]
        dead_letters: Tuple[DeadLetterEntry, ...] = ()
        resilience_stats: Optional[ResilienceStats] = None
        if self._resilience is not None:
            dead_letters = self._resilience.dead_letters.entries()
            terminal_times.extend(entry.time for entry in dead_letters)
            resilience_stats = self._resilience.stats(
                capacity_clamps=self._allocator.capacity_clamps_total
            )
        makespan = max(terminal_times, default=0.0)
        self._emit("complete", tasks=self._completed, attempts=self._ledger.n_attempts)
        return SimulationResult(
            workflow_name=self._workflow.name,
            algorithm=self.algorithm_label,
            ledger=self._ledger,
            makespan=makespan,
            n_tasks=len(self._workflow),
            n_attempts=self._ledger.n_attempts,
            n_failed_attempts=self._ledger.n_failed_attempts,
            n_evicted_attempts=self._ledger.n_evicted_attempts,
            workers_joined=self._pool.total_joined,
            workers_left=self._pool.total_left,
            # reprolint: disable=R1,F3  # reporting-only diagnostic, excluded from digests
            wall_clock_seconds=_time.perf_counter() - self._started_wall,
            fault_stats=self._faults.stats if self._faults is not None else FaultStats(),
            n_quarantined=self._quarantined,
            dead_letters=dead_letters,
            resilience_stats=resilience_stats,
        )

    # -- allocation hooks ---------------------------------------------------------------

    def _allocation_of(self, task: SimTask) -> ResourceVector:
        if self._config.oracle:
            values = {
                res: task.spec.consumption[res]
                for res in self._config.allocator.resources
                if res is not TIME
            }
            if self._manage_time:
                values[TIME] = task.spec.duration
            return ResourceVector(values)
        if self._resilience is not None and self._resilience.conservative_mode(
            self._engine.now
        ):
            # Breaker open (degraded mode): bypass the algorithm and
            # allocate a whole machine — fragmentation over livelock.
            return self._allocator.conservative_allocation()
        return self._allocator.allocate(task.category, task.task_id)

    def _allocation_version(self, task: SimTask):
        if self._resilience is not None:
            # Mix in the breaker epoch so every queued prediction goes
            # stale the moment the degraded-mode state flips.
            return (
                self._allocator.version(task.category),
                self._resilience.allocation_epoch(self._engine.now),
            )
        return self._allocator.version(task.category)

    def _may_dispatch(self, category: str) -> bool:
        """Exploratory concurrency gate (see ExploratoryConfig).

        While a category is still collecting its bootstrap records, only
        a bounded number of its tasks may run at once; the rest wait in
        the queue so their dispatch-time predictions can use the records
        the explorers produce.  Within one dispatch scan a closed gate
        stays closed: placements only raise the running count, and
        records (which end exploration) arrive only between scans.
        """
        if not self._allocator.in_exploration(category):
            return True
        running = self._running_per_category.get(category, 0)
        return running < self._explore_concurrency

    # -- submission pacing -----------------------------------------------------------------

    def _submit_more(self) -> None:
        """Reveal tasks to the scheduler up to the outstanding window."""
        limit = self._config.max_outstanding
        specs = self._workflow.tasks
        while self._next_to_submit < len(specs) and (
            limit is None or self._outstanding < limit
        ):
            task = self._tasks[specs[self._next_to_submit].task_id]
            self._next_to_submit += 1
            if task.state is TaskState.QUARANTINED:
                # Already dead-lettered through a quarantined parent
                # before the window reached it; it is now revealed.
                self._quarantined_unrevealed -= 1
                continue
            self._outstanding += 1
            if task.state is TaskState.READY:
                self._enqueue_new(task)
            # PENDING tasks are submitted but wait for their parents; the
            # dependency-completion hook enqueues them.

    def _enqueue_new(self, task: SimTask) -> None:
        """First enqueue of a task (starts its deadline clock)."""
        if self._resilience is not None:
            self._resilience.note_enqueued(task.task_id, self._engine.now)
        self._scheduler.enqueue(task)

    # -- attempt lifecycle ----------------------------------------------------------------

    def _start_attempt(self, task: SimTask, worker: Worker) -> None:
        allocation = task.current_allocation
        assert allocation is not None
        if self._faults is not None:
            retry_in = self._faults.dispatch_fault_delay(task.task_id)
            if retry_in is not None:
                # Transient dispatch failure: the placement never
                # happened (no attempt record, no capacity held); the
                # task re-queues after exponential backoff with its
                # allocation pinned — a lost submission says nothing
                # about the allocation's adequacy.
                task.state = TaskState.READY
                self._emit(
                    "dispatch_fault",
                    task=task.task_id,
                    worker=worker.worker_id,
                    retry_in=retry_in,
                )
                if self._resilience is not None and self._resilience.deadline_exceeded(
                    task.task_id, self._engine.now
                ):
                    # Past its wall-clock deadline: stop burning
                    # dispatch retries on it and dead-letter it now.
                    self._quarantine_task(task, "deadline_exceeded")
                    return
                self._engine.schedule(retry_in, lambda: self._redispatch(task))
                return
        worker.place(task.task_id, allocation)
        self._emit(
            "dispatch", task=task.task_id, worker=worker.worker_id, alloc=allocation
        )
        now = self._engine.now
        self._attempt_start[task.task_id] = now
        self._attempt_worker[task.task_id] = worker.worker_id
        self._running_per_category[task.category] = (
            self._running_per_category.get(task.category, 0) + 1
        )

        time_limit = allocation[TIME] if self._manage_time else None
        verdict = self._config.profile.check(
            allocation, task.spec.consumption, task.spec.duration, time_limit
        )
        runtime = task.spec.duration * verdict.fraction
        token = self._attempt_token[task.task_id]
        self._engine.schedule(
            runtime,
            lambda: self._end_attempt(task, worker, verdict, runtime, token),
        )

    def _redispatch(self, task: SimTask) -> None:
        """Re-queue a task whose dispatch failed transiently."""
        if task.state is not TaskState.READY:  # pragma: no cover - defensive
            return
        self._scheduler.enqueue_retry(task)
        self._dispatch()

    def _record_attempt(self, task: SimTask, attempt: Attempt) -> None:
        """Single chokepoint for attempt history: record, then audit."""
        task.record_attempt(attempt)
        if self._invariants is not None:
            self._invariants.check_attempt(task, attempt)

    def _end_attempt(self, task, worker, verdict, runtime: float, token: int) -> None:
        if self._attempt_token[task.task_id] != token:
            return  # the attempt was evicted; this event is stale
        self._attempt_token[task.task_id] += 1
        worker.release(task.task_id, held_for=runtime)
        start = self._attempt_start.pop(task.task_id)
        self._attempt_worker.pop(task.task_id, None)
        self._running_per_category[task.category] -= 1

        allocation = task.current_allocation
        assert allocation is not None
        if verdict.success:
            attempt = Attempt(
                index=task.n_attempts,
                worker_id=worker.worker_id,
                allocation=allocation,
                start_time=start,
                runtime=task.spec.duration,
                outcome=AttemptOutcome.SUCCESS,
                observed=task.spec.consumption,
            )
            self._record_attempt(task, attempt)
            self._emit("success", task=task.task_id, worker=worker.worker_id)
            task.state = TaskState.COMPLETED
            task.completion_time = self._engine.now
            self._completed += 1
            peaks = task.spec.consumption
            if self._manage_time:
                # The TIME record is the task's true duration — the peak
                # "consumption" of wall time.
                peaks = peaks.replace(TIME, task.spec.duration)
            self._allocator.observe(task.category, peaks, task_id=task.task_id)
            self._ledger.record_task(task)
            self._outstanding -= 1
            self._note_outcome(success=True)
            self._submit_more()
            self._notify_children(task)
            if self.terminal_tasks == len(self._workflow):
                self._stop_generators()
                return
        else:
            attempt = Attempt(
                index=task.n_attempts,
                worker_id=worker.worker_id,
                allocation=allocation,
                start_time=start,
                runtime=runtime,
                outcome=AttemptOutcome.EXHAUSTED,
                observed=verdict.observed,
                exhausted=verdict.exhausted,
            )
            self._record_attempt(task, attempt)
            self._emit(
                "exhausted",
                task=task.task_id,
                worker=worker.worker_id,
                resources=tuple(r.key for r in verdict.exhausted),
            )
            task.state = TaskState.READY
            self._note_outcome(success=False)
            if self._resilience is not None:
                self._resilient_retry(task, allocation, verdict)
            else:
                task.current_allocation = self._allocator.allocate_retry(
                    task.category,
                    task.task_id,
                    previous=allocation,
                    observed=verdict.observed,
                    exhausted=verdict.exhausted,
                )
                self._scheduler.enqueue_retry(task)
        self._dispatch()

    def _notify_children(self, task: SimTask) -> None:
        for child_id in self._children.get(task.task_id, ()):  # dynamic DAG fan-out
            child = self._tasks[child_id]
            if child.dependency_completed(task.task_id, self._engine.now):
                self._enqueue_new(child)

    # -- pool callbacks ----------------------------------------------------------------------

    def _on_worker_joined(self, worker: Worker) -> None:
        self._emit("worker_join", worker=worker.worker_id)
        self._dispatch()

    def _on_worker_leaving(self, worker: Worker, evicted: Dict[int, ResourceVector]) -> None:
        self._emit(
            "worker_leave", worker=worker.worker_id, evicted=tuple(evicted)
        )
        for task_id, allocation in evicted.items():
            self._evict_attempt(task_id, allocation, worker.worker_id, cause="worker_lost")
        if evicted:
            self._dispatch()

    def _on_worker_degraded(self, worker: Worker, evicted: Dict[int, ResourceVector]) -> None:
        """A worker shrank under its tasks; requeue the ones pushed off."""
        self._emit(
            "worker_degraded",
            worker=worker.worker_id,
            capacity=worker.capacity,
            evicted=tuple(evicted),
        )
        for task_id, allocation in evicted.items():
            self._evict_attempt(task_id, allocation, worker.worker_id, cause="degraded")
        if evicted:
            self._dispatch()

    def _fault_kill(self, task_id: int) -> bool:
        """Kill one running attempt as an injected fault.

        The worker survives — only the task's process dies — so its
        reservation is released and the attempt is accounted exactly
        like an eviction: requeued with the same allocation, held
        resources charged to the eviction bucket.
        """
        worker_id = self._attempt_worker.get(task_id)
        if worker_id is None:
            return False
        start = self._attempt_start[task_id]
        worker = self._pool.worker(worker_id)
        allocation = worker.release(task_id, held_for=self._engine.now - start)
        self._evict_attempt(task_id, allocation, worker_id, cause="fault_kill")
        self._dispatch()
        return True

    def _evict_attempt(
        self, task_id: int, allocation: ResourceVector, worker_id: int, cause: str
    ) -> None:
        """Common bookkeeping for an attempt lost to external causes.

        Used for worker departures (churn and preemption faults),
        capacity degradations and mid-task kills: invalidate the
        pending end-of-attempt event, record an EVICTED attempt with
        the consumption observed so far, and requeue the task with its
        allocation unchanged — eviction says nothing about the
        allocation's adequacy.
        """
        now = self._engine.now
        task = self._tasks[task_id]
        self._attempt_token[task_id] += 1  # invalidate the pending end event
        start = self._attempt_start.pop(task_id, now)
        self._attempt_worker.pop(task_id, None)
        self._running_per_category[task.category] -= 1
        elapsed = now - start
        fraction = min(1.0, elapsed / task.spec.duration) if task.spec.duration > 0 else 0.0
        observed = ResourceVector(
            {
                res: min(
                    self._config.profile.consumed_at(
                        task.spec.consumption[res], fraction
                    ),
                    task.spec.consumption[res],
                )
                for res in task.spec.consumption
                if res is not TIME
            }
        )
        attempt = Attempt(
            index=task.n_attempts,
            worker_id=worker_id,
            allocation=allocation,
            start_time=start,
            runtime=elapsed,
            outcome=AttemptOutcome.EVICTED,
            observed=observed,
        )
        self._record_attempt(task, attempt)
        self._emit("evicted", task=task_id, worker=worker_id, cause=cause)
        task.state = TaskState.READY
        if self._resilience is not None:
            decision = self._resilience.on_requeue(task_id, cause, now)
            if not decision.retry:
                self._quarantine_task(task, decision.reason)
                return
            if decision.delay > 0:
                self._emit("backoff", task=task_id, delay=decision.delay)
                self._engine.schedule(
                    decision.delay, lambda: self._requeue_after_backoff(task)
                )
                return
        self._scheduler.enqueue_retry(task)

    # -- resilience policy ---------------------------------------------------------------------

    def _note_outcome(self, success: bool) -> None:
        """Feed one success/exhaustion into the breaker and watchdog."""
        if self._resilience is None:
            return
        now = self._engine.now
        breaker = self._resilience.breaker
        epoch_before = breaker.epoch if breaker is not None else 0
        self._resilience.record_outcome(success, now)
        if success:
            self._resilience.note_progress(now)
        if breaker is not None and breaker.epoch != epoch_before:
            self._emit(
                "breaker", state=breaker.state(now).value, trips=breaker.trips
            )

    def _resilient_retry(self, task: SimTask, allocation: ResourceVector, verdict) -> None:
        """Exhaustion requeue under a retry policy: escalate, delay, or give up."""
        assert self._resilience is not None
        now = self._engine.now
        decision = self._resilience.on_requeue(task.task_id, "exhausted", now)
        if not decision.retry:
            self._quarantine_task(task, decision.reason)
            return
        if self._resilience.conservative_mode(now):
            # Degraded mode: skip the algorithm's escalation ladder and
            # jump straight to the conservative whole-machine allocation
            # (never shrinking below what already proved insufficient).
            task.current_allocation = allocation.componentwise_max(
                self._allocator.conservative_allocation()
            )
        else:
            task.current_allocation = self._allocator.allocate_retry(
                task.category,
                task.task_id,
                previous=allocation,
                observed=verdict.observed,
                exhausted=verdict.exhausted,
            )
        if decision.delay > 0:
            self._emit("backoff", task=task.task_id, delay=decision.delay)
            self._engine.schedule(
                decision.delay, lambda: self._requeue_after_backoff(task)
            )
        else:
            self._scheduler.enqueue_retry(task)

    def _requeue_after_backoff(self, task: SimTask) -> None:
        """Re-admit a task whose requeue was delayed by backoff."""
        if task.state is not TaskState.READY:  # pragma: no cover - defensive
            return
        self._scheduler.enqueue_retry(task)
        self._dispatch()

    def _quarantine_task(self, task: SimTask, reason: str) -> None:
        """Move one over-budget task to the dead-letter ledger.

        The task's burned attempts are charged to the accounting ledger
        (failed-allocation waste), descendants that can now never run
        are cascade-quarantined, and the freed submission-window slot is
        refilled — the rest of the workflow keeps going.
        """
        assert self._resilience is not None
        now = self._engine.now
        task.state = TaskState.QUARANTINED
        self._resilience.quarantine(
            task.task_id,
            task.category,
            reason,
            now,
            n_attempts=task.n_attempts,
            n_exhausted=task.n_exhausted_attempts,
            n_evicted=task.n_evicted_attempts,
        )
        self._ledger.record_quarantined(task)
        self._quarantined += 1
        self._outstanding -= 1
        self._emit(
            "quarantine", task=task.task_id, reason=reason, attempts=task.n_attempts
        )
        self._cascade_quarantine(task)
        self._submit_more()
        if self.terminal_tasks == len(self._workflow):
            self._stop_generators()

    def _cascade_quarantine(self, root: SimTask) -> None:
        """Dead-letter every descendant waiting on a quarantined parent."""
        assert self._resilience is not None
        now = self._engine.now
        stack = list(self._children.get(root.task_id, ()))
        while stack:
            child = self._tasks[stack.pop()]
            if child.state is not TaskState.PENDING:
                continue
            child.state = TaskState.QUARANTINED
            self._resilience.quarantine(
                child.task_id,
                child.category,
                "parent_quarantined",
                now,
                n_attempts=child.n_attempts,
                n_exhausted=child.n_exhausted_attempts,
                n_evicted=child.n_evicted_attempts,
            )
            self._ledger.record_quarantined(child)
            self._quarantined += 1
            if self._spec_index[child.task_id] < self._next_to_submit:
                self._outstanding -= 1
            else:
                self._quarantined_unrevealed += 1
            self._emit(
                "quarantine",
                task=child.task_id,
                reason="parent_quarantined",
                attempts=child.n_attempts,
            )
            stack.extend(self._children.get(child.task_id, ()))

    def _watchdog_check(self) -> None:
        """Engine post-event hook: detect no-forward-progress windows."""
        assert self._resilience is not None
        work_outstanding = self.terminal_tasks < len(self._workflow)
        if self._resilience.check_stall(self._engine.now, work_outstanding):
            watchdog = self._resilience.watchdog
            assert watchdog is not None
            self._emit(
                "stall",
                stalls=watchdog.stalls,
                degraded=self._resilience.breaker is not None,
            )

    def _stop_generators(self) -> None:
        """Terminal state reached: let the event queue drain."""
        self._pool.stop()
        if self._faults is not None:
            self._faults.stop()

    # -- dispatch trampoline -------------------------------------------------------------------

    def _dispatch(self) -> None:
        self._scheduler.try_dispatch()
