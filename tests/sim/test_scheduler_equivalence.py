"""The one-pass dispatch scan places exactly what the multi-pass loop did.

:class:`MultiPassScheduler` keeps the earlier ``try_dispatch``, which
re-scanned the whole queue after every pass that placed a task.  Within
a scan capacity only shrinks, the unfit memo only grows and gates only
close, so the re-scan can never place anything; this property checks
that claim on random queues: the same placements in the same order, the
same ``allocation_of`` calls and the same final queue.
"""

from collections import deque
from typing import Deque, Set

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.resources import ResourceVector
from repro.sim.engine import SimulationEngine
from repro.sim.pool import PoolConfig, WorkerPool
from repro.sim.scheduler import Scheduler
from repro.sim.task import SimTask, TaskState
from repro.workflows.spec import TaskSpec

#: Allocations a task can be predicted or escalated to; repeats make the
#: unfit memo matter.
MENU = [
    ResourceVector.of(cores=1, memory=100, disk=10),
    ResourceVector.of(cores=1, memory=100, disk=10),
    ResourceVector.of(cores=2, memory=500, disk=10),
    ResourceVector.of(cores=2, memory=1500, disk=10),
    ResourceVector.of(cores=3, memory=200, disk=10),
    ResourceVector.of(cores=4, memory=3000, disk=10),
]


class MultiPassScheduler(Scheduler):
    """Reference: the multi-pass dispatch loop the one-pass scan replaced."""

    def try_dispatch(self) -> int:
        if self._dispatching:
            return 0
        self._dispatching = True
        dispatched = 0
        try:
            made_progress = True
            while made_progress:
                made_progress = False
                if not self._ready or not self._pool.has_headroom():
                    break
                unfit: Set[ResourceVector] = set()
                still_waiting: Deque[SimTask] = deque()
                while self._ready:
                    task = self._ready.popleft()
                    if self._may_dispatch is not None and not self._may_dispatch(
                        task.category
                    ):
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
                    made_progress = True
                    self._start_attempt(task, worker)
                    if not self._pool.has_headroom():
                        still_waiting.extend(self._ready)
                        self._ready.clear()
                        made_progress = False
                        break
                self._ready = still_waiting
        finally:
            self._dispatching = False
        return dispatched


class World:
    """A pool, a scheduler and the callbacks, driven by a drawn program."""

    def __init__(self, scheduler_cls, n_workers, cores, limits):
        self.engine = SimulationEngine()
        self.pool = WorkerPool(
            self.engine,
            PoolConfig(
                n_workers=n_workers,
                capacity=ResourceVector.of(cores=cores, memory=4000, disk=4000),
            ),
        )
        #: Exploration-style gates: None is open, k admits k running tasks.
        self.limits = list(limits)
        self.running_per_category = [0] * len(limits)
        self.versions = [0] * len(limits)
        self.predictions = {}
        self.faulty = set()
        self.backoff = []
        self.running = []
        self.tasks = {}
        self.log = []
        self.scheduler = scheduler_cls(
            self.pool,
            allocation_of=self._allocation_of,
            allocation_version=lambda task: self.versions[int(task.category)],
            start_attempt=self._start_attempt,
            may_dispatch=self._may_dispatch,
        )

    def _allocation_of(self, task):
        self.log.append(("allocation_of", task.task_id))
        choices = self.predictions[task.task_id]
        return MENU[choices[self.versions[int(task.category)] % len(choices)]]

    def _may_dispatch(self, category):
        limit = self.limits[int(category)]
        return limit is None or self.running_per_category[int(category)] < limit

    def _start_attempt(self, task, worker):
        if task.task_id in self.faulty:
            # A lost submission: nothing is placed, the task backs off.
            self.faulty.discard(task.task_id)
            task.state = TaskState.READY
            self.backoff.append(task)
            self.log.append(("fault", task.task_id, worker.worker_id))
            return
        worker.place(task.task_id, task.current_allocation)
        self.running_per_category[int(task.category)] += 1
        self.running.append((task, worker))
        self.log.append(("start", task.task_id, worker.worker_id))

    def _stop_running(self, pick):
        task, worker = self.running.pop(pick % len(self.running))
        worker.release(task.task_id)
        self.running_per_category[int(task.category)] -= 1
        return task

    def apply(self, op):
        kind = op[0]
        if kind == "enqueue":
            _, category, choices, faulty = op
            task_id = len(self.tasks)
            task = SimTask(
                TaskSpec(
                    task_id=task_id,
                    category=str(category),
                    consumption=ResourceVector.of(cores=1, memory=10, disk=1),
                    duration=1.0,
                )
            )
            self.tasks[task_id] = task
            self.predictions[task_id] = choices
            if faulty:
                self.faulty.add(task_id)
            self.scheduler.enqueue(task)
        elif kind == "scan":
            self.log.append(("scan", self.scheduler.try_dispatch()))
        elif kind == "bump":
            self.versions[op[1]] += 1
        elif kind == "open":
            self.limits[op[1]] = None
        elif kind == "finish" and self.running:
            task = self._stop_running(op[1])
            task.state = TaskState.COMPLETED
            # Its record moves the category's allocator state.
            self.versions[int(task.category)] += 1
        elif kind == "kill" and self.running:
            task = self._stop_running(op[1])
            task.state = TaskState.READY
            task.current_allocation = MENU[op[2]]
            self.scheduler.enqueue_retry(task)
        elif kind == "redispatch" and self.backoff:
            self.scheduler.enqueue_retry(self.backoff.pop(op[1] % len(self.backoff)))

    def final_queue(self):
        return [
            (task.task_id, task.current_allocation) for task in self.scheduler._ready
        ]


@st.composite
def programs(draw):
    n_categories = draw(st.integers(1, 4))
    category = st.integers(0, n_categories - 1)
    menu_index = st.integers(0, len(MENU) - 1)
    limits = draw(
        st.lists(
            st.one_of(st.none(), st.integers(0, 3)),
            min_size=n_categories,
            max_size=n_categories,
        )
    )
    enqueue = st.tuples(
        st.just("enqueue"),
        category,
        st.lists(menu_index, min_size=2, max_size=3),
        st.booleans(),
    )
    op = st.one_of(
        # Listed three times so queues grow deep enough to backfill.
        enqueue,
        enqueue,
        enqueue,
        st.tuples(st.just("scan")),
        st.tuples(st.just("scan")),
        st.tuples(st.just("bump"), category),
        st.tuples(st.just("open"), category),
        st.tuples(st.just("finish"), st.integers(0, 63)),
        st.tuples(st.just("kill"), st.integers(0, 63), menu_index),
        st.tuples(st.just("redispatch"), st.integers(0, 63)),
    )
    ops = draw(st.lists(op, min_size=10, max_size=80))
    return draw(st.integers(1, 3)), draw(st.integers(2, 6)), limits, ops + [("scan",)]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_one_pass_scan_matches_multi_pass_loop(program):
    n_workers, cores, limits, ops = program
    worlds = [World(cls, n_workers, cores, limits) for cls in (MultiPassScheduler, Scheduler)]
    for op in ops:
        for world in worlds:
            world.apply(op)
    reference, one_pass = worlds
    assert one_pass.log == reference.log
    assert one_pass.final_queue() == reference.final_queue()
    assert one_pass.scheduler.total_dispatches == reference.scheduler.total_dispatches
