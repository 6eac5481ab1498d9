"""Tests for the dispatch scheduler in isolation."""

import pytest

from repro.core.resources import MEMORY, ResourceVector
from repro.sim.engine import SimulationEngine
from repro.sim.pool import PoolConfig, WorkerPool
from repro.sim.scheduler import Scheduler
from repro.sim.task import SimTask, TaskState
from repro.workflows.spec import TaskSpec


def make_task(task_id, cores=1.0, memory=100.0, category="proc"):
    spec = TaskSpec(
        task_id=task_id,
        category=category,
        consumption=ResourceVector.of(cores=cores, memory=memory, disk=10),
        duration=10.0,
    )
    return SimTask(spec)


class SchedulerHarness:
    """Wires a Scheduler with controllable allocation and capture."""

    def __init__(self, n_workers=1, cores=4, memory=4000):
        self.engine = SimulationEngine()
        self.pool = WorkerPool(
            self.engine,
            PoolConfig(
                n_workers=n_workers,
                capacity=ResourceVector.of(cores=cores, memory=memory, disk=4000),
            ),
        )
        self.version = 0
        self.allocations = {}
        self.started = []
        self.allocation_calls = 0
        self.gate = None
        self.scheduler = Scheduler(
            self.pool,
            allocation_of=self._allocate,
            allocation_version=lambda task: self.version,
            start_attempt=self._start,
            may_dispatch=lambda category: self.gate(category) if self.gate else True,
        )

    def _allocate(self, task):
        self.allocation_calls += 1
        return self.allocations.get(
            task.task_id, ResourceVector.of(cores=1, memory=100, disk=10)
        )

    def _start(self, task, worker):
        worker.place(task.task_id, task.current_allocation)
        self.started.append(task.task_id)


class TestDispatch:
    def test_fifo_order(self):
        h = SchedulerHarness(cores=4)
        for i in range(3):
            h.scheduler.enqueue(make_task(i))
        h.scheduler.try_dispatch()
        assert h.started == [0, 1, 2]

    def test_backfill_small_behind_large(self):
        h = SchedulerHarness(cores=4)
        big = make_task(0, cores=8.0)  # cannot fit the 4-core worker... but
        # allocation decides fit, not consumption: give it a huge allocation.
        h.allocations[0] = ResourceVector.of(cores=8, memory=100, disk=10)
        h.scheduler.enqueue(big)
        h.scheduler.enqueue(make_task(1))
        h.scheduler.try_dispatch()
        assert h.started == [1]
        assert h.scheduler.n_ready == 1  # the big one still waits

    def test_retry_goes_to_front(self):
        h = SchedulerHarness(cores=1)  # one slot
        t0, t1 = make_task(0), make_task(1)
        h.scheduler.enqueue(t0)
        h.scheduler.enqueue(t1)
        h.scheduler.try_dispatch()
        assert h.started == [0]
        # t0 is killed: free the worker and requeue at the front.
        h.pool.alive_workers()[0].release(0)
        t0.state = TaskState.READY
        t0.current_allocation = ResourceVector.of(cores=1, memory=200, disk=10)
        h.scheduler.enqueue_retry(t0)
        h.scheduler.try_dispatch()
        assert h.started == [0, 0]

    def test_retry_allocation_is_sticky(self):
        h = SchedulerHarness()
        t0 = make_task(0)
        escalated = ResourceVector.of(cores=2, memory=500, disk=10)
        t0.current_allocation = escalated
        h.scheduler.enqueue_retry(t0)
        h.version = 99  # stale by version, but sticky wins
        h.scheduler.try_dispatch()
        assert h.started == [0]
        assert t0.current_allocation is escalated
        assert h.allocation_calls == 0

    def test_saturation_short_circuit_skips_probes(self):
        h = SchedulerHarness(n_workers=1, cores=1)
        t0, t1 = make_task(0), make_task(1)
        h.scheduler.enqueue(t0)
        h.scheduler.enqueue(t1)
        h.scheduler.try_dispatch()
        # t0 filled the single core; t1 was never even probed.
        assert h.started == [0]
        assert h.allocation_calls == 1

    def test_version_refresh_at_placement(self):
        h = SchedulerHarness(n_workers=1, cores=2)
        t0, t1 = make_task(0), make_task(1)
        # t1's initial prediction is too big to fit beside t0.
        h.allocations[1] = ResourceVector.of(cores=2, memory=100, disk=10)
        h.scheduler.enqueue(t0)
        h.scheduler.enqueue(t1)
        h.scheduler.try_dispatch()
        assert h.started == [0]
        assert h.allocation_calls == 2   # both probed; t1 cached at version 0
        # The allocator learns: new version, smaller prediction for t1.
        h.version = 1
        h.allocations[1] = ResourceVector.of(cores=1, memory=999, disk=10)
        h.pool.alive_workers()[0].release(0)
        h.scheduler.try_dispatch()
        assert h.started == [0, 1]
        # The stale 2-core probe fit the emptied worker, and the
        # dispatch-time refresh re-predicted before placement.
        assert h.allocation_calls == 3
        assert t1.current_allocation[MEMORY] == 999

    def test_gate_blocks_dispatch(self):
        h = SchedulerHarness()
        h.gate = lambda category: category != "held"
        h.scheduler.enqueue(make_task(0, category="held"))
        h.scheduler.enqueue(make_task(1))
        h.scheduler.try_dispatch()
        assert h.started == [1]
        h.gate = None
        h.scheduler.try_dispatch()
        assert h.started == [1, 0]

    def test_closed_gate_is_asked_once_per_scan(self):
        h = SchedulerHarness(cores=8)
        calls = []

        def gate(category):
            calls.append(category)
            return category != "held"

        h.gate = gate
        for i in range(6):
            h.scheduler.enqueue(make_task(i, category="held" if i % 2 else "proc"))
        h.scheduler.try_dispatch()
        assert h.started == [0, 2, 4]
        # The open category is asked per task; the closed one only once.
        assert calls.count("held") == 1
        assert calls.count("proc") == 3
        calls.clear()
        h.scheduler.try_dispatch()
        # A new scan asks again: the gate may have reopened in between.
        assert calls == ["held"]

    def test_enqueue_requires_ready_state(self):
        h = SchedulerHarness()
        t = make_task(0)
        t.state = TaskState.RUNNING
        with pytest.raises(ValueError):
            h.scheduler.enqueue(t)

    def test_enqueue_retry_requires_allocation(self):
        h = SchedulerHarness()
        t = make_task(0)
        with pytest.raises(ValueError):
            h.scheduler.enqueue_retry(t)

    def test_counts(self):
        h = SchedulerHarness(cores=4)
        for i in range(6):
            h.scheduler.enqueue(make_task(i))
        h.scheduler.try_dispatch()
        assert h.scheduler.total_dispatches == 4  # 4 cores, 1-core tasks
        assert h.scheduler.n_ready == 2
