"""Simulated workers: capacity accounting and task hosting.

A worker is a vector bin: tasks occupy their *allocation* (not their
true consumption — the execution system reserves what was requested,
which is precisely why over-allocation wastes capacity) and are packed
while the componentwise sum fits the worker's capacity.  Enforcement —
killing a task the moment it over-consumes — is decided by the
consumption profile at dispatch time and realized by the manager; the
worker only owns placement arithmetic.

Fit checks are the single hottest operation in a simulation (every
dispatch scan probes every queued task against every worker), so the
worker maintains a plain float dict of *free* capacity updated
incrementally on place/release, with per-resource absolute tolerances
so float residue from fractional allocations can never make an empty
worker reject a full-capacity request.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.resources import TIME, Resource, ResourceVector

__all__ = ["Worker"]


class Worker:
    """One (possibly opportunistic) execution node."""

    __slots__ = (
        "worker_id",
        "capacity",
        "_running",
        "_free",
        "_tolerance",
        "joined_at",
        "left_at",
        "busy_time",
    )

    def __init__(
        self, worker_id: int, capacity: ResourceVector, joined_at: float = 0.0
    ) -> None:
        if all(capacity[r] <= 0 for r in capacity):
            raise ValueError("worker capacity must be positive in some resource")
        self.worker_id = worker_id
        self.capacity = capacity
        self._running: Dict[int, ResourceVector] = {}
        self._free: Dict[Resource, float] = dict(capacity.raw)
        self._tolerance: Dict[Resource, float] = {
            res: 1e-9 * max(cap, 1.0) for res, cap in capacity.raw.items()
        }
        self.joined_at = joined_at
        self.left_at: Optional[float] = None
        #: Accumulated task-seconds hosted, for utilization reporting.
        self.busy_time = 0.0

    # -- capacity queries -----------------------------------------------------------

    @property
    def committed(self) -> ResourceVector:
        """Sum of allocations of the currently hosted tasks."""
        return self.capacity - ResourceVector(self._free)

    def free_capacity(self) -> ResourceVector:
        return ResourceVector({r: max(0.0, v) for r, v in self._free.items()})

    def overcommit(self, rtol: float) -> Optional[Tuple[Resource, float, float]]:
        """First ``(resource, committed, capacity)`` over capacity, else None.

        Committed is ``capacity - free`` per resource, without clamping,
        so unlike :attr:`committed` it can show an *overcommitted* state,
        which is exactly what the invariant checker needs to see.  A
        resource is over when committed exceeds ``capacity * (1 + rtol)
        + 1e-9``.
        """
        free = self._free
        for res, cap in self.capacity.raw.items():
            value = cap - free[res]
            if value > cap * (1.0 + rtol) + 1e-9:
                return res, value, cap
        return None

    def can_fit(self, allocation: ResourceVector) -> bool:
        """Whether an additional task with this allocation fits now."""
        free = self._free
        tolerance = self._tolerance
        for res, requested in allocation.raw.items():
            if res is TIME:
                # Wall time is a per-task limit, not worker capacity:
                # hosting a task does not consume "time" from the node.
                continue
            slack = free.get(res)
            if slack is None:
                # The worker has no capacity of this resource at all.
                if requested > 1e-9:
                    return False
            elif requested > slack + tolerance[res]:
                return False
        return True

    def has_headroom(self) -> bool:
        """True if every capacity dimension has strictly positive slack.

        Used by the dispatch scan's saturation short-circuit: a worker
        with any dimension full cannot host a task that needs all
        dimensions.
        """
        for res, slack in self._free.items():
            if slack <= self._tolerance[res]:
                return False
        return True

    @property
    def n_running(self) -> int:
        return len(self._running)

    @property
    def running_task_ids(self) -> Tuple[int, ...]:
        return tuple(self._running)

    @property
    def alive(self) -> bool:
        return self.left_at is None

    # -- placement --------------------------------------------------------------------

    def place(self, task_id: int, allocation: ResourceVector) -> None:
        """Reserve ``allocation`` for ``task_id``; raises if it cannot fit."""
        if task_id in self._running:
            raise ValueError(f"task {task_id} is already on worker {self.worker_id}")
        if not self.can_fit(allocation):
            raise ValueError(
                f"task {task_id} does not fit worker {self.worker_id}: "
                f"free={self.free_capacity()!r}, requested={allocation!r}"
            )
        self._running[task_id] = allocation
        free = self._free
        for res, requested in allocation.raw.items():
            if res in free:
                free[res] -= requested

    def release(self, task_id: int, held_for: float = 0.0) -> ResourceVector:
        """Free a task's reservation; returns the released allocation."""
        try:
            allocation = self._running.pop(task_id)
        except KeyError:
            raise KeyError(
                f"task {task_id} is not running on worker {self.worker_id}"
            ) from None
        if self._running:
            free = self._free
            for res, requested in allocation.raw.items():
                if res in free:
                    free[res] += requested
        else:
            # Snap to exact capacity so float residue never accumulates.
            self._free = dict(self.capacity.raw)
        self.busy_time += held_for
        return allocation

    def degrade(self, new_capacity: ResourceVector) -> Dict[int, ResourceVector]:
        """Shrink the worker's capacity in place (opportunistic reclaim).

        The batch system can claw back part of a pilot's resources while
        tasks are running on it.  ``new_capacity`` must be componentwise
        at most the current capacity and positive in some resource.
        Hosted tasks that no longer fit are evicted newest-first (the
        batch system preserves the oldest leases) until the remaining
        set fits; the evicted ``{task_id: allocation}`` map is returned
        so the caller can requeue them.
        """
        values: Dict[Resource, float] = {}
        for res, cap in self.capacity.raw.items():
            new_value = new_capacity[res]
            if new_value > cap + self._tolerance[res]:
                raise ValueError(
                    f"degrade cannot grow capacity ({res.key}: {cap} -> {new_value})"
                )
            values[res] = min(new_value, cap)
        if all(v <= 0 for v in values.values()):
            raise ValueError("degraded capacity must stay positive in some resource")
        self.capacity = ResourceVector(values)
        self._tolerance = {
            res: 1e-9 * max(cap, 1.0) for res, cap in self.capacity.raw.items()
        }
        evicted: Dict[int, ResourceVector] = {}
        while True:
            free = dict(self.capacity.raw)
            for allocation in self._running.values():
                for res, requested in allocation.raw.items():
                    if res in free:
                        free[res] -= requested
            if all(v >= -self._tolerance[res] for res, v in free.items()):
                self._free = free
                break
            victim_id = next(reversed(self._running))
            evicted[victim_id] = self._running.pop(victim_id)
        if not self._running:
            self._free = dict(self.capacity.raw)
        return evicted

    def evict_all(self, now: float) -> Dict[int, ResourceVector]:
        """Drop every hosted task (the worker is leaving the pool)."""
        evicted = dict(self._running)
        self._running.clear()
        self._free = dict(self.capacity.raw)
        self.left_at = now
        return evicted

    def __repr__(self) -> str:
        status = "alive" if self.alive else f"left@{self.left_at:.0f}s"
        return (
            f"Worker(id={self.worker_id}, running={len(self._running)}, "
            f"{status})"
        )
