"""Per-layer instrumentation: which entry points are wrapped, and the sums.

Each ``install_*`` function patches the names the callers look up at
call time (a module global such as ``repro.service.server.parse_line``
or a class attribute such as ``Scheduler.try_dispatch``) so no file of
the program changes.  :class:`LayerProbe` keeps the online bookkeeping
that plain spans cannot express: which allocator call created a
category, how many records each category received, and which WAL group
commit served each shard submission (the queue-wait arithmetic).
"""

from __future__ import annotations

import statistics
from collections import Counter
from typing import Any, Dict, List, Tuple

from perfbench.spans import NO_PARENT, Tracer, outermost_total, self_times, union_length

__all__ = [
    "LayerProbe",
    "install_core",
    "install_sim",
    "install_service",
    "daemon_summary",
    "PER_LAYER_METRICS",
    "zero_layer_metrics",
]

#: Every per-layer metric, in report order, with its unit.
PER_LAYER_METRICS: Dict[str, str] = {
    "alloc_p50_ms": "ms",
    "alloc_p99_ms": "ms",
    "sim.dispatch_share": "fraction",
    "sim.fit_probes_per_dispatch": "count",
    "sim.can_fit_calls_per_dispatch": "count",
    "core.share": "fraction",
    "core.apply_us_per_op": "us",
    "core.first_touch_us": "us",
    "core.allocate_us_p50": "us",
    "core.observe_us_p50": "us",
    "core.records_per_category_p50": "count",
    "protocol.parse_us_per_op": "us",
    "protocol.validate_us_per_op": "us",
    "protocol.encode_us_per_op": "us",
    "protocol.validate_calls_per_op": "count",
    "shards.queue_wait_us_per_op": "us",
    "shards.ops_per_commit": "count",
    "service.submit_self_us_per_op": "us",
    "checkpoint.append_us_per_commit": "us",
    "checkpoint.wal_bytes_per_op": "bytes",
    "recover.decode_s": "s",
    "recover.replay_s": "s",
    "server.residual_us_per_op": "us",
    "gen.lag_p99_ms": "ms",
    "trace.overhead_frac": "fraction",
    "residual_frac": "fraction",
    "failed_frac": "fraction",
}

ALLOCATOR_SPANS = ("core.allocate", "core.allocate_retry", "core.observe")
#: Daemon spans that lie on a request's path in the connection's own task.
REQUEST_SPANS = ("protocol.parse", "protocol.validate", "service.submit", "protocol.encode")
MUTATING = ("allocate", "allocate_retry", "record")


def zero_layer_metrics() -> Dict[str, float]:
    """A per-layer row where every layer did no work (the workload's baseline)."""
    return {name: 0.0 for name in PER_LAYER_METRICS}


class LayerProbe:
    """Online bookkeeping attached to the wrappers of one :class:`Tracer`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: Span indices of allocator calls that created their category.
        self.first_touch: set = set()
        #: ``(allocator id, category)`` -> records observed.
        self.records: Counter = Counter()
        # Allocators stay referenced so their ids cannot be recycled.
        self._allocators: Dict[int, Any] = {}
        self._seen: set = set()
        # WAL group commit bookkeeping (see install_service).
        self._op_commit: Dict[int, int] = {}
        self._commit_apply: Dict[int, float] = {}
        self.queue_wait_s = 0.0
        self.queue_wait_ops = 0
        self.validated_ops = 0
        self.dispatches = 0

    # -- core --------------------------------------------------------------------

    def allocator_call(self, index: int, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> None:
        allocator, category = args[0], args[1]
        key = (id(allocator), category)
        if key not in self._seen:
            self._seen.add(key)
            self._allocators.setdefault(id(allocator), allocator)
            self.first_touch.add(index)

    def observe_call(self, index: int, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> None:
        self.allocator_call(index, args, kwargs)
        self.records[(id(args[0]), args[1])] += 1

    # -- service -----------------------------------------------------------------

    def validate_call(self, index: int, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> None:
        doc = args[0]
        op = doc.get("op") if isinstance(doc, dict) else None
        if op == "allocate_batch" and isinstance(doc.get("requests"), list):
            self.validated_ops += len(doc["requests"])
        elif op in MUTATING:
            self.validated_ops += 1

    def append_call(self, index: int, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> None:
        for entry in args[1]:
            self._op_commit[id(entry["op"])] = index
        self.tracer.counts["checkpoint.entries"] += len(args[1])

    def apply_done(self, index: int, args: Tuple[Any, ...], result: Any) -> None:
        commit = self._op_commit.get(id(args[1]))
        if commit is not None:
            tracer = self.tracer
            self._commit_apply[commit] = self._commit_apply.get(commit, 0.0) + (
                tracer.ends[index] - tracer.starts[index]
            )

    def submit_many_done(self, index: int, args: Tuple[Any, ...], result: Any) -> None:
        ops = args[1]
        commit = self._op_commit.get(id(ops[0]))
        if commit is None:
            return
        tracer = self.tracer
        served = (tracer.ends[commit] - tracer.starts[commit]) + self._commit_apply.get(
            commit, 0.0
        )
        self.queue_wait_s += (tracer.ends[index] - tracer.starts[index]) - served
        self.queue_wait_ops += len(ops)
        for op in ops:
            self._op_commit.pop(id(op), None)

    # -- sim ---------------------------------------------------------------------

    def dispatch_done(self, index: int, args: Tuple[Any, ...], result: Any) -> None:
        self.dispatches += int(result)


def install_core(tracer: Tracer, probe: LayerProbe) -> None:
    from repro.core.allocator import TaskOrientedAllocator

    tracer.wrap(TaskOrientedAllocator, "allocate", "core.allocate", hook=probe.allocator_call)
    tracer.wrap(
        TaskOrientedAllocator, "allocate_retry", "core.allocate_retry", hook=probe.allocator_call
    )
    tracer.wrap(TaskOrientedAllocator, "observe", "core.observe", hook=probe.observe_call)


def install_sim(tracer: Tracer, probe: LayerProbe) -> None:
    """Dispatch scan, fit probes and the grid journal's read side."""
    import repro.checkpoint as checkpoint
    from repro.sim.pool import WorkerPool
    from repro.sim.scheduler import Scheduler
    from repro.sim.worker import Worker

    install_core(tracer, probe)
    tracer.wrap(Scheduler, "try_dispatch", "sim.try_dispatch", after=probe.dispatch_done)
    tracer.count_calls(WorkerPool, "find_fit", "sim.find_fit")
    tracer.count_calls(Worker, "can_fit", "sim.can_fit")
    tracer.wrap(checkpoint, "recover_jsonl", "recover.decode")


def install_service(tracer: Tracer, probe: LayerProbe) -> None:
    """Wire protocol, service front, shard queue, WAL and recovery."""
    import repro.service.server as server
    import repro.service.service as service
    import repro.service.shards as shards
    from repro.checkpoint import JournalWriter

    install_core(tracer, probe)
    tracer.wrap(server, "parse_line", "protocol.parse")
    tracer.wrap(server, "validate_request", "protocol.validate", hook=probe.validate_call)
    tracer.wrap(service, "validate_request", "protocol.validate", hook=probe.validate_call)
    tracer.wrap(server, "encode", "protocol.encode")
    tracer.wrap(service.AllocationService, "submit", "service.submit")
    tracer.wrap(service.AllocationService, "submit_batch", "service.submit")
    tracer.wrap(
        shards.AllocationShard, "submit_many", "shards.submit_many", after=probe.submit_many_done
    )
    tracer.wrap(shards, "apply_op", "core.apply_op", after=probe.apply_done)
    tracer.wrap(JournalWriter, "append_many", "checkpoint.append", hook=probe.append_call)
    tracer.wrap(service, "recover_jsonl", "recover.decode")
    tracer.wrap(shards.AllocationShard, "replay", "recover.replay")


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def daemon_summary(tracer: Tracer, probe: LayerProbe) -> Dict[str, Any]:
    """Raw per-layer sums of one process, JSON-safe.

    Sums, not ratios: the caller divides by the operations and wall
    time it measured from outside.
    """
    spans = tracer.spans()
    selfs = self_times(spans)
    total: Counter = Counter()
    calls: Counter = Counter()
    self_total: Counter = Counter()
    durations: Dict[str, List[float]] = {"core.allocate": [], "core.observe": []}
    for index, (name, start, end, parent) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        self_total[name] += selfs[index]
        if name in durations:
            durations[name].append(end - start)
    top_level = [(s, e) for name, s, e, parent in spans if parent == NO_PARENT]
    first_touch = [spans[i][2] - spans[i][1] for i in probe.first_touch if i < len(spans)]
    return {
        "total_s": dict(total),
        "calls": dict(calls),
        "self_s": dict(self_total),
        "dispatch_s": outermost_total(spans, "sim.try_dispatch"),
        "allocator_union_s": union_length(
            [(s, e) for name, s, e, _ in spans if name in ALLOCATOR_SPANS]
        ),
        "top_level_union_s": union_length(top_level),
        "request_span_s": sum(total[name] for name in REQUEST_SPANS)
        - _nested_validate_s(spans),
        "counts": dict(tracer.counts),
        "first_touch_us": 1e6 * statistics.fmean(first_touch) if first_touch else 0.0,
        "allocate_us_p50": 1e6 * _median(durations["core.allocate"]),
        "observe_us_p50": 1e6 * _median(durations["core.observe"]),
        "records_per_category_p50": _median(list(probe.records.values())),
        "queue_wait_s": probe.queue_wait_s,
        "queue_wait_ops": probe.queue_wait_ops,
        "validated_ops": probe.validated_ops,
        "dispatches": probe.dispatches,
    }


def _nested_validate_s(spans: List[Tuple[str, float, float, int]]) -> float:
    """Validation time already inside a ``service.submit`` span (not to count twice)."""
    return sum(
        end - start
        for name, start, end, parent in spans
        if name == "protocol.validate" and parent != NO_PARENT
    )
