"""Tests of the benchmark's own pieces.

Run from the checkout root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import asyncio
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.layers import LayerProbe, daemon_summary, install_service, install_sim  # noqa: E402
from perfbench.spans import (  # noqa: E402
    NO_PARENT,
    Tracer,
    outermost_total,
    percentile,
    residual,
    self_times,
    union_length,
)
from perfbench.speed import REFERENCE_S, calibrate, reference_job, scaled  # noqa: E402
from perfbench.traffic import (  # noqa: E402
    TrafficTally,
    check_regime,
    hot_tasks,
    wide_tasks,
)

# -- generators ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [lambda seed: wide_tasks(seed, 400.0, 3.0), lambda seed: hot_tasks(seed, 500)],
    ids=["wide", "hot"],
)
def test_generators_are_deterministic_per_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_wide_stream_respects_rate_and_window():
    tasks = wide_tasks(3, 400.0, 5.0)
    assert all(0.0 <= t.arrival < 5.0 for t in tasks)
    assert [t.arrival for t in tasks] == sorted(t.arrival for t in tasks)
    # 400 ops/s over 5 s at 2.08 ops per task: ~960 tasks.
    assert 850 < len(tasks) < 1070
    assert all(len(t.exhausted) == t.retries for t in tasks)


def _tally(tasks):
    tally = TrafficTally()
    for task in tasks:
        tally.sent({"op": "allocate", "category": task.category})
        for _ in range(task.retries):
            tally.sent({"op": "allocate_retry", "category": task.category})
        tally.sent({"op": "record", "category": task.category})
    return tally.profile()


def test_regime_check_accepts_own_traffic_and_refuses_the_other():
    wide = _tally(wide_tasks(1, 400.0, 10.0))
    hot = _tally(hot_tasks(1, 16_000))
    assert check_regime(wide, "wide") == []
    assert check_regime(hot, "hot") == []
    assert check_regime(hot, "wide")
    assert check_regime(wide, "hot")


# -- span arithmetic -----------------------------------------------------------------


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        ("request", 0.0, 10.0, NO_PARENT),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: covered once
        ("c", 9.0, 12.0, 0),  # ends after its parent: clipped to 1.0
        ("leaf", 1.5, 2.0, 1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[4] == pytest.approx(0.5)


def test_outermost_total_skips_nested_same_name_spans():
    spans = [
        ("dispatch", 0.0, 4.0, NO_PARENT),
        ("alloc", 1.0, 2.0, 0),
        ("dispatch", 1.2, 1.8, 1),  # re-entrant call inside the outer one
        ("dispatch", 5.0, 6.0, NO_PARENT),
    ]
    assert outermost_total(spans, "dispatch") == pytest.approx(5.0)


def test_residual_and_percentile():
    assert residual(10.0, 7.5) == (pytest.approx(2.5), pytest.approx(0.25))
    assert residual(0.0, 0.0) == (0.0, 0.0)
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([3.0], 99) == 3.0


# -- host speed scaling ----------------------------------------------------------------


def test_scaled_divides_by_the_mean_reference_time():
    # A run whose reference job took twice REFERENCE_S ran on a host half
    # as fast: its times halve.
    assert scaled(3.0, 2 * REFERENCE_S) == pytest.approx(1.5)
    assert scaled(3.0, REFERENCE_S, 3 * REFERENCE_S) == pytest.approx(1.5)
    assert scaled(3.0, REFERENCE_S) == pytest.approx(3.0)


def test_reference_job_is_fixed_work_and_calibrate_restores_affinity():
    assert reference_job() == reference_job()
    before = os.sched_getaffinity(0)
    assert calibrate(min(before)) > 0.0
    assert os.sched_getaffinity(0) == before


class _Toy:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1

    async def slow(self):
        await asyncio.sleep(0)
        return self.inner()


def test_tracer_records_parents_and_restores_on_close():
    clock = iter(float(i) for i in range(100))
    originals = (_Toy.outer, _Toy.inner, _Toy.slow)
    tracer = Tracer(clock=lambda: next(clock))
    try:
        tracer.wrap(_Toy, "outer", "outer")
        tracer.wrap(_Toy, "inner", "inner")
        tracer.wrap(_Toy, "slow", "slow")
        assert _Toy().outer() == 2
        assert asyncio.run(_Toy().slow()) == 1
        spans = tracer.spans()
    finally:
        tracer.close()
    assert [(n, p) for n, _, _, p in spans] == [
        ("outer", NO_PARENT), ("inner", 0), ("slow", NO_PARENT), ("inner", 2),
    ]
    assert all(end > start for _, start, end, _ in spans)
    assert (_Toy.outer, _Toy.inner, _Toy.slow) == originals


# -- wrappers change no behaviour ----------------------------------------------------


def _grid_cells():
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_grid

    grid = run_grid(
        ("normal", "colmena_xtb"),
        ("greedy_bucketing", "exhaustive_bucketing"),
        ExperimentConfig(n_tasks=30, n_workers=6, workflow_seed=4),
    )
    return {
        key: (res.n_tasks, res.n_attempts, [res.awe(r) for r in res.ledger.resources])
        for key, res in grid.cells.items()
    }


def test_traced_grid_matches_untraced_grid():
    plain = _grid_cells()
    tracer = Tracer()
    probe = LayerProbe(tracer)
    install_sim(tracer, probe)
    try:
        traced = _grid_cells()
        summary = daemon_summary(tracer, probe)
    finally:
        tracer.close()
    assert traced == plain
    assert summary["dispatches"] > 0
    assert summary["counts"]["sim.can_fit"] >= summary["counts"]["sim.find_fit"] > 0
    assert summary["dispatch_s"] > 0


def _service_responses(ops, data_dir):
    from repro.service import AllocationService, ServiceConfig

    async def go():
        service = AllocationService(ServiceConfig(data_dir=str(data_dir), durability="none"))
        await service.start()
        try:
            single = [await service.submit(op) for op in ops[:40]]
            batched = await service.submit_batch(ops[40:])
        finally:
            await service.stop()
        return single + batched

    return asyncio.run(go())


def _hot_ops():
    ops = []
    for task in hot_tasks(5, 60):
        ops.append({"op": "allocate", "category": task.category, "task_id": task.task_id})
        ops.append({"op": "record", "category": task.category, "task_id": task.task_id,
                    "peaks": task.peaks})
    return ops


def test_traced_service_matches_untraced_service(tmp_path):
    ops = _hot_ops()
    plain = _service_responses(ops, tmp_path / "plain")
    tracer = Tracer()
    probe = LayerProbe(tracer)
    install_service(tracer, probe)
    try:
        traced = _service_responses(ops, tmp_path / "traced")
        summary = daemon_summary(tracer, probe)
    finally:
        tracer.close()
    assert traced == plain
    # In process there is no wire front end: the service validates each op once.
    assert summary["validated_ops"] == len(ops)
    assert summary["calls"]["core.apply_op"] == len(ops)
    # Every op was logged by some group commit, and every submission was
    # matched to the commit that served it.
    assert summary["counts"]["checkpoint.entries"] == len(ops)
    assert summary["queue_wait_ops"] == len(ops)
    assert summary["queue_wait_s"] >= 0.0
