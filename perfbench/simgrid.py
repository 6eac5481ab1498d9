"""The sim-paper workload: the paper's grid, serially, in this process.

Runs ``run_grid`` over the 7 ``PAPER_WORKFLOWS`` x {greedy, exhaustive}
bucketing with the paper's ``ExperimentConfig`` (20 workers, 600 s
ramp-up, allocator and pool seeds pinned) at ``N_TASKS`` tasks per
synthetic workflow.  Almost all of the time goes to ``repro.sim``
dispatch and little to the allocator, which is why this workload is the
one that can show a simulator gain and the one where an allocator gain
should barely move.

A run builds ``INSTANCES`` grid instances, each with its own workflow
seed derived from ``--seed``, and runs every cell of every instance once
per round, for one round per ``ROUND_S`` of ``--seconds`` (at least
``MIN_ROUNDS``).  Every round repeats identical inputs.  Each cell's
times are scaled to the reference host by the reference job timed just
before and after it (see perfbench.speed), and the reported times sum
each cell's median round.  Instance 0 is also run once with
``checkpoint_dir`` set, and ``recover_s`` is the median read of that
complete journal back into results (``recover_jsonl`` plus
``SimulationResult.from_state``), one after every cell: the read side
of ``run_grid(resume=True)`` without the journal rewrite, whose fsync of
the whole file would time the shared disk instead.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from perfbench import BenchError
from perfbench.layers import LayerProbe, daemon_summary, install_sim, zero_layer_metrics
from perfbench.spans import Tracer, percentile, residual
from perfbench.speed import calibrate, scaled

__all__ = ["run_sim_paper", "N_TASKS", "ALGORITHMS"]

N_TASKS = 100
ALGORITHMS = ("greedy_bucketing", "exhaustive_bucketing")
#: Grid instances (workflow seeds) per run: a seed's workflows can cost
#: up to twice as much to simulate as another's, so a run averages several.
INSTANCES = 4
MIN_ROUNDS = 2
#: Seconds of ``--seconds`` per round.  A round of 4 instances takes
#: 7-10 s on a 2-vCPU x86 VM, so a run measures about twice ``--seconds``.
ROUND_S = 5.0
TRACED_PASSES = 2
SETUP_SPAWNS = 9
#: File name of the grid journal inside ``checkpoint_dir`` (see repro.experiments.runner).
JOURNAL_NAME = "journal.jsonl"

_SETUP_CODE = (
    "import sys\n"
    "from repro.experiments.config import PAPER_WORKFLOWS, make_workflow\n"
    "for name in PAPER_WORKFLOWS:\n"
    "    make_workflow(name, n_tasks=int(sys.argv[1]), seed=int(sys.argv[2]))\n"
)


class AllocatorClock:
    """Counts allocator calls and times ``allocate``: the decision a manager blocks on."""

    def __init__(self) -> None:
        from repro.core.allocator import TaskOrientedAllocator

        self.cls = TaskOrientedAllocator
        self.originals = {
            name: TaskOrientedAllocator.__dict__[name]
            for name in ("allocate", "allocate_retry", "observe")
        }
        self.allocate_s: List[float] = []
        self.calls = 0
        clock = time.perf_counter
        timings = self.allocate_s
        allocate = self.originals["allocate"]

        def timed_allocate(*args, **kwargs):
            start = clock()
            try:
                return allocate(*args, **kwargs)
            finally:
                timings.append(clock() - start)

        def counted(original):
            def wrapper(*args, **kwargs):
                self.calls += 1
                return original(*args, **kwargs)

            return wrapper

        TaskOrientedAllocator.allocate = timed_allocate
        TaskOrientedAllocator.allocate_retry = counted(self.originals["allocate_retry"])
        TaskOrientedAllocator.observe = counted(self.originals["observe"])

    def ops(self) -> int:
        return self.calls + len(self.allocate_s)

    def close(self) -> None:
        for name, original in self.originals.items():
            setattr(self.cls, name, original)


def _setup_once(root: str, seed: int, calibrations: List[float]) -> float:
    """Seconds a fresh process takes to import the program and build the workflows.

    The reference job is timed before and after, into ``calibrations``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    calibrations.append(calibrate())
    start = time.perf_counter()
    # A plain blocking wait: a wait with a timeout polls every 50 ms,
    # which would round every spawn up to the next poll.
    code = subprocess.Popen(
        [sys.executable, "-c", _SETUP_CODE, str(N_TASKS), str(seed)], cwd=root, env=env
    ).wait()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise BenchError(f"the set-up process exited {code}")
    calibrations.append(calibrate())
    return elapsed


def _cells(results) -> Dict[Tuple[str, str], Tuple[int, int, Tuple[float, ...]]]:
    """Per cell: tasks, quarantined, AWE per resource — what must not change."""
    return {
        key: (
            result.n_tasks,
            result.n_quarantined,
            tuple(result.awe(res) for res in result.ledger.resources),
        )
        for key, result in results.items()
    }


def _read_journal(path: str):
    """The journaled cell results, decoded the way a resumed grid decodes them."""
    import repro.checkpoint as checkpoint
    from repro.sim.manager import SimulationResult

    rows, recovery = checkpoint.recover_jsonl(path, quarantine=False)
    if recovery is not None:
        raise BenchError(f"grid journal is corrupt: {recovery.reason}")
    return {
        (row["workflow"], row["algorithm"]): SimulationResult.from_state(row["result"])
        for row in rows[1:]
    }


def _check_cells(cells, expected_tasks: Dict[str, int]) -> int:
    """Every cell completes every task with finite AWE in (0, 1]; returns failures."""
    failed = 0
    for (workflow, _), (n_tasks, quarantined, awes) in cells.items():
        ok = n_tasks == expected_tasks[workflow] and quarantined == 0
        ok = ok and all(math.isfinite(a) and 0.0 < a <= 1.0 for a in awes)
        failed += not ok
    return failed


def _timed_read(journal: str, reference) -> float:
    """Seconds to read the grid journal back; the results must match the run.

    One read follows every cell run, so the median read samples the
    whole run rather than one moment of a shared machine.  Each starts
    from a collected heap, so a full collection inside the ~25 ms read
    does not depend on what ran before it.
    """
    gc.collect()
    start = time.perf_counter()
    results = _read_journal(journal)
    elapsed = time.perf_counter() - start
    if _cells(results) != reference:
        raise BenchError("the grid read back from its journal differs from the run")
    return elapsed


def instance_seeds(seed: int) -> List[int]:
    """Workflow seeds of the INSTANCES grid instances of one run."""
    return [
        int(np.random.SeedSequence([seed, i]).generate_state(1)[0] % (1 << 31))
        for i in range(INSTANCES)
    ]


def run_sim_paper(root: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    # One logical CPU for this process, its set-up children and every
    # reference job, so that the reference job times the CPU the grid ran on.
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(affinity)})
    try:
        return _run_sim_paper(root, seed, seconds, trace)
    finally:
        os.sched_setaffinity(0, affinity)


def _run_sim_paper(root: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    seeds = instance_seeds(seed)
    rounds = max(MIN_ROUNDS, round(seconds / ROUND_S))
    setup_calibrations: List[float] = []
    setup = [_setup_once(root, seeds[0], setup_calibrations) for _ in range(SETUP_SPAWNS)]

    from repro.experiments.config import PAPER_WORKFLOWS, ExperimentConfig, make_workflow
    from repro.experiments.runner import run_grid

    journal_dir = os.path.join(root, ".perfbench_run", f"sim-paper-{os.getpid()}")
    shutil.rmtree(journal_dir, ignore_errors=True)
    configs = [ExperimentConfig(n_tasks=N_TASKS, workflow_seed=s) for s in seeds]

    try:
        journaled = configs[0].with_(checkpoint_dir=journal_dir)
        reference = _cells(run_grid(PAPER_WORKFLOWS, ALGORITHMS, journaled).cells)
        journal = os.path.join(journal_dir, JOURNAL_NAME)
        # Per instance: the cells of its first round, which every later
        # round must repeat exactly, and the task count of each workflow.
        results: List[Dict[Tuple[str, str], Any]] = [reference] + [{} for _ in configs[1:]]
        expected = [
            {
                name: len(make_workflow(name, n_tasks=N_TASKS, seed=config.workflow_seed))
                for name in PAPER_WORKFLOWS
            }
            for config in configs
        ]
        clock = AllocatorClock()
        # (instance, cell) -> one row per round: wall, CPU and journal read
        # seconds scaled by the reference job timed before and after them,
        # the same three as measured, tasks and allocator ops.
        timings: Dict[Tuple[int, Tuple[str, str]], List[Tuple[float, ...]]] = {
            (index, key): [] for index in range(len(configs)) for key in reference
        }
        calibrations = [calibrate()]
        try:
            for _ in range(rounds):
                for index, config in enumerate(configs):
                    cells = {}
                    for key in reference:
                        ops0, cpu0, wall0 = clock.ops(), time.process_time(), time.perf_counter()
                        cells.update(_cells(run_grid((key[0],), (key[1],), config).cells))
                        wall = time.perf_counter() - wall0
                        cpu = time.process_time() - cpu0
                        ops = clock.ops() - ops0
                        read = _timed_read(journal, reference)
                        calibrations.append(calibrate())
                        timings[index, key].append((
                            *(scaled(t, *calibrations[-2:]) for t in (wall, cpu, read)),
                            wall, cpu, read, cells[key][0], ops,
                        ))
                    failed = _check_cells(cells, expected[index])
                    if failed:
                        raise BenchError(
                            f"{failed} grid cells did not complete every task with AWE in (0,1]"
                        )
                    if not results[index]:
                        results[index] = cells
                    elif cells != results[index]:
                        raise BenchError(f"a repeated grid instance {index} changed its results")
        finally:
            clock.close()

        tasks, ops = (sum(rows[0][i] for rows in timings.values()) for i in (6, 7))
        awes = [a for cells in results for _, _, cell_awes in cells.values() for a in cell_awes]

        def summary(offset: int) -> Dict[str, float]:
            # Each cell's median round, summed over cells and instances.
            wall, cpu = (
                sum(statistics.median(row[offset + i] for row in rows) for rows in timings.values())
                for i in (0, 1)
            )
            return {
                "setup_s": statistics.median(setup),
                "sim_tasks_per_s": tasks / wall,
                "awe_mean": statistics.fmean(awes),
                "server_cpu_ms_per_op": 1e3 * cpu / ops,
                "ops_per_s": ops / wall,
                "recover_s": statistics.median(
                    row[offset + 2] for rows in timings.values() for row in rows
                ),
            }

        # A cell is scaled by the reference job timed just before and
        # after it, the set-up spawns by all the reference job times
        # around them.
        metrics, measured = summary(0), summary(3)
        metrics["setup_s"] = scaled(measured["setup_s"], *setup_calibrations)
        # The journaled grid, every timed cell and the journal read after it.
        n_cells = len(reference) * (1 + 2 * rounds * len(configs))
        out: Dict[str, Any] = {
            "attempted": n_cells,
            "failed": 0,
            "end_to_end": metrics,
            "unscaled": measured,
        }
        if trace:
            out["per_layer"] = _traced(
                lambda key: _cells(run_grid((key[0],), (key[1],), configs[0]).cells),
                reference,
                journal,
            )
            out["per_layer"].update({
                "alloc_p50_ms": 1e3 * statistics.median(clock.allocate_s),
                "alloc_p99_ms": 1e3 * percentile(clock.allocate_s, 99),
            })
            out["attempted"] += len(reference) * (2 * TRACED_PASSES + 1)
        return out
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(journal_dir))
        except OSError:
            pass


def _traced(run_cell, reference, journal: str) -> Dict[str, float]:
    """Per-layer metrics of instance 0, each cell run untraced then traced.

    Alternating the two runs cell by cell keeps machine drift out of
    ``trace.overhead_frac``; a traced journal read times its decode.
    """
    tracer = Tracer()
    probe = LayerProbe(tracer)
    plain_s = traced_s = 0.0
    for _ in range(TRACED_PASSES):
        for key in reference:
            start = time.perf_counter()
            plain = run_cell(key)
            plain_s += time.perf_counter() - start
            install_sim(tracer, probe)
            try:
                start = time.perf_counter()
                traced = run_cell(key)
                traced_s += time.perf_counter() - start
            finally:
                tracer.close()
            if traced != plain or traced != {key: reference[key]}:
                raise BenchError(f"the traced run of cell {key} differs from the untraced one")
    summary = daemon_summary(tracer, probe)
    tracer.reset()
    install_sim(tracer, probe)
    try:
        _read_journal(journal)
    finally:
        tracer.close()
    counts = summary["counts"]
    dispatches = max(1, summary["dispatches"])
    row = zero_layer_metrics()
    row.update({
        "sim.dispatch_share": summary["dispatch_s"] / traced_s,
        "sim.fit_probes_per_dispatch": counts.get("sim.find_fit", 0) / dispatches,
        "sim.can_fit_calls_per_dispatch": counts.get("sim.can_fit", 0) / dispatches,
        "core.share": summary["allocator_union_s"] / traced_s,
        "core.first_touch_us": summary["first_touch_us"],
        "core.allocate_us_p50": summary["allocate_us_p50"],
        "core.observe_us_p50": summary["observe_us_p50"],
        "core.records_per_category_p50": summary["records_per_category_p50"],
        "recover.decode_s": sum(tracer.durations("recover.decode")),
        "trace.overhead_frac": traced_s / plain_s - 1.0,
        "residual_frac": residual(traced_s, summary["top_level_union_s"])[1],
    })
    return row
