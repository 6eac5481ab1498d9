"""Determinism of the parallel experiment grid.

``run_grid(jobs=N)`` fans cells out over spawn-based worker processes;
every cell rebuilds its workflow and allocator from the shared config
seeds, so the results must be identical — cell for cell, bit for bit —
to the serial path.
"""

import dataclasses
import json

import pytest

from repro.core.resources import resource
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_grid

WORKFLOWS = ("uniform", "bimodal")
ALGORITHMS = ("max_seen", "greedy_bucketing", "exhaustive_bucketing")


def _config():
    return ExperimentConfig(n_tasks=60, n_workers=6)


def _assert_grids_identical(a, b):
    assert set(a.cells) == set(b.cells)
    for key in a.cells:
        sa, sb = a.summary(*key), b.summary(*key)
        # EfficiencySummary is a plain dataclass of floats/ints/mappings:
        # field-for-field equality is bit-identity of the AWE values.
        assert dataclasses.asdict(sa) == dataclasses.asdict(sb), key
        ra, rb = a.cells[key], b.cells[key]
        assert ra.n_attempts == rb.n_attempts
        assert ra.n_failed_attempts == rb.n_failed_attempts
        assert ra.makespan == rb.makespan


@pytest.mark.slow
def test_parallel_grid_matches_serial_cell_for_cell():
    config = _config()
    serial = run_grid(
        workflows=WORKFLOWS, algorithms=ALGORITHMS, config=config, jobs=1
    )
    parallel = run_grid(
        workflows=WORKFLOWS, algorithms=ALGORITHMS, config=config, jobs=4
    )
    _assert_grids_identical(serial, parallel)


@pytest.mark.slow
def test_parallel_grid_is_self_deterministic():
    config = _config()
    first = run_grid(
        workflows=("uniform",), algorithms=("exhaustive_bucketing",), config=config, jobs=2
    )
    second = run_grid(
        workflows=("uniform",), algorithms=("exhaustive_bucketing",), config=config, jobs=2
    )
    _assert_grids_identical(first, second)


def test_invalid_jobs_rejected():
    with pytest.raises(ValueError):
        run_grid(workflows=("uniform",), algorithms=("max_seen",), jobs=0)


@pytest.mark.slow
def test_parallel_grid_results_are_byte_identical_to_serial():
    """Results pickled back from spawn workers carry the canonical
    resources and serialize to exactly the serial grid's bytes."""
    config = ExperimentConfig(n_tasks=40, n_workers=4)
    kwargs = dict(workflows=("bimodal",), algorithms=ALGORITHMS[1:], config=config)
    serial = run_grid(jobs=1, **kwargs)
    parallel = run_grid(jobs=2, **kwargs)

    def dump(grid):
        docs = {}
        for key, result in sorted(grid.cells.items()):
            state = result.state_dict()
            state.pop("wall_clock_seconds")  # the one non-reproducible field
            docs["/".join(key)] = state
        return json.dumps(docs, sort_keys=True).encode()

    assert dump(parallel) == dump(serial)
    for result in parallel.cells.values():
        assert all(res is resource(res.key) for res in result.ledger.resources)
