"""Seeded task streams for the service workloads, and what was really sent.

The benchmark owns these generators so that edits to other load
scripts in the repository cannot change its inputs.  Every stream is a
pure function of ``(seed, size)``: the same seed gives the same tasks,
categories, peaks, retry counts and arrival times.

A *task* is what a workflow manager submits: one ``allocate``, then
``retries`` ``allocate_retry`` calls (each growing the previous
allocation of one exhausted resource), then one ``record`` of the
task's true peaks.  :class:`TrafficTally` counts what the client
actually sent, and :func:`check_regime` refuses a run whose traffic is
not in the regime its workload claims.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "RESOURCE_KEYS",
    "Task",
    "wide_tasks",
    "hot_tasks",
    "TrafficTally",
    "check_regime",
    "REGIMES",
]

RESOURCE_KEYS = ("cores", "memory", "disk")
#: Largest value of each resource a task may peak at (one paper worker).
_CEILING = {"cores": 16.0, "memory": 60_000.0, "disk": 60_000.0}
#: Mean ``allocate_retry`` calls per task (Poisson).
RETRY_MEAN = 0.08

# Stream tags keep the workloads' generators independent for one seed.
_WIDE, _HOT = 1, 2


@dataclass(frozen=True)
class Task:
    task_id: int
    category: str
    peaks: Dict[str, float]
    retries: int
    #: Which resource each retry reports as exhausted.
    exhausted: Tuple[str, ...]
    #: Due time of the first ``allocate``, seconds after load start.
    arrival: float
    #: Pause between a response and the task's next request, seconds.
    gap: float


def _profiles(rng: np.random.Generator, n: int) -> np.ndarray:
    """Per-category median peaks, shape ``(n, 3)`` in RESOURCE_KEYS order."""
    cores = rng.uniform(0.5, 8.0, n)
    memory = np.exp(rng.normal(np.log(2_000.0), 0.8, n))
    disk = np.exp(rng.normal(np.log(1_500.0), 0.8, n))
    return np.stack([cores, memory, disk], axis=1)


def _tasks(
    rng: np.random.Generator,
    names: Sequence[str],
    weights: np.ndarray,
    arrivals: np.ndarray,
    gap_mean: float,
) -> List[Task]:
    n = len(arrivals)
    profiles = _profiles(rng, len(names))
    picks = rng.choice(len(names), size=n, p=weights / weights.sum())
    noise = np.exp(rng.normal(0.0, 0.3, (n, 3)))
    retries = rng.poisson(RETRY_MEAN, n)
    gaps = rng.exponential(gap_mean, n)
    tasks = []
    for i in range(n):
        row = profiles[picks[i]] * noise[i]
        peaks = {
            key: float(min(max(value, 0.01), _CEILING[key]))
            for key, value in zip(RESOURCE_KEYS, row)
        }
        exhausted = tuple(
            RESOURCE_KEYS[int(k)] for k in rng.integers(0, 3, int(retries[i]))
        )
        tasks.append(
            Task(
                task_id=i + 1,
                category=names[picks[i]],
                peaks=peaks,
                retries=int(retries[i]),
                exhausted=exhausted,
                arrival=float(arrivals[i]),
                gap=float(gaps[i]),
            )
        )
    return tasks


def wide_tasks(
    seed: int, ops_per_s: float, seconds: float, n_categories: int = 4000, zipf_s: float = 1.1
) -> List[Task]:
    """Open-loop Poisson task arrivals over Zipf-popular categories.

    The task rate is set so the expected op rate (allocate + retries +
    record) is ``ops_per_s``.  The task count is fixed at rate x
    ``seconds`` and, given the count, Poisson arrivals are independent
    uniform times in ``[0, seconds)``: every seed offers the same load.
    """
    rng = np.random.default_rng([seed, _WIDE])
    n_tasks = round(ops_per_s / (2.0 + RETRY_MEAN) * seconds)
    arrivals = np.sort(rng.uniform(0.0, seconds, n_tasks))
    order = rng.permutation(n_categories)
    names = [f"wide-{int(k):04d}" for k in order]
    weights = 1.0 / np.arange(1, n_categories + 1) ** zipf_s
    return _tasks(rng, names, weights, arrivals, gap_mean=0.02)


def hot_tasks(seed: int, n_tasks: int, n_categories: int = 16) -> List[Task]:
    """Closed-loop tasks concentrated on a few hot categories (no arrival times)."""
    rng = np.random.default_rng([seed, _HOT])
    names = [f"hot-{k:02d}-{int(rng.integers(1 << 20)):06x}" for k in range(n_categories)]
    weights = 1.0 / np.arange(1, n_categories + 1) ** 0.5
    return _tasks(rng, names, weights, np.zeros(n_tasks), gap_mean=0.0)


class TrafficTally:
    """What the client actually sent: op mix and records per category."""

    def __init__(self) -> None:
        self.ops: Counter = Counter()
        self.records: Counter = Counter()

    def sent(self, doc: Dict) -> None:
        self.ops[doc["op"]] += 1
        if doc["op"] == "record":
            self.records[doc["category"]] += 1

    def profile(self) -> Dict[str, float]:
        counts = sorted(self.records.values()) or [0]
        total = sum(self.ops.values())
        return {
            "ops": total,
            "allocate_frac": self.ops["allocate"] / total if total else 0.0,
            "retry_frac": self.ops["allocate_retry"] / total if total else 0.0,
            "record_frac": self.ops["record"] / total if total else 0.0,
            "categories": len(self.records),
            "records_p50": float(statistics.median(counts)),
            "records_p90": float(counts[min(len(counts) - 1, int(0.9 * len(counts)))]),
            "records_max": float(counts[-1]),
        }


#: Bounds each workload's traffic must fall in: (key, low, high).
REGIMES: Dict[str, Tuple[Tuple[str, float, float], ...]] = {
    "wide": (
        ("categories", 100, 4000),
        ("records_p50", 1, 3),
        ("records_p90", 1, 10),
        ("retry_frac", 0.01, 0.08),
    ),
    "hot": (
        ("categories", 16, 16),
        ("records_p50", 200, float("inf")),
        ("retry_frac", 0.01, 0.08),
    ),
}


def check_regime(profile: Dict[str, float], regime: str) -> List[str]:
    """Violations of ``regime`` by a traffic profile (empty when in regime)."""
    problems = []
    for key, low, high in REGIMES[regime]:
        if not low <= profile[key] <= high:
            problems.append(f"{regime} traffic {key}={profile[key]:g} outside [{low:g}, {high:g}]")
    return problems
