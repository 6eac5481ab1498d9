"""The partition-scoring kernels vs their table-building reference.

:mod:`repro.core.cost` keeps the paper-literal ``probs @ T @ probs``
contraction as the reference implementation; the streaming kernels in
:mod:`repro.core.kernels` must agree with it to float tolerance (the
accumulation orders differ by design) and with each other, and
:func:`partition_stats` must agree with :class:`BucketState` *bit for
bit* — the allocator swaps freely between the two.
"""

import math

import numpy as np
import pytest

from repro.core.buckets import BucketState
from repro.core.cost import exhaustive_cost
from repro.core.exhaustive import evenly_spaced_break_indices
from repro.core.kernels import (
    VECTOR_KERNEL_MIN_BUCKETS,
    partition_stats,
    partition_waste,
    partition_waste_batch,
    partition_waste_scalar,
    partition_waste_vector,
    waste_kernel_name,
)
from repro.core.records import RecordList


def make_records(n, seed=0):
    rng = np.random.default_rng(seed)
    rl = RecordList()
    for i, value in enumerate(rng.lognormal(mean=5.0, sigma=1.5, size=n)):
        rl.add(float(value), significance=float(i + 1), task_id=i)
    return rl


def random_partitions(records, rng, count=6):
    """Random valid partitions of ``records``, various widths."""
    n = len(records)
    partitions = []
    for _ in range(count):
        k = int(rng.integers(1, min(n, 12) + 1))
        interior = sorted(rng.choice(n - 1, size=k - 1, replace=False).tolist()) if k > 1 else []
        partitions.append([int(i) for i in interior] + [n - 1])
    return partitions


# -- waste kernels vs the cost-table reference --------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_scalar_kernel_matches_exhaustive_cost(seed):
    records = make_records(40, seed=seed)
    rng = np.random.default_rng(100 + seed)
    for breaks in random_partitions(records, rng):
        reps, probs, estimates = partition_stats(records, breaks)
        got = partition_waste_scalar(reps, probs, estimates)
        want = exhaustive_cost(
            np.asarray(reps), np.asarray(probs), np.asarray(estimates)
        )
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_vector_kernel_matches_scalar(seed):
    records = make_records(200, seed=seed)
    rng = np.random.default_rng(200 + seed)
    for breaks in random_partitions(records, rng, count=4):
        reps, probs, estimates = partition_stats(records, breaks)
        got = partition_waste_vector(
            np.asarray(reps), np.asarray(probs), np.asarray(estimates)
        )
        want = partition_waste_scalar(reps, probs, estimates)
        assert got == pytest.approx(want, rel=1e-9)


def test_batch_kernel_matches_per_config_scoring():
    records = make_records(300, seed=3)
    configs = [evenly_spaced_break_indices(records, k) for k in range(1, 11)]
    # Mixed widths, including the degenerate single-bucket configuration.
    flat_stats = [partition_stats(records, breaks) for breaks in configs]
    reps = np.concatenate([s[0] for s in flat_stats])
    probs = np.concatenate([s[1] for s in flat_stats])
    estimates = np.concatenate([s[2] for s in flat_stats])
    lengths = np.array([len(b) for b in configs])
    costs = partition_waste_batch(reps, probs, estimates, lengths)
    assert costs.shape == (len(configs),)
    for c, (r, p, e) in enumerate(flat_stats):
        assert costs[c] == pytest.approx(partition_waste_scalar(r, p, e), rel=1e-9)
        assert math.isfinite(costs[c])


def test_single_bucket_waste_is_rep_minus_estimate():
    records = make_records(25, seed=9)
    reps, probs, estimates = partition_stats(records, [len(records) - 1])
    assert probs == [1.0]
    expected = reps[0] - estimates[0]
    assert partition_waste_scalar(reps, probs, estimates) == pytest.approx(expected)
    assert partition_waste(reps, probs, estimates) == pytest.approx(expected)


# -- partition_stats vs BucketState: bit identity -----------------------------


@pytest.mark.parametrize("seed", range(4))
def test_partition_stats_bit_identical_to_bucket_state(seed):
    records = make_records(60, seed=seed)
    rng = np.random.default_rng(300 + seed)
    for breaks in random_partitions(records, rng):
        reps, probs, estimates = partition_stats(records, breaks)
        state = BucketState(records, breaks)
        assert reps == state.reps.tolist()  # exact, not approx
        assert probs == state.probs.tolist()
        assert estimates == state.estimates.tolist()


def test_trusted_bucket_state_equals_validated_state():
    """The hot-path trusted constructor adopts stats without changing them."""
    records = make_records(50, seed=7)
    breaks = evenly_spaced_break_indices(records, 8)
    stats = partition_stats(records, breaks)
    trusted = BucketState(records, list(breaks), stats=stats, trusted=True)
    validated = BucketState(records, list(breaks))
    assert trusted.reps.tolist() == validated.reps.tolist()
    assert trusted.probs.tolist() == validated.probs.tolist()
    assert trusted.estimates.tolist() == validated.estimates.tolist()
    assert [b.hi for b in trusted.buckets] == [b.hi for b in validated.buckets]


# -- dispatch -----------------------------------------------------------------


def test_waste_kernel_dispatch_boundaries():
    assert waste_kernel_name(1) == "scalar"
    assert waste_kernel_name(VECTOR_KERNEL_MIN_BUCKETS - 1) == "scalar"
    assert waste_kernel_name(VECTOR_KERNEL_MIN_BUCKETS) == "vector"
    assert waste_kernel_name(10_000) == "vector"


def test_partition_waste_dispatch_agrees_across_tiers():
    records = make_records(400, seed=11)
    # Wide partition: force >= VECTOR_KERNEL_MIN_BUCKETS buckets.
    step = len(records) // (VECTOR_KERNEL_MIN_BUCKETS + 4)
    breaks = list(range(step - 1, len(records) - 1, step)) + [len(records) - 1]
    assert len(breaks) >= VECTOR_KERNEL_MIN_BUCKETS
    reps, probs, estimates = partition_stats(records, breaks)
    auto = partition_waste(reps, probs, estimates)
    assert auto == pytest.approx(partition_waste_scalar(reps, probs, estimates), rel=1e-9)
    # At the paper's cap the dispatcher must round exactly like the
    # scalar kernel.
    narrow_breaks = evenly_spaced_break_indices(records, 10)
    r, p, e = partition_stats(records, narrow_breaks)
    assert partition_waste(r, p, e) == partition_waste_scalar(r, p, e)
