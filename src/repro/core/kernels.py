"""Streaming partition-scoring kernels for the million-record hot path.

:func:`repro.core.cost.exhaustive_cost` scores one bucket configuration
by materializing the full ``T[i][j]`` waste table as a numpy matrix and
contracting it with two ``@`` products.  At the paper's bucket cap
(``K <= 10``) the arrays are tiny, so per-call numpy dispatch overhead —
not arithmetic — dominates: profiling ``exhaustive_break_indices`` at
n = 10^6 (docs/PERFORMANCE.md) shows ~0.5 ms per decision spent building
``BucketState`` objects and K x K tables for configurations that are
immediately discarded.

This module provides the scoring path the incremental partition engine
(:class:`repro.core.exhaustive.IncrementalExhaustivePartition`) and the
full search share:

* :func:`partition_stats` — per-bucket (reps, probs, estimates) read as
  *scalars* straight off the :class:`~repro.core.records.RecordList`
  prefix buffers, in exactly the float operation order
  :class:`~repro.core.buckets.BucketState` uses, so the stats (and any
  partition choice made from them) are bit-identical to building the
  state first.
* :func:`partition_waste` — expected waste ``W_B`` of a configuration,
  dispatching between two tiers on profile evidence:

  - a **scalar** pure-Python kernel (the canonical rounding order; the
    paper-exact ``K <= 10`` regime, where it beats the numpy
    implementation ~5x by skipping array dispatch entirely);
  - a **vectorized** O(K) reformulation for wide partitions
    (``K >= VECTOR_KERNEL_MIN_BUCKETS``), using the suffix-ratio
    identity ``ws(j) = ws(j+1) * suffix(j)/suffix(j+1) + p_j r_j`` to
    collapse the per-row recurrence into cumulative sums.  It
    re-associates the arithmetic, so it is only selected far above the
    paper's bucket cap and never on the paper-exact path.

The scalar kernel's accumulation order differs from the numpy
``probs @ T @ probs`` contraction by a few ulps (measured < 5e-16
relative over randomized configurations); ``repro.core.cost`` keeps the
table-building implementation as the reference and the test suite
cross-checks the kernels against it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.records import RecordList

__all__ = [
    "VECTOR_KERNEL_MIN_BUCKETS",
    "partition_stats",
    "partition_waste",
    "partition_waste_batch",
    "partition_waste_scalar",
    "partition_waste_vector",
    "waste_kernel_name",
]

#: Bucket count at or above which the vectorized kernel is selected.
#: Profile evidence (docs/PERFORMANCE.md): below ~32 buckets the numpy
#: call overhead exceeds the scalar loop's arithmetic; the paper caps
#: K at 10, so the paper-exact path always takes the scalar tier.
VECTOR_KERNEL_MIN_BUCKETS = 32


def partition_stats(
    records: RecordList, break_indices: Sequence[int]
) -> Tuple[List[float], List[float], List[float]]:
    """Per-bucket (reps, probs, estimates) for a candidate partition.

    Reads the prefix-sum buffers as Python scalars — no array snapshot,
    no intermediate ``Bucket`` objects — in the exact operation order of
    :class:`~repro.core.buckets.BucketState`, so feeding the winning
    configuration back into a ``BucketState`` reproduces these floats
    bit-for-bit.  O(K) for K buckets, independent of the record count.
    """
    n = len(records)
    sp = records._sp_buf
    svp = records._svp_buf
    vals = records._values_buf
    total_sig = float(sp[n - 1])
    reps: List[float] = []
    probs: List[float] = []
    estimates: List[float] = []
    below_sig = 0.0
    below_sigval = 0.0
    for hi in break_indices:
        s = float(sp[hi])
        sv = float(svp[hi])
        sig = s - below_sig
        rep = float(vals[hi])
        estimate = (sv - below_sigval) / sig
        if estimate > rep:
            # Prefix-sum cancellation can push the mean a few ulps past
            # the bucket max; clamp exactly as BucketState does.
            estimate = rep
        reps.append(rep)
        probs.append(sig / total_sig)
        estimates.append(estimate)
        below_sig = s
        below_sigval = sv
    return reps, probs, estimates


def partition_waste_scalar(
    reps: Sequence[float], probs: Sequence[float], estimates: Sequence[float]
) -> float:
    """Expected waste ``W_B`` (Section IV-C), scalar canonical kernel.

    Walks the ``T[i][j]`` recurrence without materializing the table:
    for each row *i* the weighted suffix sum ``ws = sum_j p_j T[i][j]``
    is first accumulated over the direct-fragmentation columns
    ``j >= i`` (left to right), then extended right-to-left through the
    failure columns ``j < i`` — after which ``ws`` *is* the full row
    contraction, so ``W_B = sum_i p_i ws_i``.  This fixed accumulation
    order is the canonical rounding both the full search and the
    incremental engine share.
    """
    n = len(reps)
    suffix = [0.0] * (n + 1)
    acc = 0.0
    for j in range(n - 1, -1, -1):
        acc += probs[j]
        suffix[j] = acc
    total = 0.0
    for i in range(n):
        est = estimates[i]
        ws = 0.0
        for j in range(i, n):
            ws += probs[j] * (reps[j] - est)
        for j in range(i - 1, -1, -1):
            ws += probs[j] * (reps[j] + ws / suffix[j + 1])
        total += probs[i] * ws
    return total


def partition_waste_vector(
    reps: np.ndarray, probs: np.ndarray, estimates: np.ndarray
) -> float:
    """Vectorized O(K) reformulation of :func:`partition_waste_scalar`.

    The failure-column recurrence ``ws(j) = ws(j+1) + p_j (r_j +
    ws(j+1)/suffix(j+1))`` telescopes: dividing by ``suffix(j)`` turns it
    into a plain prefix sum of ``p_j r_j / suffix(j)``, so every row's
    full contraction is ``suffix(0) * (ws0_i / suffix(i) + C(i))`` with
    one cumsum shared across rows.  Re-associates the float arithmetic
    relative to the scalar kernel — selected only for partitions at or
    above :data:`VECTOR_KERNEL_MIN_BUCKETS` buckets, beyond the
    paper-exact regime.
    """
    reps = np.asarray(reps, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    estimates = np.asarray(estimates, dtype=np.float64)
    n = reps.size
    pr = probs * reps
    # suffix[i] = sum_{k >= i} probs[k]; suffix_pr likewise for p*r.
    suffix = np.concatenate([np.cumsum(probs[::-1])[::-1], [0.0]])
    suffix_pr = np.cumsum(pr[::-1])[::-1]
    # Row seed: ws0[i] = sum_{j >= i} p_j (r_j - est_i).
    ws0 = suffix_pr - estimates * suffix[:n]
    # Exclusive prefix C[i] = sum_{j < i} p_j r_j / suffix[j].
    contrib = np.empty(n, dtype=np.float64)
    contrib[0] = 0.0
    np.cumsum(pr[: n - 1] / suffix[: n - 1], out=contrib[1:])
    row_totals = suffix[0] * (ws0 / suffix[:n] + contrib)
    return float(np.dot(probs, row_totals))


def partition_waste_batch(
    reps: np.ndarray,
    probs: np.ndarray,
    estimates: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Expected waste of *many* configurations in one vectorized pass.

    Inputs are the per-bucket stats of all configurations concatenated
    flat (``lengths[c]`` buckets each).  Each configuration is padded to
    the widest by replicating its last bucket with probability zero;
    the padded entries produce ``0/0`` artifacts that are masked out of
    the final contraction.  Rounds like :func:`partition_waste_vector`
    (the suffix-ratio identity) in every row.

    This is the scorer behind
    :func:`repro.core.exhaustive.select_best_partition`: scoring the
    paper's ~10 configurations per decision costs a fixed set of numpy
    ops on a C x K matrix instead of ~C K^2 interpreted float ops, which
    is what pushes the incremental allocation decision at n = 10^6 past
    the 10x bar over the full re-search (docs/PERFORMANCE.md).
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    n_configs = lengths.size
    width = int(lengths.max())
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    cols = np.arange(width)
    # Index matrix into the flat arrays; padding replicates the last
    # bucket of each configuration (probability forced to zero below).
    idx = offsets[:, None] + np.minimum(cols, lengths[:, None] - 1)
    valid = cols < lengths[:, None]
    p = np.where(valid, probs[idx], 0.0)
    r = reps[idx]
    e = estimates[idx]
    pr = p * r
    # suffix[c, j] = sum_{k >= j} p[c, k], with a trailing zero column.
    suffix = np.zeros((n_configs, width + 1))
    suffix[:, :width] = np.cumsum(p[:, ::-1], axis=1)[:, ::-1]
    suffix_pr = np.cumsum(pr[:, ::-1], axis=1)[:, ::-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        ws0 = suffix_pr - e * suffix[:, :width]
        contrib = np.zeros((n_configs, width))
        if width > 1:
            np.cumsum(pr[:, :-1] / suffix[:, : width - 1], axis=1, out=contrib[:, 1:])
        row_totals = suffix[:, :1] * (ws0 / suffix[:, :width] + contrib)
        # Padded columns carry 0/0 artifacts; they have p == 0 and are
        # excluded from the contraction explicitly.
        return np.where(valid, p * row_totals, 0.0).sum(axis=1)


def waste_kernel_name(n_buckets: int) -> str:
    """Which tier :func:`partition_waste` picks for ``n_buckets``."""
    return "vector" if n_buckets >= VECTOR_KERNEL_MIN_BUCKETS else "scalar"


def partition_waste(
    reps: Sequence[float], probs: Sequence[float], estimates: Sequence[float]
) -> float:
    """Expected waste ``W_B`` of a configuration, auto-dispatched.

    Scalar below :data:`VECTOR_KERNEL_MIN_BUCKETS` buckets; the re-associated
    vectorized kernel at or above it.
    """
    n = len(reps)
    if n >= VECTOR_KERNEL_MIN_BUCKETS:
        return partition_waste_vector(
            np.asarray(reps, dtype=np.float64),
            np.asarray(probs, dtype=np.float64),
            np.asarray(estimates, dtype=np.float64),
        )
    return partition_waste_scalar(reps, probs, estimates)
