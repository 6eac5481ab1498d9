"""Greedy Bucketing (Algorithm 1 of the paper).

Greedy Bucketing answers one question per segment of the sorted record
list: *should this segment be broken into exactly two buckets, and if so
where?*  It scans every candidate break point, scoring each with the
four-case expected-waste formula of Section IV-B
(:func:`repro.core.cost.greedy_split_costs`).  If keeping the segment as
a single bucket (the candidate at the segment's upper end) wins, the
segment stays whole; otherwise the segment is split at the winner and
the procedure recurses into both halves.  Each split is therefore a
local optimum of the expected local resource waste.

The recursion is realized with an explicit stack: bucket counts stay
small in practice (the paper reports rarely above 10), but adversarial
record lists could split down to singleton segments and Python's
recursion limit must not decide the outcome.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Set

import numpy as np

from repro.core.base import BucketingAlgorithm, register_algorithm
from repro.core.cost import greedy_split_costs
from repro.core.records import RecordList

__all__ = [
    "GreedyBucketing",
    "IncrementalGreedyPartition",
    "greedy_break_indices",
    "greedy_break_indices_literal",
]


def greedy_break_indices(
    records: RecordList,
    lo: int = 0,
    hi: Optional[int] = None,
    max_buckets: Optional[int] = None,
) -> List[int]:
    """Compute Greedy Bucketing's bucket-end indices for ``records``.

    Follows Algorithm 1: for each segment, pick the candidate break with
    minimum expected waste; the segment's own upper end encodes
    "don't split".  ``max_buckets`` optionally caps the partition size
    (not part of the paper's algorithm; used by the ablation study
    E-X2) — segments stop splitting once the cap is reached, favouring
    the widest segments first.

    Returns the sorted inclusive upper-end index of each bucket; the last
    entry is always ``hi``.
    """
    if hi is None:
        hi = len(records) - 1
    if not (0 <= lo <= hi < len(records)):
        raise IndexError(f"segment [{lo}, {hi}] out of bounds for {len(records)} records")

    ends: List[int] = []
    # Work-list of segments still to be examined.  Processing order does
    # not affect the result (each segment's decision is independent), but
    # a LIFO stack keeps memory at O(depth).
    stack: List[tuple] = [(lo, hi)]
    budget = max_buckets if max_buckets is not None else float("inf")
    if budget < 1:
        raise ValueError(f"max_buckets must be >= 1, got {max_buckets}")

    while stack:
        seg_lo, seg_hi = stack.pop()
        if seg_lo == seg_hi:
            ends.append(seg_hi)
            continue
        # Splitting this segment grows the final bucket count by one
        # (current segments on the stack + emitted ends are all buckets
        # or bucket sources).  Respect the optional cap.
        prospective = len(ends) + len(stack) + 2
        if prospective > budget:
            ends.append(seg_hi)
            continue
        costs = greedy_split_costs(records, seg_lo, seg_hi)
        break_idx = seg_lo + int(np.argmin(costs))
        if break_idx == seg_hi:
            # One bucket over the whole segment is (locally) optimal.
            ends.append(seg_hi)
            continue
        stack.append((break_idx + 1, seg_hi))
        stack.append((seg_lo, break_idx))

    ends.sort()
    return ends


def greedy_break_indices_literal(
    records: RecordList, lo: int = 0, hi: Optional[int] = None
) -> List[int]:
    """Algorithm 1 exactly as written: O(n) cost per candidate.

    The paper's implementation recomputes ``compute_greedy_cost`` from
    the records for every candidate break point, making each segment
    scan O(n^2) — the cause of Table I's near-half-second allocations at
    5000 records.  This literal transcription exists to reproduce that
    measurement;  :func:`greedy_break_indices` computes identical break
    points using prefix sums (O(n) per scan) and is what the
    :class:`GreedyBucketing` algorithm actually runs.
    """
    if hi is None:
        hi = len(records) - 1
    if not (0 <= lo <= hi < len(records)):
        raise IndexError(f"segment [{lo}, {hi}] out of bounds for {len(records)} records")
    values = [r.value for r in records]
    sigs = [r.significance for r in records]

    def cost_of_break(seg_lo: int, i: int, seg_hi: int) -> float:
        w1 = sv1 = 0.0
        for j in range(seg_lo, i + 1):
            w1 += sigs[j]
            sv1 += sigs[j] * values[j]
        w2 = sv2 = 0.0
        for j in range(i + 1, seg_hi + 1):
            w2 += sigs[j]
            sv2 += sigs[j] * values[j]
        total = w1 + w2
        p1, v_lo, rep1 = w1 / total, sv1 / w1, values[i]
        if w2 == 0.0:
            return rep1 - v_lo
        p2, v_hi, rep2 = w2 / total, sv2 / w2, values[seg_hi]
        return (
            p1 * p1 * (rep1 - v_lo)
            + p1 * p2 * (rep2 - v_lo)
            + p2 * p1 * (rep1 + rep2 - v_hi)
            + p2 * p2 * (rep2 - v_hi)
        )

    ends: List[int] = []
    stack = [(lo, hi)]
    while stack:
        seg_lo, seg_hi = stack.pop()
        if seg_lo == seg_hi:
            ends.append(seg_hi)
            continue
        min_cost, break_idx = float("inf"), seg_hi
        for i in range(seg_lo, seg_hi + 1):
            cost = cost_of_break(seg_lo, i, seg_hi)
            if cost < min_cost:
                min_cost, break_idx = cost, i
        if break_idx == seg_hi:
            ends.append(seg_hi)
            continue
        stack.append((break_idx + 1, seg_hi))
        stack.append((seg_lo, break_idx))
    ends.sort()
    return ends


class IncrementalGreedyPartition:
    """Maintain a greedy partition under streaming inserts by local repair.

    Greedy Bucketing's split decisions are *local*: whether (and where)
    a segment splits depends only on the records inside it.  This engine
    exploits that locality: it keeps the last computed break indices,
    and when a record is inserted it shifts the affected bucket ends by
    one (O(K) for K buckets) and marks the receiving bucket *dirty*.
    The next query re-runs the greedy recursion only inside the dirty
    buckets and splices the sub-partitions back — touching the records
    of the dirty segments instead of all n.

    Unlike :class:`~repro.core.exhaustive.IncrementalExhaustivePartition`
    this repair is a **heuristic, not an identity**: a full re-search
    re-examines every ancestor split with the grown record population,
    so its break points can drift from the locally repaired ones.  Both
    are fixpoints of the same local-split rule — every kept bucket was
    declared unsplittable by the same cost scan — but they are not
    guaranteed equal, which is why the engine is strictly **opt-in**
    (``GreedyBucketing(incremental=True)``) and off by default, and why
    it refuses to run under a ``max_buckets`` cap (the cap couples
    segments globally, breaking locality).

    Any eviction (the bucket ends of evicted records are unknown without
    a scan) desynchronizes the engine; the next query falls back to one
    full search and resumes incrementally from its result.

    The cache serializes bit-exactly (:meth:`cache_state`): a restored
    engine resumes from the same breaks and dirty set, so a
    kill/resume mid-stream reproduces the exact allocation sequence.
    """

    #: Resync when local repair has grown the bucket count past this
    #: multiple of the last full search's count — splices only ever
    #: split, so without the bound fragmentation accumulates without
    #: limit (~3x after a few thousand inserts in profiling runs).
    MAX_FRAGMENTATION = 2.0

    __slots__ = (
        "_records",
        "_breaks",
        "_dirty",
        "_synced",
        "_full_count",
        "incremental_updates",
        "resyncs",
        "splices",
        "queries",
    )

    def __init__(self, records: RecordList) -> None:
        self._records = records
        self._breaks: Optional[List[int]] = None
        self._dirty: Set[int] = set()
        self._synced = False
        self._full_count = 1
        self.incremental_updates = 0
        self.resyncs = 0
        self.splices = 0
        self.queries = 0

    @property
    def synced(self) -> bool:
        return self._synced

    def invalidate(self) -> None:
        """Force a full search at the next query."""
        self._synced = False
        self._breaks = None
        self._dirty.clear()

    def cache_state(self) -> Optional[Dict[str, object]]:
        """Serializable cache: breaks + dirty set, restored bit-exactly."""
        if not self._synced or self._breaks is None:
            return None
        return {
            "breaks": list(self._breaks),
            "dirty": sorted(self._dirty),
            "full_count": self._full_count,
        }

    def restore_cache(self, state: object) -> None:
        if not isinstance(state, dict):
            self.invalidate()
            return
        try:
            breaks = [int(b) for b in state["breaks"]]  # type: ignore[index]
            dirty = {int(d) for d in state["dirty"]}  # type: ignore[index]
            full_count = int(state["full_count"])  # type: ignore[index]
        except (KeyError, TypeError, ValueError):
            self.invalidate()
            return
        if not breaks or full_count < 1 or any(
            d >= len(breaks) or d < 0 for d in dirty
        ):
            self.invalidate()
            return
        self._breaks = breaks
        self._dirty = dirty
        self._full_count = full_count
        self._synced = True

    def observe(
        self,
        value: Optional[float],
        eviction: object,
        pos: Optional[int] = None,
    ) -> None:
        """Fold one :meth:`RecordList.add` outcome into the cached breaks.

        ``pos`` is the index the record landed at in the sorted list;
        every cached bucket end at or above it moves up by one and the
        receiving bucket is marked dirty.  Evictions (including batch
        compactions) desynchronize — repairing around an arbitrary
        removal would need the same scan a resync performs anyway.
        """
        if not self._synced:
            return
        if value is None and eviction is None:
            return
        if eviction is not None or pos is None:
            self._synced = False
            return
        breaks = self._breaks
        assert breaks is not None
        self.incremental_updates += 1
        b = bisect_left(breaks, pos)
        if b == len(breaks):
            # Appended past the last bucket end: the new maximum extends
            # the last bucket.
            b -= 1
        for t in range(b, len(breaks)):
            breaks[t] += 1
        self._dirty.add(b)

    def break_indices(self) -> Optional[List[int]]:
        """Current break indices, repairing dirty buckets in place."""
        records = self._records
        n = len(records)
        if n == 0:
            return None
        breaks = self._breaks
        if (
            not self._synced
            or breaks is None
            or breaks[-1] != n - 1
            or len(breaks) > self.MAX_FRAGMENTATION * self._full_count
        ):
            breaks = greedy_break_indices(records)
            self._breaks = breaks
            self._full_count = max(len(breaks), 1)
            self._dirty.clear()
            self._synced = True
            self.resyncs += 1
            self.queries += 1
            return list(breaks)
        if self._dirty:
            # Descending order keeps lower ordinals stable while later
            # slices are spliced.
            for b in sorted(self._dirty, reverse=True):
                lo = breaks[b - 1] + 1 if b > 0 else 0
                hi = breaks[b]
                if lo == hi:
                    continue
                sub = greedy_break_indices(records, lo, hi)
                if len(sub) > 1:
                    breaks[b : b + 1] = sub
                self.splices += 1
            self._dirty.clear()
        self.queries += 1
        return list(breaks)


@register_algorithm
class GreedyBucketing(BucketingAlgorithm):
    """The Greedy Bucketing allocation algorithm.

    Parameters
    ----------
    rng:
        Source of randomness for the probabilistic bucket draws.
    record_capacity:
        Optional sliding-window bound on retained records (scaling
        study; the paper retains all records).
    max_buckets:
        Optional cap on the number of buckets (ablation hook; unset in
        the paper's configuration).
    incremental:
        Repair the previous partition locally with
        :class:`IncrementalGreedyPartition` instead of re-running the
        full search per decision.  **Off by default**: the repair is a
        fixpoint of the same local-split rule but is not guaranteed to
        match the full search's break points (see the engine docs), so
        enabling it trades paper-exactness for O(dirty-segment) decision
        cost.  Ignored (with the full search kept) when ``max_buckets``
        is set — the cap couples segments globally.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.greedy import GreedyBucketing
    >>> gb = GreedyBucketing(rng=np.random.default_rng(0))
    >>> for task_id, mem in enumerate([200.0] * 5 + [1000.0] * 5):
    ...     gb.update(mem, significance=task_id + 1, task_id=task_id)
    >>> sorted(b.rep for b in gb.state.buckets)
    [200.0, 1000.0]
    """

    name = "greedy_bucketing"

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        record_capacity: Optional[int] = None,
        max_buckets: Optional[int] = None,
        incremental: bool = False,
        record_compaction: str = "evict_min",
    ) -> None:
        # Set before super().__init__: the base constructor calls the
        # _make_partition_engine hook, which reads both.
        self._max_buckets = max_buckets
        self._incremental = bool(incremental)
        super().__init__(
            rng=rng,
            record_capacity=record_capacity,
            record_compaction=record_compaction,
        )

    def _make_partition_engine(self) -> Optional[IncrementalGreedyPartition]:
        if not self._incremental or self._max_buckets is not None:
            return None
        return IncrementalGreedyPartition(self._records)

    def compute_break_indices(self, records: RecordList) -> List[int]:
        engine = self._partition_engine
        if engine is not None and records is self._records:
            breaks = engine.break_indices()
            if breaks is not None:
                return breaks
        return greedy_break_indices(records, max_buckets=self._max_buckets)
