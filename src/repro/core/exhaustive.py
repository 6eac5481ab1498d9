"""Exhaustive Bucketing (Algorithm 2 of the paper).

Exhaustive Bucketing scores whole bucket *configurations* rather than
individual splits: for each candidate number of buckets ``k`` it builds
one configuration, computes its expected waste with the ``T[i][j]``
table of Section IV-C (:func:`repro.core.cost.exhaustive_cost`), and
keeps the cheapest configuration seen.

Enumerating all C(N, k) break-point combinations would be exponential in
the record count, so the paper replaces ``combinations(k, L)`` with the
evenly spaced candidate scheme of Section IV-D:

1. propose ``k - 1`` candidate break *values* ``v_max * i / k``,
2. map each value down to the nearest record strictly below it,
3. drop duplicate or empty mappings.

With the bucket count capped (the paper uses ``k <= 10``, observing that
real workflows rarely need more), each allocation costs one sort-order
walk plus at most ``K`` table evaluations of size <= K x K — this is why
Table I shows Exhaustive Bucketing scaling roughly linearly while Greedy
Bucketing's recursive scans blow up.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import BucketingAlgorithm, register_algorithm
from repro.core.kernels import VECTOR_KERNEL_MIN_BUCKETS, partition_waste_batch
from repro.core.records import BATCH_EVICTION, RecordList

__all__ = [
    "ExhaustiveBucketing",
    "IncrementalExhaustivePartition",
    "evenly_spaced_break_indices",
    "exhaustive_break_indices",
    "select_best_partition",
    "PAPER_MAX_BUCKETS",
]

#: The paper's cap on the bucket count (Section V-A).
PAPER_MAX_BUCKETS = 10


def evenly_spaced_break_indices(records: RecordList, k: int) -> List[int]:
    """The paper's surrogate for ``combinations(k, L)`` (Section IV-D).

    For a target of ``k`` buckets, propose candidate break values
    ``v_max * i / k`` for ``i = 1 .. k-1``, map each to the record with
    the largest value strictly below it, and deduplicate.  Returns the
    sorted inclusive bucket-end indices (always terminated by the last
    record index), which may describe fewer than ``k`` buckets when
    candidates collapse onto the same record or map below record 0.
    """
    if k < 1:
        raise ValueError(f"bucket count k must be >= 1, got {k}")
    n = len(records)
    if n == 0:
        raise ValueError("cannot compute break indices for an empty record list")
    last = n - 1
    if k == 1:
        return [last]
    values = records.values
    v_max = float(values[last])
    # All k-1 candidate values in one searchsorted: index_below(v) is
    # searchsorted(values, v, side="left") - 1, and because the
    # candidates ascend, the mapped indices are non-decreasing — keeping
    # the strictly increasing ones reproduces the one-at-a-time loop.
    candidates = v_max * np.arange(1, k, dtype=np.float64) / k
    idx = np.searchsorted(values, candidates, side="left") - 1
    idx = idx[(idx >= 0) & (idx < last)]
    if idx.size:
        keep = np.empty(idx.size, dtype=bool)
        keep[0] = True
        np.greater(idx[1:], idx[:-1], out=keep[1:])
        ends = idx[keep].tolist()
    else:
        ends = []
    ends.append(last)
    return ends


def select_best_partition(
    records: RecordList, configurations: Sequence[List[int]]
) -> List[int]:
    """Score candidate partitions and return the cheapest (Algorithm 2).

    Thin wrapper over :func:`_score_and_select`; see there for the
    scoring tiers and float-rounding contract.
    """
    return _score_and_select(records, configurations)[0]


def _score_and_select(
    records: RecordList,
    configurations: Sequence[List[int]],
    flat: Optional[List[int]] = None,
    want_stats: bool = False,
) -> Tuple[
    List[int], Optional[Tuple[List[float], List[float], List[float]]]
]:
    """Score candidate partitions; return the cheapest (Algorithm 2).

    The one scoring implementation shared by the full search and the
    incremental engine — both feed their candidate configurations
    through this function, so incremental-vs-full break-index equality
    reduces to candidate equality.  Ties favour the earliest
    configuration, i.e. fewer buckets when callers pass configurations
    in ascending ``k`` order (duplicate configurations score
    identically, so the first occurrence always wins).

    Scoring strategy is tiered on profile evidence (docs/PERFORMANCE.md),
    mirroring :func:`repro.core.kernels.partition_waste`:

    * At the paper's bucket cap (``K <= 10``) the whole pass runs as
      fused pure-Python loops over three bulk ``tolist()`` reads of the
      prefix buffers: per-bucket stats in the exact float-operation
      order of :func:`repro.core.kernels.partition_stats`, then the
      expected waste via the telescoped suffix-ratio identity (O(K) per
      configuration instead of the O(K^2) row recurrence).  At this
      size numpy dispatch overhead exceeds the arithmetic, so the
      interpreted loop wins ~2x.
    * Wide partitions (``>= VECTOR_KERNEL_MIN_BUCKETS`` buckets) switch
      to :func:`repro.core.kernels.partition_waste_batch`, one
      padded-matrix contraction scoring every configuration at once.

    Both tiers round identically *within themselves* and the tier choice
    depends only on the candidate configurations — shared by the full
    search and the incremental engine — so the selected breaks never
    depend on which caller asked.

    ``flat`` lets a caller that already holds the concatenated break
    indices skip re-flattening; ``want_stats`` additionally returns the
    winner's per-bucket ``(reps, probs, estimates)``, bit-identical to
    :func:`repro.core.kernels.partition_stats` on the winning breaks, so
    the state rebuild can skip its own prefix-buffer reads.
    """
    n = len(records)
    # Bulk-read every configuration's bucket boundaries off the prefix
    # buffers in one fancy-index + tolist per buffer: scalar numpy reads
    # (float(sp[hi]) per bucket) cost ~100 ns each in dispatch alone,
    # which at 10 configurations x 10 buckets per decision would rival
    # the scoring arithmetic itself.  The Python floats are the same
    # IEEE values either way.
    if flat is None:
        flat = [hi for breaks in configurations for hi in breaks]
    idx = np.asarray(flat, dtype=np.intp)
    widest = max(len(breaks) for breaks in configurations)
    if widest >= VECTOR_KERNEL_MIN_BUCKETS:
        s_arr = records._sp_buf[idx]
        sv_arr = records._svp_buf[idx]
        rep_arr = records._values_buf[idx]
        lengths = np.fromiter(
            (len(b) for b in configurations), dtype=np.intp, count=len(configurations)
        )
        # Segmented shift: within each configuration, bucket j's
        # "below" prefix is bucket j-1's inclusive prefix, 0 for the
        # first bucket.
        starts = np.zeros(len(configurations), dtype=np.intp)
        np.cumsum(lengths[:-1], out=starts[1:])
        prev_s = np.empty_like(s_arr)
        prev_s[1:] = s_arr[:-1]
        prev_s[starts] = 0.0
        prev_sv = np.empty_like(sv_arr)
        prev_sv[1:] = sv_arr[:-1]
        prev_sv[starts] = 0.0
        sig_arr = s_arr - prev_s
        probs_arr = sig_arr / records._sp_buf[n - 1]
        est_arr = (sv_arr - prev_sv) / sig_arr
        np.minimum(est_arr, rep_arr, out=est_arr)
        costs = partition_waste_batch(rep_arr, probs_arr, est_arr, lengths)
        best = int(np.argmin(costs))  # argmin keeps the first of any tie
        if not want_stats:
            return configurations[best], None
        lo = int(starts[best])
        hi = lo + len(configurations[best])
        # Elementwise numpy ops produce the same IEEE doubles as the
        # scalar partition_stats loop.
        return configurations[best], (
            rep_arr[lo:hi].tolist(),
            probs_arr[lo:hi].tolist(),
            est_arr[lo:hi].tolist(),
        )

    sig_at = records._sp_buf[idx].tolist()
    sigval_at = records._svp_buf[idx].tolist()
    rep_at = records._values_buf[idx].tolist()
    total_sig = float(records._sp_buf[n - 1])

    best_cost = float("inf")
    best_breaks: Optional[List[int]] = None
    best_pos = 0
    pos = 0
    for breaks in configurations:
        end = pos + len(breaks)
        # Single descending pass, no intermediate lists.  Stats fall out
        # of the per-bucket prefix differences in partition_stats'
        # operation order; the waste follows from the telescoped
        # identity of kernels.partition_waste_vector rearranged into
        # three accumulable sums:
        #
        #   cost = S * (A + D(0) * S - B)
        #
        # with S = sum p_i, A = sum p_i ws0_i / sfx_i,
        # D(i) = sum_{j >= i} p_j r_j / sfx_j (so the exclusive prefix
        # C_i = D(0) - D(i)), B = sum p_i D(i), ws0_i = sfx_pr_i -
        # est_i * sfx_i — everything a right-to-left running total.
        # This loop was the profiled floor of the incremental decision
        # at n = 10^6; fusing it saves ~340 list appends per decision.
        acc = 0.0
        acc_pr = 0.0
        a_sum = 0.0
        b_sum = 0.0
        d_sum = 0.0
        for j in range(end - 1, pos, -1):
            s_prev = sig_at[j - 1]
            sig = sig_at[j] - s_prev
            rep = rep_at[j]
            est = (sigval_at[j] - sigval_at[j - 1]) / sig
            if est > rep:
                est = rep
            p = sig / total_sig
            acc += p
            pr = p * rep
            acc_pr += pr
            a_sum += p * ((acc_pr - est * acc) / acc)
            d_sum += pr / acc
            b_sum += p * d_sum
        # First bucket: its "below" prefix is zero.
        sig = sig_at[pos]
        rep = rep_at[pos]
        est = sigval_at[pos] / sig
        if est > rep:
            est = rep
        p = sig / total_sig
        acc += p
        pr = p * rep
        acc_pr += pr
        a_sum += p * ((acc_pr - est * acc) / acc)
        d_sum += pr / acc
        b_sum += p * d_sum
        cost = acc * (a_sum + d_sum * acc - b_sum)
        if cost < best_cost:
            best_cost = cost
            best_breaks = breaks
            best_pos = pos
        pos = end
    assert best_breaks is not None  # callers always pass >= 1 configuration
    if not want_stats:
        return best_breaks, None
    # Winner stats, ascending, in partition_stats' exact operation
    # order (same input floats, same expressions — bit-identical).
    reps_w: List[float] = []
    probs_w: List[float] = []
    est_w: List[float] = []
    below_sig = 0.0
    below_sigval = 0.0
    for j in range(best_pos, best_pos + len(best_breaks)):
        s = sig_at[j]
        sv = sigval_at[j]
        sig = s - below_sig
        rep = rep_at[j]
        est = (sv - below_sigval) / sig
        if est > rep:
            est = rep
        reps_w.append(rep)
        probs_w.append(sig / total_sig)
        est_w.append(est)
        below_sig = s
        below_sigval = sv
    return best_breaks, (reps_w, probs_w, est_w)


def exhaustive_break_indices(
    records: RecordList, max_buckets: int = PAPER_MAX_BUCKETS
) -> List[int]:
    """Choose the cheapest evenly spaced configuration (Algorithm 2).

    Evaluates one configuration per candidate bucket count
    ``k = 1 .. max_buckets`` and returns the break indices minimizing the
    expected waste ``W_B``.  Ties favour fewer buckets (the single-bucket
    configuration is evaluated first).
    """
    if max_buckets < 1:
        raise ValueError(f"max_buckets must be >= 1, got {max_buckets}")
    return select_best_partition(
        records,
        [evenly_spaced_break_indices(records, k) for k in range(1, max_buckets + 1)],
    )


class IncrementalExhaustivePartition:
    """Maintain ``exhaustive_break_indices`` under streaming mutations.

    The full search is O(n) per decision at large n — not for the
    scoring (the candidate set is at most ``K(K-1)/2`` values) but for
    re-deriving every candidate's mapped record index from scratch
    against the whole value array.  This engine keeps those mappings
    *incrementally*: the mapped index of candidate value ``c`` is
    ``(#records with value < c) - 1`` (``searchsorted``-left semantics),
    and that count changes by exactly +1 per inserted value below ``c``
    and -1 per evicted value below ``c``.  Tracking the counts therefore
    costs one vectorized comparison against the candidate vector per
    record mutation, independent of the record count.

    The maintenance is **exact**, not approximate: candidate values are
    computed with the same float expression as
    :func:`evenly_spaced_break_indices` and the counts replicate
    ``searchsorted`` by construction, so :meth:`break_indices` feeds
    byte-identical configurations into the same
    :func:`select_best_partition` scorer as the full search — which is
    why the engine is default-on.

    Two events invalidate the counts wholesale: a change of the maximum
    record value (every candidate ``v_max * i / k`` moves) and a batch
    compaction (an unenumerated set of evictions).  Both mark the engine
    out of sync; the next query *resyncs* with one vectorized
    ``searchsorted`` of the candidate vector — O(C log n), still far
    below the full search's O(n) scan.  :meth:`cheaper_than_full`
    implements that cost comparison so callers can fall back to the
    full search when the record list is too small for the bookkeeping
    to pay off.
    """

    __slots__ = (
        "_records",
        "_max_buckets",
        "_i_arr",
        "_k_arr",
        "_cands",
        "_counts",
        "_base",
        "_min_cand",
        "_vmax",
        "_synced",
        "_last_breaks",
        "_last_stats",
        "_configs_cache",
        "_flat_cache",
        "_shifts_pending",
        "_low_slack",
        "incremental_updates",
        "resyncs",
        "queries",
    )

    def __init__(self, records: RecordList, max_buckets: int = PAPER_MAX_BUCKETS) -> None:
        if max_buckets < 1:
            raise ValueError(f"max_buckets must be >= 1, got {max_buckets}")
        self._records = records
        self._max_buckets = max_buckets
        # Flat candidate layout: for k = 2..K the k-1 fractions i/k live
        # at _offsets[k-2]:_offsets[k-1].  Candidate values are
        # (v_max * i) / k elementwise — the same float expression, and
        # therefore the same rounding, as evenly_spaced_break_indices.
        i_parts: List[np.ndarray] = []
        k_parts: List[np.ndarray] = []
        for k in range(2, max_buckets + 1):
            i_parts.append(np.arange(1, k, dtype=np.float64))
            k_parts.append(np.full(k - 1, float(k)))
        self._i_arr = (
            np.concatenate(i_parts) if i_parts else np.empty(0, dtype=np.float64)
        )
        self._k_arr = (
            np.concatenate(k_parts) if k_parts else np.empty(0, dtype=np.float64)
        )
        # Hot per-mutation state lives in plain Python lists, not
        # arrays: with at most K(K-1)/2 = 45 candidates the interpreted
        # loop in observe() is faster than two numpy dispatches — and
        # much faster right after RecordList._insert's multi-megabyte
        # suffix shift has evicted the ufunc machinery from cache.
        self._cands: Optional[List[float]] = None
        self._counts: Optional[List[int]] = None
        # Mutations strictly below every candidate shift all counts by
        # the same +-1; they are folded into this shared offset in O(1)
        # instead of touching the whole counts list.  Under the
        # heavy-tailed value distributions this engine targets, almost
        # every arrival lands below the smallest candidate (v_max / K),
        # so this is the common case.
        self._base = 0
        self._min_cand = 0.0
        self._vmax: Optional[float] = None
        self._synced = False
        # Winner stats of the most recent break_indices() call, handed
        # to BucketState via consume_stats() so the per-decision rebuild
        # skips a second pass over the prefix buffers.
        self._last_breaks: Optional[List[int]] = None
        self._last_stats: Optional[Tuple[List[float], List[float], List[float]]] = None
        # Configuration cache: an insert strictly below every candidate
        # (the _base fast path — the overwhelmingly common case under
        # heavy-tailed values) shifts every mapped index AND the last
        # index by exactly +1, so the previous decision's configurations
        # are reusable wholesale with a uniform +shift instead of being
        # refiltered from the counts.  _low_slack is how many such
        # shifts are safe before a candidate that was dropped for
        # mapping below index 0 would re-enter the valid range.
        self._configs_cache: Optional[List[List[int]]] = None
        self._flat_cache: Optional[List[int]] = None
        self._shifts_pending = 0
        self._low_slack = 0
        self.incremental_updates = 0
        self.resyncs = 0
        self.queries = 0

    @property
    def n_candidates(self) -> int:
        return int(self._i_arr.size)

    @property
    def synced(self) -> bool:
        return self._synced

    def invalidate(self) -> None:
        """Force a resync at the next query (restore, external mutation)."""
        self._synced = False

    def cache_state(self) -> None:
        """Nothing to serialize: the counts are exact and cheap to rebuild.

        The engine's candidate counts are a pure function of the record
        list, so a restored instance resyncs on its first query and is
        guaranteed to reproduce the pre-checkpoint break indices — the
        "rebuilt on load" arm of the checkpoint contract.
        """
        return None

    def restore_cache(self, state: object) -> None:
        self.invalidate()

    def observe(
        self,
        value: Optional[float],
        eviction: object,
        pos: Optional[int] = None,
    ) -> None:
        """Fold one :meth:`RecordList.add` outcome into the counts.

        ``value`` is the inserted value, or ``None`` when the reservoir
        filter rejected the arrival; ``eviction`` is the record list's
        :attr:`~repro.core.records.RecordList.last_eviction`.  ``pos``
        (the insert index) is accepted for engine-protocol uniformity
        but unused — the counts depend only on the inserted *value*.
        """
        if not self._synced:
            return
        if value is None and eviction is None:
            # No mutation at all (reservoir filter rejected the arrival).
            return
        if eviction == BATCH_EVICTION:
            # Batch compaction: victims unenumerated.
            self._synced = False
            return
        vmax = self._vmax
        assert vmax is not None
        if value is not None and value > vmax:
            # A new maximum moves every candidate v_max * i / k; remap
            # lazily.  An insert is the only way the maximum can grow,
            # so the common case needs no buffer read at all.
            self._synced = False
            return
        evicted: Optional[float] = None
        if eviction is not None:
            evicted = eviction[1]  # type: ignore[index]
            if evicted >= vmax:
                # Evicted a maximum-valued record; unless a duplicate
                # remains (or the insert re-supplied it), v_max drops.
                n = len(self._records)
                if n == 0 or float(self._records._values_buf[n - 1]) != vmax:
                    self._synced = False
                    return
        cands = self._cands
        counts = self._counts
        assert counts is not None and cands is not None
        self.incremental_updates += 1
        if value is not None:
            if value < self._min_cand:
                self._base += 1
                self._shifts_pending += 1
            else:
                for c in range(len(cands)):
                    if value < cands[c]:
                        counts[c] += 1
                self._configs_cache = None
        if evicted is not None:
            self._configs_cache = None
            if evicted < self._min_cand:
                self._base -= 1
            else:
                for c in range(len(cands)):
                    if evicted < cands[c]:
                        counts[c] -= 1

    def _resync(self) -> None:
        n = len(self._records)
        values = self._records._values_buf[:n]
        self._vmax = float(values[n - 1])
        cands = (self._vmax * self._i_arr) / self._k_arr
        self._cands = cands.tolist()
        self._counts = np.searchsorted(values, cands, side="left").tolist()
        self._base = 0
        self._min_cand = float(cands.min()) if cands.size else 0.0
        self._configs_cache = None
        self._shifts_pending = 0
        self._synced = True
        self.resyncs += 1

    def cheaper_than_full(self) -> bool:
        """Whether serving from the engine beats the full O(n) search.

        The incremental query touches only the candidate vector — at
        worst one vectorized ``searchsorted`` (O(C log n)) when a resync
        is pending — while the full search snapshots and scans all n
        records.  The crossover sits where n reaches the candidate
        count (profiled in docs/PERFORMANCE.md; the per-record constant
        of the full search dwarfs the per-candidate resync constant, so
        the log factor is absorbed).  Below it the bookkeeping is pure
        overhead and callers should run the full search directly —
        results are identical either way.
        """
        return len(self._records) >= self.n_candidates > 0

    def break_indices(self) -> Optional[List[int]]:
        """Current best break indices, identical to the full search."""
        records = self._records
        n = len(records)
        if n == 0:
            return None
        if not self._synced:
            self._resync()
        self.queries += 1
        s = self._shifts_pending
        cached = self._configs_cache
        if cached is not None and 0 <= s <= self._low_slack:
            if s:
                # Every mutation since the last build was an insert
                # strictly below all candidates: all mapped indices and
                # the last index moved by exactly +s, preserving the
                # validity filter (see _low_slack).  Fresh lists — the
                # previous decision's winner may still be referenced by
                # a live BucketState.
                configurations = [[x + s for x in ends] for ends in cached]
                assert self._flat_cache is not None
                flat = [x + s for x in self._flat_cache]
                self._configs_cache = configurations
                self._flat_cache = flat
                self._low_slack -= s
                self._shifts_pending = 0
            else:
                configurations = cached
                flat = self._flat_cache  # type: ignore[assignment]
                assert flat is not None
        else:
            counts = self._counts
            assert counts is not None
            last = n - 1
            # Pure-Python per-k filtering over the maintained counts:
            # the mapped index of candidate c is count(c) - 1, the
            # mapped indices ascend within each k, so "keep valid,
            # strictly increasing" reproduces
            # evenly_spaced_break_indices exactly.
            base = self._base - 1
            max_dropped_low = -(1 << 60)
            configurations = [[last]]
            flat = [last]
            offset = 0
            for k in range(2, self._max_buckets + 1):
                ends: List[int] = []
                for j in range(offset, offset + k - 1):
                    i = counts[j] + base
                    if i < 0:
                        if i > max_dropped_low:
                            max_dropped_low = i
                    elif i < last and (not ends or i > ends[-1]):
                        ends.append(i)
                ends.append(last)
                configurations.append(ends)
                flat.extend(ends)
                offset += k - 1
            self._configs_cache = configurations
            self._flat_cache = flat
            # A candidate dropped at mapped index i re-enters at shift
            # -i; the cache survives strictly fewer shifts than that.
            self._low_slack = -max_dropped_low - 1
            self._shifts_pending = 0
        breaks, stats = _score_and_select(
            records, configurations, flat=flat, want_stats=True
        )
        self._last_breaks = breaks
        self._last_stats = stats
        return breaks

    def consume_stats(
        self, breaks: List[int]
    ) -> Optional[Tuple[List[float], List[float], List[float]]]:
        """Winner stats from the most recent :meth:`break_indices` call.

        Returns the per-bucket ``(reps, probs, estimates)`` — in
        :func:`repro.core.kernels.partition_stats`' exact float order —
        if ``breaks`` is the very list object that call returned;
        ``None`` otherwise.  One-shot: the cached stats are cleared on
        use, so they can never outlive a record mutation — the caller
        consumes them in the same decision that produced them.
        """
        if breaks is not self._last_breaks or self._last_breaks is None:
            return None
        stats = self._last_stats
        self._last_breaks = None
        self._last_stats = None
        return stats


@register_algorithm
class ExhaustiveBucketing(BucketingAlgorithm):
    """The Exhaustive Bucketing allocation algorithm.

    Parameters
    ----------
    rng:
        Source of randomness for the probabilistic bucket draws.
    record_capacity:
        Optional sliding-window bound on retained records.
    max_buckets:
        Upper bound on the candidate bucket counts; the paper uses 10.
    incremental:
        Maintain the candidate mappings incrementally with
        :class:`IncrementalExhaustivePartition` (default on).  The
        engine is exact — break indices are identical to the full
        search — so this only changes the cost per decision, from O(n)
        to O(1) in the record count.  Disable to force the full
        re-search every time (the perf baseline).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.exhaustive import ExhaustiveBucketing
    >>> eb = ExhaustiveBucketing(rng=np.random.default_rng(0))
    >>> for task_id, mem in enumerate([200.0] * 5 + [1000.0] * 5):
    ...     eb.update(mem, significance=task_id + 1, task_id=task_id)
    >>> sorted(b.rep for b in eb.state.buckets)
    [200.0, 1000.0]
    """

    name = "exhaustive_bucketing"

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        record_capacity: Optional[int] = None,
        max_buckets: int = PAPER_MAX_BUCKETS,
        incremental: bool = True,
        record_compaction: str = "evict_min",
    ) -> None:
        if max_buckets < 1:
            raise ValueError(f"max_buckets must be >= 1, got {max_buckets}")
        self._max_buckets = max_buckets
        self._incremental = bool(incremental)
        super().__init__(
            rng=rng,
            record_capacity=record_capacity,
            record_compaction=record_compaction,
        )

    @property
    def max_buckets(self) -> int:
        return self._max_buckets

    def _make_partition_engine(self) -> Optional[IncrementalExhaustivePartition]:
        if not self._incremental:
            return None
        return IncrementalExhaustivePartition(self._records, self._max_buckets)

    def compute_break_indices(self, records: RecordList) -> List[int]:
        engine = self._partition_engine
        if (
            engine is not None
            and records is self._records
            and engine.cheaper_than_full()
        ):
            breaks = engine.break_indices()
            if breaks is not None:
                return breaks
        return exhaustive_break_indices(records, max_buckets=self._max_buckets)
