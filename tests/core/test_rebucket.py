"""Lazy rebucketing and the vectorized candidate mapping.

Rebucketing is paper-exact: every new record triggers the full
partition search, and the resulting break indices are identical to
calling the search directly.
"""

import numpy as np
import pytest

from repro.core.exhaustive import (
    ExhaustiveBucketing,
    evenly_spaced_break_indices,
    exhaustive_break_indices,
)
from repro.core.greedy import GreedyBucketing, greedy_break_indices
from repro.core.records import RecordList


def _stream(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.clip(rng.normal(8000.0, 2000.0, n), 50.0, None)


class TestRebucketIntervalOne:
    """Default behaviour: identical break indices to the direct search."""

    @pytest.mark.parametrize(
        "algo_cls,direct",
        [
            (GreedyBucketing, greedy_break_indices),
            (ExhaustiveBucketing, exhaustive_break_indices),
        ],
    )
    def test_breaks_identical_to_direct_search_every_update(self, algo_cls, direct):
        algo = algo_cls(rng=np.random.default_rng(0))
        reference = RecordList()
        for task_id, value in enumerate(_stream(120)):
            sig = float(task_id + 1)
            algo.update(float(value), significance=sig, task_id=task_id)
            reference.add(float(value), significance=sig, task_id=task_id)
            state = algo.state
            expected = direct(reference)
            assert [b.hi for b in state.buckets] == list(expected)

    def test_interval_one_never_reanchors(self):
        algo = GreedyBucketing(rng=np.random.default_rng(0))
        for task_id, value in enumerate(_stream(50)):
            algo.update(float(value), significance=float(task_id + 1), task_id=task_id)
            _ = algo.state
        assert algo.recomputations == 50  # one full search per new record


class TestVectorizedCandidateMapping:
    """evenly_spaced_break_indices: one searchsorted == the old loop."""

    @staticmethod
    def _loop_reference(records, k):
        n = len(records)
        last = n - 1
        if k == 1:
            return [last]
        v_max = float(records.values[last])
        ends = []
        for i in range(1, k):
            candidate_value = v_max * i / k
            idx = records.index_below(candidate_value)
            if idx is None or idx >= last:
                continue
            if not ends or idx > ends[-1]:
                ends.append(idx)
        ends.append(last)
        return ends

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        records = RecordList()
        for i in range(int(rng.integers(1, 80))):
            records.add(
                float(rng.uniform(0.0, 1000.0)),
                significance=float(rng.uniform(0.1, 50.0)),
                task_id=i,
            )
        for k in range(1, 15):
            assert evenly_spaced_break_indices(records, k) == self._loop_reference(
                records, k
            )

    def test_identical_values_collapse_to_single_bucket(self):
        records = RecordList()
        for i in range(10):
            records.add(42.0, significance=float(i + 1), task_id=i)
        for k in range(1, 6):
            assert evenly_spaced_break_indices(records, k) == [9]
