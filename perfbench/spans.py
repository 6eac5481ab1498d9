"""In-memory spans recorded by wrappers around a layer's entry points.

A :class:`Tracer` replaces a module- or class-level attribute (the name
the caller actually looks up) with a wrapper that records one span per
call: name, start, end and the span that was current when the call
began.  The current span travels in a :mod:`contextvars` variable, so
asyncio tasks see the span that created them as their parent and spans
from interleaved coroutines never nest by accident.

Spans stay in memory until the benchmark summarises them.  The pure
helpers at the bottom (:func:`union_length`, :func:`self_times`,
:func:`outermost_total`, :func:`residual`) do the arithmetic and are
what the tests exercise on synthetic spans.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Tracer",
    "union_length",
    "self_times",
    "outermost_total",
    "residual",
    "percentile",
]

NO_PARENT = -1

#: Called before the wrapped function with ``(span_index, args, kwargs)``.
Hook = Callable[[int, Tuple[Any, ...], Dict[str, Any]], None]
#: Called after the wrapped function returned, with ``(span_index, args, result)``.
After = Callable[[int, Tuple[Any, ...], Any], None]


class Tracer:
    """Patch entry points, record spans and counts, restore on :meth:`close`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counts: Counter = Counter()
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=NO_PARENT
        )
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        hook: Optional[Hook] = None,
        after: Optional[After] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        current, clock = self._current, self.clock

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                index = len(names)
                names.append(name)
                parents.append(current.get())
                ends.append(0.0)
                if hook is not None:
                    hook(index, args, kwargs)
                token = current.set(index)
                starts.append(clock())
                try:
                    result = await original(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    current.reset(token)
                if after is not None:
                    after(index, args, result)
                return result

            self._patch(owner, attr, async_wrapper)
            return

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name)
            parents.append(current.get())
            ends.append(0.0)
            if hook is not None:
                hook(index, args, kwargs)
            token = current.set(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                current.reset(token)
            if after is not None:
                after(index, args, result)
            return result

        self._patch(owner, attr, wrapper)

    def count_calls(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them (hot inner calls)."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def close(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and counts; patches stay installed."""
        for store in (self.names, self.starts, self.ends, self.parents):
            store.clear()
        self.counts.clear()

    def spans(self) -> List[Tuple[str, float, float, int]]:
        """Every span as ``(name, start, end, parent)``; list index = span id.

        A span still open when this is read ends at its own start.
        """
        return [
            (self.names[i], self.starts[i], max(self.ends[i], self.starts[i]), self.parents[i])
            for i in range(len(self.starts))
        ]

    def durations(self, name: str) -> List[float]:
        return [
            self.ends[i] - self.starts[i]
            for i, span_name in enumerate(self.names)
            if span_name == name and self.ends[i] > 0.0
        ]


# -- span arithmetic ---------------------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cover_start: Optional[float] = None
    cover_end = 0.0
    for start, end in sorted(intervals):
        if cover_start is None or start > cover_end:
            if cover_start is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        elif end > cover_end:
            cover_end = end
    if cover_start is not None:
        total += cover_end - cover_start
    return total


def self_times(spans: Sequence[Tuple[str, float, float, int]]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval, and overlapping
    children (concurrent tasks gathered by one coroutine) are counted
    once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent != NO_PARENT:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(index, ())
            if min(e, end) > max(s, start)
        ]
        result.append((end - start) - union_length(clipped))
    return result


def outermost_total(spans: Sequence[Tuple[str, float, float, int]], name: str) -> float:
    """Summed duration of ``name`` spans not nested inside another ``name`` span."""
    total = 0.0
    for _, start, end, parent in (s for s in spans if s[0] == name):
        ancestor = parent
        nested = False
        while ancestor != NO_PARENT:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            total += end - start
    return total


def residual(total: float, covered: float) -> Tuple[float, float]:
    """``(uncovered, uncovered / total)`` of a measured total and its spans."""
    uncovered = total - covered
    return uncovered, (uncovered / total if total > 0 else 0.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(min(rank, len(ordered))) - 1])
