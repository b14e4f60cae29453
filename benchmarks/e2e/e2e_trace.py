"""Spans recorded from outside the program, and the arithmetic on them.

The harness measures layers by timing calls *into* public functions: a
:class:`Tracer` replaces a bound method on one live object
(``dep.pipeline.edge.forward`` ...) with a wrapper that records
``(id, name, start, end, parent, ident, n)`` and calls through.  Nothing
under ``src/`` changes; in-program spans are a later issue.

The pure helpers at the bottom (percentiles with the sample-count rule,
FIFO request->batch matching, self time, interval coverage) carry the
arithmetic every reported per-layer number rests on and are unit-tested
in ``test_smoke.py``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

clock = time.perf_counter


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int      # span id of the enclosing span on the same thread, -1 for a root
    ident: int       # batch id (the root pipeline span's id) or request index
    n: int           # images the call carried, 0 when not applicable


class Tracer:
    """Instance-level call wrappers that record spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []       # probe targets that no longer exist
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: List[Tuple[object, str, bool, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, start: float, end: float, ident: int = -1, n: int = 0) -> int:
        """Record a span the harness timed itself (a root: no parent)."""
        span_id = next(self._ids)
        self.spans.append(Span(span_id, name, start, end, -1, ident, n))
        return span_id

    def call(self, name: str, fn: Callable, *args, n: int = 0):
        """Run ``fn(*args)`` as a root span; wrapped calls inside nest under it."""
        stack = self._stack()
        span_id = next(self._ids)
        stack.append(span_id)
        start = clock()
        try:
            return fn(*args)
        finally:
            end = clock()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, -1, span_id, n))

    def wrap(
        self,
        owner: object,
        path: str,
        name: str,
        capture: Optional[Callable[[tuple, object], None]] = None,
    ) -> bool:
        """Wrap ``owner.<path>`` (dotted) in place; False if it is gone.

        A missing target is recorded, not raised: per-layer metrics are
        diagnostic and must survive the program being restructured.
        """
        *parents, attr = path.split(".")
        target = owner
        for part in parents:
            target = getattr(target, part, None)
            if target is None:
                break
        inner = getattr(target, attr, None) if target is not None else None
        if not callable(inner):
            self.missing.append(f"{name} ({path})")
            return False
        had_own = attr in getattr(target, "__dict__", {})
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            first = args[0] if args else None
            shape = getattr(first, "shape", None)
            n = int(shape[0]) if shape else 0
            root = stack[0] if stack else span_id
            spans.append(Span(span_id, name, start, end, parent, root, n))
            if capture is not None:
                capture(args, result)
            return result

        setattr(target, attr, traced)
        self._installed.append((target, attr, had_own, inner))
        return True

    def uninstall(self) -> None:
        for target, attr, had_own, inner in reversed(self._installed):
            if had_own:
                setattr(target, attr, inner)
            else:
                delattr(target, attr)
        self._installed.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


# ----------------------------------------------------------------------
# Pure helpers
# ----------------------------------------------------------------------
#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def supported(count: int, q: float) -> bool:
    """Whether ``count`` samples leave >= 10 samples beyond percentile ``q``."""
    return count * (100.0 - q) / 100.0 >= MIN_SAMPLES_BEYOND


def percentile(values: Sequence[float], q: float, strict: bool = True) -> Optional[float]:
    """Linear-interpolated percentile, or None when the sample is too small.

    ``strict`` applies the sample-count rule (ten samples beyond the
    percentile); the median only needs one sample.
    """
    count = len(values)
    if count == 0:
        return None
    if strict and q > 50.0 and not supported(count, q):
        return None
    ordered = sorted(values)
    position = (count - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def match_fifo(
    batch_sizes: Sequence[int], accepted: Sequence[int]
) -> Optional[List[Tuple[int, int]]]:
    """Pair queued requests with the micro-batches that carried them.

    The dispatcher cuts batches in submission order when no request
    carries a deadline, so the ``k``-th batch of size ``n`` carried the
    next ``n`` accepted requests.  Returns ``(request, batch_index)``
    pairs, or None when the counts disagree (requests that joined an
    in-flight duplicate occupy no batch slot, so the order is unknown).
    """
    if sum(batch_sizes) != len(accepted):
        return None
    pairs: List[Tuple[int, int]] = []
    cursor = 0
    for index, size in enumerate(batch_sizes):
        for request in accepted[cursor:cursor + size]:
            pairs.append((request, index))
        cursor += size
    return pairs


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - covered(span.start, span.end, children.get(span.id, ()))
        for span in spans
    }
