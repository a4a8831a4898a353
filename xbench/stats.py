"""The benchmark's own arithmetic: medians, tails, self times, shares.

Everything here is pure and deterministic so that ``test_stats.py`` can
pin it down; the workloads only collect raw samples and spans.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A tail value with the percentile it sits at and the sample count."""

    value: float
    percentile: float
    samples: int


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tail:
    """The highest percentile with at least ten samples beyond it.

    Sorted ascending, the sample at index ``i`` has ``n - 1 - i``
    samples beyond it, so the highest qualifying index is ``n - 11`` and
    its percentile is ``100 * (n - 10) / n``.  With ten samples or fewer
    no percentile qualifies; the maximum is reported at percentile 100
    so small-sample workloads still carry a worst case.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    index = n - 1 - TAIL_MIN_BEYOND
    if index < 0:
        return Tail(float(ordered[-1]), 100.0, n)
    return Tail(float(ordered[index]), 100.0 * (index + 1) / n, n)


@dataclass
class Span:
    """One traced interval; ``parent`` indexes into the same span list."""

    name: str
    start: float
    end: float
    parent: Optional[int] = None
    trace: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[Tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its children cover.

    Children that overlap each other are counted once (their union),
    and a child that runs past its parent only counts inside it.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.seconds - covered(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def open_loop_latencies(due: Dict[str, float],
                        seen: Dict[str, float]) -> List[float]:
    """Latency of every observed request, timed from when it was *due*.

    Timing from the due time rather than the actual send charges a
    stalled generator's backlog to the system, as an open loop must.
    """
    return [seen[key] - due[key] for key in due if key in seen]


@dataclass
class Outcome:
    """What happened to one attempted job."""

    done: bool = False
    refused: bool = False
    check_failures: int = 0

    @property
    def failed(self) -> bool:
        return self.refused or not self.done or self.check_failures > 0


def failed_count(outcomes: Iterable[Outcome]) -> int:
    return sum(1 for outcome in outcomes if outcome.failed)


def done_share(outcomes: Sequence[Outcome]) -> float:
    """Share of attempted jobs that finished and passed every check.

    The complement of the failed share: a job that was refused (HTTP
    429/503), did not finish, or failed an output check counts against
    it.
    """
    if not outcomes:
        raise ValueError("no attempted jobs")
    return 1.0 - failed_count(outcomes) / len(outcomes)


def speed_factor(loop_seconds: Sequence[float], reference: float,
                 min_samples: int) -> float:
    """``reference`` over the median probe loop time: below 1 when the
    host ran slower than the reference, above 1 when it ran faster."""
    if len(loop_seconds) < min_samples:
        raise ValueError(f"{len(loop_seconds)} probe samples, "
                         f"need {min_samples}")
    return reference / median(loop_seconds)


def rescale(value: float, unit: str, factor: float) -> float:
    """A measured value as it would read at the reference host speed.

    Times (``s``) shrink by ``factor`` on a slow host and rates
    (``1/s``) grow; every other unit is not a timing and is left alone.
    """
    if unit == "s":
        return value * factor
    if unit == "1/s":
        return value / factor
    return value
