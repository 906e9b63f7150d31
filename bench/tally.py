"""Arithmetic behind the benchmark's metrics.

Nothing here times or runs anything, so the tests in test_tally.py can check
it on synthetic data: the median instance time with failures as +inf, the
share of stage calls that completed, and self time from nested spans.
"""

import statistics
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call: its name, the instance it served, and the span that
    caused it (None for a root)."""

    span_id: int
    parent: int | None
    name: str
    instance: int | None
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


def p50(instance_seconds):
    """Median time per instance, where a failed instance is passed as inf.

    Counting a failure as infinitely slow means fixing one can only lower
    the result. More than half failed gives inf.
    """
    if not instance_seconds:
        raise ValueError("no instances")
    return statistics.median(instance_seconds)


def failed_ratio(attempted, failed):
    """Failed stage calls over attempted stage calls."""
    if attempted < 1:
        raise ValueError("no stage calls were attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed calls out of {attempted} attempted")
    return failed / attempted


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_seconds(spans):
    """Per span id: its duration minus the part its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.span_id: s.seconds - covered_length(children[s.span_id], s.start, s.end)
        for s in spans
    }


def seconds_by_name(spans, inclusive=False):
    """Total time per span name: self time, or with inclusive the whole span."""
    own = None if inclusive else self_seconds(spans)
    out = defaultdict(float)
    for s in spans:
        out[s.name] += s.seconds if inclusive else own[s.span_id]
    return dict(out)


def attr_total(spans, name, key):
    """Sum of one numeric attribute over the spans with the given name."""
    return sum(s.attrs.get(key, 0) for s in spans if s.name == name)


def rate(count, seconds):
    """Count per second, or 0.0 when nothing was timed."""
    return count / seconds if seconds > 0 else 0.0
