"""The benchmark's own arithmetic, checked on synthetic data."""

import math

import pytest

import tally


def span(span_id, parent, name, start, end, **attrs):
    return tally.Span(span_id, parent, name, 0, start, end, attrs)


def test_p50_counts_failures_as_infinite():
    assert tally.p50([0.3, 0.1, math.inf]) == 0.3
    assert tally.p50([0.1, 0.2, 0.3, math.inf]) == pytest.approx(0.25)
    assert tally.p50([0.1, math.inf, math.inf]) == math.inf


def test_p50_fixing_a_failure_only_lowers_it():
    failing = [0.4, 0.2, math.inf, math.inf, 0.9]
    for i in (2, 3):
        for repaired in (0.05, 5.0):
            fixed = failing[:i] + [repaired] + failing[i + 1:]
            assert tally.p50(fixed) <= tally.p50(failing)


def test_p50_needs_an_instance():
    with pytest.raises(ValueError):
        tally.p50([])


def test_failed_ratio():
    assert tally.failed_ratio(40, 3) == pytest.approx(0.075)
    assert tally.failed_ratio(7, 0) == 0.0
    with pytest.raises(ValueError):
        tally.failed_ratio(0, 0)
    with pytest.raises(ValueError):
        tally.failed_ratio(3, 4)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, None, "instance", 0.0, 10.0),
        span(1, 0, "cert", 2.0, 8.0),
        span(2, 1, "proper", 2.5, 4.0),
        span(3, 1, "check", 4.0, 7.5),
        span(4, 3, "leaf", 5.0, 6.0),
        span(5, 0, "aut", 8.0, 9.0),
    ]
    own = tally.self_seconds(spans)
    assert own[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own[1] == pytest.approx(6.0 - 1.5 - 3.5)
    assert own[3] == pytest.approx(3.5 - 1.0)
    assert own[4] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(0, None, "instance", 0.0, 4.0),
        span(1, 0, "a", 0.5, 2.0),
        span(2, 0, "b", 1.5, 3.0),
        span(3, 0, "c", 3.5, 5.0),  # runs past its parent: clipped
    ]
    assert tally.self_seconds(spans)[0] == pytest.approx(4.0 - 2.5 - 0.5)


def test_totals_by_name():
    spans = [
        span(0, None, "instance", 0.0, 3.0),
        span(1, 0, "aut", 0.0, 1.0, nodes=3),
        span(2, None, "instance", 3.0, 5.0),
        span(3, 2, "aut", 3.0, 4.5, nodes=5, failed=1),
    ]
    assert tally.seconds_by_name(spans) == pytest.approx({"instance": 2.5, "aut": 2.5})
    assert tally.seconds_by_name(spans, inclusive=True)["instance"] == pytest.approx(5.0)
    assert tally.attr_total(spans, "aut", "nodes") == 8
    assert tally.attr_total(spans, "aut", "failed") == 1
    assert tally.rate(8, 2.0) == 4.0
    assert tally.rate(8, 0.0) == 0.0
