import signal
from types import SimpleNamespace

import pytest

from linecayley import cayley, geometry


@pytest.fixture
def deadline():
    """Call with a number of seconds: past it, the test fails instead of
    hanging.  pytest's failure exception is not an Exception, so no handler
    in the code under test can swallow it."""

    def on_alarm(signum, frame):
        pytest.fail("deadline passed")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def no_tables(monkeypatch):
    """Make every builder of a size's lines or sums fail, so that a size
    that passes the cap by mistake fails the test instead of filling
    memory."""

    def no_table(*args, **kwargs):
        raise AssertionError(f"a table was built: {args}")

    monkeypatch.setattr(cayley, "_space", no_table)
    monkeypatch.setattr(geometry, "itertools", SimpleNamespace(product=no_table))


def pytest_terminal_summary(terminalreporter):
    """Surface the per-criterion verdict lines even when capture is on."""
    lines = set()
    for reports in terminalreporter.stats.values():
        for rep in reports:
            if getattr(rep, "when", "") != "call":
                continue
            for line in getattr(rep, "capstdout", "").splitlines():
                if line.startswith(("criterion", "observed")):
                    lines.add(line)
    if lines:
        terminalreporter.section("acceptance verdicts")
        for line in sorted(lines):
            terminalreporter.write_line(line)
