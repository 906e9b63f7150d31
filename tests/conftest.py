import signal

import pytest


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
