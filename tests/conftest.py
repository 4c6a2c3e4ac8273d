"""Shared pytest wiring: re-emit the acceptance PASS/FAIL lines at the end,
fail a test that hangs, and count the flow networks the checkers build."""

import signal

import pytest

from loopcurrents import checkers

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def hang_guard():
    """Fail a test still running after 60 s, so a loop that never ends fails
    its test instead of hanging the suite; the slowest test takes a few
    seconds."""

    def expire(signum, frame):
        pytest.fail("the test ran past 60 s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def flow_networks(monkeypatch) -> list[int]:
    """The node count of every flow network ``checkers`` builds in the test."""
    built: list[int] = []

    class CountingFlow(checkers._Dinic):
        def __init__(self, head, to, cap):
            built.append(len(head))
            super().__init__(head, to, cap)

    monkeypatch.setattr(checkers, "_Dinic", CountingFlow)
    return built
