"""Shared pytest wiring: re-emit the acceptance PASS/FAIL lines at the end,
and count the flow networks the checkers build."""

import pytest

from loopcurrents import checkers

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


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
