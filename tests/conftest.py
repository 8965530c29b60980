import pytest

_acceptance_lines: list[str] = []


@pytest.fixture
def acceptance_report():
    """Collect one pass/fail line per acceptance criterion; the lines are
    echoed after the run so they survive pytest's output capture."""

    def _report(criterion: int, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        _acceptance_lines.append(f"criterion {criterion}: {verdict} - {detail}")

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def pools(monkeypatch):
    """The worker pools searches start during a test, on at least two
    usable CPUs, so that a Luby search takes the pooled path on any
    host."""
    import multiprocessing.pool
    import os

    started = []

    class RecordedPool(multiprocessing.pool.Pool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(multiprocessing.pool, "Pool", RecordedPool)
    if len(os.sched_getaffinity(0)) < 2:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return started
