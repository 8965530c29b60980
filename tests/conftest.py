import pytest

# scalar_reference is a helper, not a test module, so pytest would leave
# its asserts as they are and python -O would strip its guards; rewritten,
# they raise under -O too
pytest.register_assert_rewrite("scalar_reference")

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
    import importlib
    import os

    search_module = importlib.import_module("torusmagic.search")
    start_workers = search_module._start_workers
    started = []

    def recorded(*args, **kwargs):
        workers = start_workers(*args, **kwargs)
        started.append(workers)
        return workers

    monkeypatch.setattr(search_module, "_start_workers", recorded)
    if len(os.sched_getaffinity(0)) < 2:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return started
