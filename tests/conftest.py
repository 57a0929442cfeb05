"""Shared pytest wiring.

The acceptance tests append their verdict lines to the ``verdicts`` list so
the full-suite output always ends with one PASS/FAIL/SKIP line per
criterion, even though normal capture hides in-test prints.  The list lives
in the run's config stash, not in a module global: other suites in the same
run bring their own ``conftest`` module.
"""

import pytest

_VERDICTS = pytest.StashKey[list]()


def pytest_configure(config):
    config.stash[_VERDICTS] = []


@pytest.fixture
def verdicts(request) -> list:
    return request.config.stash[_VERDICTS]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = config.stash.get(_VERDICTS, [])
    if lines:
        terminalreporter.section("acceptance verdicts")
        for line in lines:
            terminalreporter.write_line(line)
