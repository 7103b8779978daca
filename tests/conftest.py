"""Shared fixtures and the acceptance-summary reporter.

Acceptance tests register one line each through the ``acceptance`` fixture;
the collected lines are printed as a table after the run so the per-criterion
verdicts are visible even when every test passes.

Array libraries get one thread each, set before numpy loads: the dense
oracle's thousands of 64 x 64 products and exponentials (criterion 3) ran
several times slower spread over threads.  A value already in the
environment is kept.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance():
    """Callable recording one acceptance line: acceptance(n, ok, text)."""

    def record(criterion, ok, text):
        line = f"{'PASS' if ok else 'FAIL'}  criterion {criterion}: {text}"
        _ACCEPTANCE_LINES.append((criterion, line))
        print(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260819)
