import re

import numpy as np
import pytest

from pointer_cell_sim import instances

_CRITERION_PATTERN = re.compile(r"test_criterion_(\d+)_(\w+)")
_ACCEPTANCE_RESULTS: dict[int, tuple[str, str, float]] = {}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_instance(rng):
    """One random dense microsystem/apparatus pair with its evaluation time."""
    return instances.random_dense_instance(rng, n=3, dim=8)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    match = _CRITERION_PATTERN.search(item.name)
    if match and report.when == "call":
        number = int(match.group(1))
        status = "PASS" if report.passed else "FAIL"
        _ACCEPTANCE_RESULTS[number] = (match.group(2), status, report.duration)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_RESULTS):
        name, status, elapsed = _ACCEPTANCE_RESULTS[number]
        terminalreporter.write_line(
            f"criterion {number} ({name}): {status} ({elapsed:.1f}s)")
