import functools
import re

import numpy as np
import pytest

from pointer_cell_sim import instances
from pointer_cell_sim.coleman_hepp import ChainSpec, polarized_site, traversal_family
from pointer_cell_sim.logspace import lc_values

_CRITERION_PATTERN = re.compile(r"test_criterion_(\d+)_(\w+)")
_ACCEPTANCE_RESULTS: dict[int, tuple[str, str, float]] = {}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_instance(rng):
    """One random dense microsystem/apparatus pair with its evaluation time."""
    return instances.random_dense_instance(rng, n=3, dim=8)


@pytest.fixture(scope="session")
def chain_family():
    """``(theta, traversal fraction, with overrides, energies) -> (spec, Ns, values,
    log magnitudes, log trace products, failed)``, one ``traversal_family`` call per
    grid point and session, read-only: the chain ``N = 4, m0 = 0.6``, its overrides a
    flip at site 0 and a depolarized site 3, over N = 1 ... 60 and 50 * 2**k up to
    102400, and at full traversal also N = 10**6 and 10**9."""

    @functools.cache
    def family(theta, fraction, overridden, energies):
        overrides = {0: polarized_site(-0.6), 3: np.eye(2, dtype=complex) / 2} if overridden else None
        spec = ChainSpec(N=4, m0=0.6, theta=theta, energies=energies, site_overrides=overrides)
        Ns = [*range(1, 61), *(50 * 2 ** k for k in range(12))]
        Ns += [10 ** 6, 10 ** 9] if fraction == 1.0 else []
        log_magnitude, phase, log_trace, failed = traversal_family(spec, fraction, Ns)
        values = lc_values(log_magnitude, phase)
        for array in (values, log_magnitude, log_trace):
            array.setflags(write=False)
        return spec, Ns, values, log_magnitude, log_trace, failed

    return family


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
