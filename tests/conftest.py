import numpy as np
import pytest

from irskey import SystemConfig, channel_statistics

# the suite's warning policy, the same for a local run and CI: these warnings fail the test that raises them
_WARNINGS_AS_ERRORS = (
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
    "error::RuntimeWarning",
)


def pytest_configure(config):
    for entry in _WARNINGS_AS_ERRORS:
        config.addinivalue_line("filterwarnings", entry)


@pytest.fixture(scope="session")
def reference_setup():
    """M=4, L=25 square surface, 10 dBm both sides, UE at (10, 10, 0)."""
    return SystemConfig(M=4, L_h=5, L_v=5)


@pytest.fixture(scope="session")
def reference_stats(reference_setup):
    return channel_statistics(reference_setup)


@pytest.fixture(scope="session")
def small_setup():
    """M=2, L=4 — the size used for oracle and gradient comparisons."""
    return SystemConfig(M=2, L_h=2, L_v=2)


@pytest.fixture(scope="session")
def small_stats(small_setup):
    return channel_statistics(small_setup)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
