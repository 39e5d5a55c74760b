import numpy as np
import pytest

from irskey.errors import ConfigError, _fits_in_memory


def _raised(action):
    try:
        with _fits_in_memory("7 widgets"):
            action()
    except Exception as exc:
        return exc
    raise AssertionError("nothing was raised")


def test_a_config_error_passes_through_as_the_same_object():
    inner = ConfigError("trials must be >= 1")

    def fail():
        raise inner

    assert _raised(fail) is inner


@pytest.mark.parametrize("allocation", [
    lambda: np.empty((10**10, 10**10)),  # ValueError: array is too big
    lambda: np.empty(10**30),  # ValueError: Maximum allowed dimension exceeded
    lambda: np.arange(10**30),  # ValueError: Maximum allowed size exceeded
    lambda: np.random.default_rng(0).uniform(0.0, 1.0, 10**21),
])
def test_numpy_size_errors_become_one_config_error(allocation):
    seen = []

    def allocate():
        try:
            allocation()
        except ValueError as exc:
            seen.append(exc)
            raise

    exc = _raised(allocate)
    assert type(exc) is ConfigError and str(exc) == "7 widgets do not fit in memory"
    assert exc.__cause__ is seen[0] and type(seen[0]) is ValueError


def test_a_memory_error_becomes_one_config_error():
    inner = MemoryError("Unable to allocate 27.0 GiB")

    def fail():
        raise inner

    exc = _raised(fail)
    assert type(exc) is ConfigError and str(exc) == "7 widgets do not fit in memory"
    assert exc.__cause__ is inner


def test_other_errors_pass_through_unchanged():
    for inner in (ValueError("cannot reshape array of size 3 into shape (2,)"), OverflowError("int too large")):
        def fail():
            raise inner

        assert _raised(fail) is inner
    with _fits_in_memory("7 widgets"):
        pass
