import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from irskey import _blas


def test_parallel_map_keeps_item_order_pins_blas_and_raises_the_first_failure():
    threads = _blas.openblas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS reachable in this process")
    get, put = threads
    seen = []

    def job(item):
        value, delay = item
        seen.append(get())
        time.sleep(delay)
        if value < 0:
            raise ValueError(f"item {value}")
        return 2 * value

    before = get()
    put(2)  # a count the pool must lower and then bring back
    try:
        # item 0 finishes last
        assert _blas.parallel_map(job, [(0, 0.05), (1, 0.0), (2, 0.0)], workers=3) == [0, 2, 4]
        assert get() == 2
        # item -2 fails first, but item -1 comes first in item order
        with pytest.raises(ValueError, match="item -1"):
            _blas.parallel_map(job, [(0, 0.0), (-1, 0.05), (-2, 0.0)], workers=3)
        assert get() == 2
        assert _blas.parallel_map(job, [(5, 0.0)]) == [10]  # one item runs on the pool too
        assert seen == [1] * 7
        assert get() == 2
    finally:
        put(before)


def test_parallel_map_sizes_the_pool_by_the_cpus_this_process_may_use(monkeypatch):
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, workers, **kwargs):
            sizes.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(_blas, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(_blas.os, "cpu_count", lambda: 8)
    # pinned to one CPU of eight, as under `taskset -c 0`
    monkeypatch.setattr(_blas.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _blas.parallel_map(abs, [-1, -2, -3]) == [1, 2, 3]
    monkeypatch.delattr(_blas.os, "sched_getaffinity")  # a platform without affinity masks
    _blas.parallel_map(abs, [-1, -2, -3])
    _blas.parallel_map(abs, range(20))
    _blas.parallel_map(abs, [-1], workers=4)
    assert sizes == [1, 3, 8, 4]


def test_parallel_map_runs_items_under_the_callers_float_error_state():
    # pool threads start from numpy's default state unless parallel_map hands them the caller's
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        _blas.parallel_map(np.square, [np.float64(2.0), np.float64(1e200)], workers=2)
    with np.errstate(over="ignore"):
        assert _blas.parallel_map(np.square, [np.float64(2.0), np.float64(1e200)], workers=2) == [4.0, np.inf]
