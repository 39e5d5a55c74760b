"""OpenBLAS thread-count control, and the thread pool for sweep points and Monte Carlo batches."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np


@functools.cache
def openblas_threads():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None (Linux only)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line.lower()})
        libs = [ctypes.CDLL(path) for path in paths]
    except (OSError, IndexError):
        return None
    for lib in libs:  # numpy wheels prefix and suffix the symbol names
        for stem, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")):
            get, put = f"{stem}_get_num_threads{suffix}", f"{stem}_set_num_threads{suffix}"
            if hasattr(lib, get) and hasattr(lib, put):
                return getattr(lib, get), getattr(lib, put)
    return None


_LOCK = threading.Lock()
_users = 0  # blocks running now
_saved = None  # the thread count before the first of them


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore the count.

    Used where the products are too small to gain from splitting over cores
    (a training step) or where the caller already runs one thread per core
    (``parallel_map``); OpenBLAS threads would only spin or oversubscribe.
    Blocks may overlap across threads: the first one in saves the count and
    the last one out restores it.
    """
    global _users, _saved
    get, put = openblas_threads() or (lambda: None, lambda n: None)
    with _LOCK:
        if _users == 0:
            _saved = get()
            put(1)
        _users += 1
    try:
        yield
    finally:
        with _LOCK:
            _users -= 1
            if _users == 0:
                put(_saved)
                _saved = None


def parallel_map(fn, items, workers=None):
    """``[fn(x) for x in items]`` on ``workers`` threads, with OpenBLAS on one thread.

    By default one thread per item, up to the CPUs this process may use (its
    affinity mask where the platform has one). Results keep item order; the
    first failure in item order propagates and cancels the items not started.
    Pool threads start from the caller's numpy error state, which they would not inherit.
    """
    if workers is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        workers = min(len(items), cpus)
    errstate = functools.partial(np.seterr, **np.geterr())
    with single_blas_thread(), ThreadPoolExecutor(workers, initializer=errstate) as pool:
        return list(pool.map(fn, items))
