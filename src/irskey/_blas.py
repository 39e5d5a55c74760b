"""OpenBLAS thread-count control for code that runs its own threads or tiny products."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading


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
    (Monte Carlo batches); OpenBLAS threads would only spin or oversubscribe.
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
