"""The cores of this process: how many, the thread pool that shares them,
and the OpenBLAS thread pin that a solve holds.

numpy's OpenBLAS keeps worker threads that spin on the cores after each
multi-threaded call. A solve pins it to one thread, so that the projector's
row blocks (`geometry.SystemMatrix`) get the other cores, and so that its
results do not depend on the BLAS thread count: a threaded dot product of
more than 10,000 entries sums in a different order.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager


def _find_blas_control():
    """The (get, set) thread functions of the OpenBLAS that numpy's wheels
    bundle, or None for another BLAS build."""
    try:
        from numpy._core import _multiarray_umath
        # a lookup through the extension's handle also searches the libraries it links
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):  # numpy 1.x: no such module, or a Python shim
        return None
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or put is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


_BLAS = _find_blas_control()
_pin_lock = threading.Lock()
_pin_depth = 0          # solves under way that hold the pin
_unpinned_threads = 0   # the count to restore when the last one ends
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def product_threads() -> int:
    """How many threads one sparse product may split over: every core when
    the BLAS can be pinned, else one, because its idle threads would hold
    the other cores."""
    return cores() if _BLAS is not None else 1


@contextmanager
def one_blas_thread():
    """Hold OpenBLAS at one thread while the body runs, then restore the
    previous count, also when the body raises. The count is process-wide,
    so nested or concurrent holders restore it only when the last one ends."""
    global _pin_depth, _unpinned_threads
    if _BLAS is None:
        yield
        return
    get, put = _BLAS
    with _pin_lock:
        if _pin_depth == 0:
            _unpinned_threads = get()
            put(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                put(_unpinned_threads)


def map_blocks(fn, blocks) -> list:
    """[fn(b) for b in blocks], the first on the calling thread and the rest
    on this process's thread pool. fn must release the GIL to gain."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(cores() - 1, 1),
                                       thread_name_prefix="srsct-block")
        pool = _pool
    futures = [pool.submit(fn, block) for block in blocks[1:]]
    return [fn(blocks[0]), *(future.result() for future in futures)]


def _after_fork_in_child() -> None:
    # the parent's pool threads do not exist in a forked child
    global _pool, _pool_lock, _pin_lock
    _pool = None
    _pool_lock = threading.Lock()
    _pin_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
