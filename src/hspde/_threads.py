"""The one thread pool of hspde, with the BLAS pinned to one thread inside it.

hspde parallelises over replicas only: ``simulate`` runs replica batches
and the exponent fits run per-replica increment profiles on
``map_threads``.  While ``map_threads`` runs, the OpenBLAS that numpy
loaded is set to one thread, so the pool is the one parallel layer (no
worker's matmul starts BLAS threads of its own) and a replica's values do
not depend on how many threads the host's BLAS would otherwise use.

The pin is made in-process through ctypes, by the library's own
``*_set_num_threads*`` entry point; no environment variable or
machine-wide setting is touched.  The previous count is restored when the
last of any nested or concurrent callers leaves.  Where no OpenBLAS is
loaded (another BLAS, or a platform without ``/proc/self/maps``) the pin
does nothing, and values then follow that BLAS's own threading.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Optional

#: (getter, setter) symbol pairs of the OpenBLAS builds numpy ships with
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# the BLAS thread count is process state, so the pin that guards it is too
_lock = threading.Lock()
_pins = 0  # callers inside one_blas_thread
_saved: Optional[int] = None  # the count to restore when the last leaves


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                setter.restype, setter.argtypes = None, [ctypes.c_int]
                return getter, setter
    return None


def blas_threads() -> Optional[int]:
    """The loaded OpenBLAS's thread count; None without OpenBLAS."""
    blas = _openblas()
    return None if blas is None else blas[0]()


def set_blas_threads(count: int) -> None:
    """Set the loaded OpenBLAS's thread count; nothing without OpenBLAS."""
    blas = _openblas()
    if blas is not None:
        blas[1](int(count))


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with OpenBLAS at one thread; the first caller in saves
    the count and the last one out restores it, also on an exception."""
    global _pins, _saved
    blas = _openblas()
    if blas is None:
        yield
        return
    with _lock:
        if _pins == 0:
            _saved = blas[0]()
            blas[1](1)
        _pins += 1
    try:
        yield
    finally:
        with _lock:
            _pins -= 1
            if _pins == 0:
                blas[1](_saved)


def worker_count(workers: Optional[int]) -> int:
    """``workers``, or one per CPU this process may use when it is None (or
    0): its CPU affinity where the platform has one, else the CPU count.
    A negative count is refused."""
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be a positive count, or 0 for one "
                         f"per CPU; got {workers}")
    if hasattr(os, "sched_getaffinity"):
        return workers or len(os.sched_getaffinity(0))
    return workers or os.cpu_count() or 1


def map_threads(fn: Callable, items: Iterable,
                workers: Optional[int] = None) -> list:
    """``[fn(x) for x in items]`` on up to ``workers`` threads (default:
    one per usable CPU), in order, with OpenBLAS at one thread throughout.

    One worker, or one item, runs in the calling thread and starts no
    thread.  The first exception raised by ``fn`` propagates after the
    pool has drained.
    """
    items = list(items)
    workers = min(worker_count(workers), len(items))
    with one_blas_thread():
        if workers <= 1:
            return [fn(x) for x in items]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
