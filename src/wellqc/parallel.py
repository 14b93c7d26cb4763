"""Parallel work, and the one OpenBLAS thread rule that keeps its bits fixed.

``wellqc.cli.main`` runs every command inside ``blas_threads()``, so each
OpenBLAS call computes on one thread and its bits depend neither on the host
nor on how many calls run at once: ``--jobs 1`` matches ``--jobs N``.
Parallel work comes only from this module:
- ``run_tasks`` runs grid cells, CV folds and inference slices on a thread
  pool. It runs serially on a runner thread, so a grid cell's predictions
  open no second pool, and while the caller has a helper open, so ``train``'s
  validation stays on its thread (on a pool it raised ``train``'s peak RSS by
  more than a third).
- ``split_thread`` opens one helper thread for its caller, and ``both`` runs
  one of two independent parts there (``wellqc.nn.ops`` splits the conv
  backward and the pools this way while ``train`` runs). The helper is a
  runner thread.

A library caller that skips ``cli.main`` runs at the OpenBLAS count it has
set, and some products, a dense-only model's among them, change bits with it.

``cli.main`` also calls ``pad_heap_top()`` before each command, which sets
glibc's ``M_TOP_PAD`` to ``TOP_PAD``: each heap arena keeps up to that much
freed memory at its top instead of returning it to the kernel. The setting
is process-global and never restored: glibc has no getter for it, and
setting it switches off the dynamic mmap threshold for the life of the
process (mallopt(3)). It places memory only and changes no arithmetic. Why
96 MiB: a train step frees and re-allocates temporaries of 3.4-12.5 MB. By
default glibc raises its mmap threshold toward 32 MiB as they are freed and
keeps them on each arena, which set ``grid-search --jobs 2``'s peak RSS and
its spread. With the pad the threshold stays at 128 KiB, a block that does
not fit in the padded top is mapped and returned on ``free``, and the top
holds a batch-16 step's temporaries. Measured on a 2-vCPU host: 64, 96 and
128 MiB all cut ``grid-search --jobs 2``'s peak RSS by 11-14 % and raised
the scan path's (``tile`` + ``predict``) by 14 %, but at 64 MiB a batch-16
``train`` still faulted in about 1,500 pages per run and its peak RSS rose
5 %, where at 96 MiB it faulted about 10; 16 and 32 MiB, set at process
start, slowed the train step. Where libc has no ``mallopt`` the command runs
as is.
"""

import contextvars
import ctypes
import functools
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

_runner_thread = threading.local()


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    try:
        lib = ctypes.CDLL(str(next(libs.glob("libscipy_openblas64_*.so"))))
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (StopIteration, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


M_TOP_PAD = -2  # mallopt(3) parameter number, from glibc's malloc.h
TOP_PAD = 96 << 20


@functools.cache
def _mallopt():
    """libc's ``mallopt(param, value)``, or None where libc has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


def pad_heap_top():
    """Set glibc's ``M_TOP_PAD`` to ``TOP_PAD`` for the rest of the process; it is never restored.

    Without ``mallopt`` in libc nothing changes.
    """
    mallopt = _mallopt()
    if mallopt is None:
        log.debug("libc has no mallopt; the allocator is left as is")
        return
    mallopt(M_TOP_PAD, TOP_PAD)


@contextmanager
def blas_threads():
    """Run the body with OpenBLAS on one thread; restore its count afterwards, also on error.

    The count is process-global: enter this once around a command, not per
    thread. Without numpy's OpenBLAS thread control the body runs as is.
    """
    control = _openblas()
    if control is None:
        log.debug("numpy's OpenBLAS thread control not found; the thread count is left as is")
        yield
        return
    get, set_ = control
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _mark_runner_thread():
    _runner_thread.active = True


def _serial() -> bool:
    """Whether the calling thread is a runner thread or has a helper open."""
    return getattr(_runner_thread, "active", False) or helper_open()


def run_tasks(fn, tasks, jobs: int) -> list:
    """``[fn(*task) for task in tasks]``, on up to ``jobs`` threads.

    One task, one job, a call from a runner thread, or a call while the
    calling thread has a helper open runs serially on the calling thread.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(tasks))
    if workers <= 1 or _serial():
        return [fn(*task) for task in tasks]
    with ThreadPoolExecutor(max_workers=workers, initializer=_mark_runner_thread) as pool:
        return list(pool.map(lambda task: fn(*task), tasks))


def helper_open() -> bool:
    """Whether the calling thread has a ``split_thread`` helper open."""
    return getattr(_runner_thread, "helper", None) is not None


@contextmanager
def split_thread():
    """Open one helper thread for the ``both`` calls of the calling thread; close it on exit.

    Nothing opens where ``run_tasks`` runs serially (on a runner thread, the
    helper included, or with a helper open) or on fewer than 2 CPUs: there
    ``both`` runs serially.
    """
    if _serial() or _cpu_count() < 2:
        yield
        return
    with ThreadPoolExecutor(1, thread_name_prefix="wellqc-split", initializer=_mark_runner_thread) as helper:
        _runner_thread.helper = helper
        try:
            yield
        finally:
            _runner_thread.helper = None


def both(first, second):
    """``(first(), second())``, with ``second`` on the calling thread's open helper, if any.

    ``second`` runs in a copy of the caller's context, so the caller's
    ``np.errstate`` holds on the helper. Both parts have finished when this
    returns or raises; if both raise, ``first``'s error is the one raised.
    With no helper open the parts run in order on the calling thread.
    """
    helper = getattr(_runner_thread, "helper", None)
    if helper is None:
        return first(), second()
    future = helper.submit(contextvars.copy_context().run, second)
    try:
        result = first()
    finally:
        wait([future])
    return result, future.result()
