"""The task runner: independent tasks on one thread pool that shares OpenBLAS's threads.

Grid cells, CV folds (``training.search``) and inference slices
(``nn.model.predict_probs``) all run here. N > 1 workers share OpenBLAS's
process-global thread count. It is set once around the pool to their share
of the CPUs, never above its current value, logged, and restored
afterwards, also on error. One worker leaves it untouched.

A task that runs on a runner thread runs any runner call it makes serially,
on its own thread: a grid cell's predictions open no second pool. Only the
thread that opened the one pool sets the count: ``blas_threads`` on a runner
thread leaves it as is.

Inside one kernel, ``split_thread`` opens a single helper thread for the
thread that enters it, and ``both`` runs one of two independent parts there
(``wellqc.nn.ops`` splits the conv backward and the non-overlapping pools
this way while ``train`` runs). The helper is a runner thread, so a grid cell
or a fold, which already runs on one, opens none and runs both parts itself.
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


def blas_count() -> int:
    """OpenBLAS's thread count in force, or 1 when its thread control is not found."""
    control = _openblas()
    return 1 if control is None else control[0]()


@contextmanager
def blas_threads(n: int):
    """Run the body with OpenBLAS on ``n`` threads, at least 1 and at most its current count.

    The count is process-global: enter this once around a pool, not per worker.
    On a runner thread the body runs at the count the pool's opener set.
    """
    control = None if getattr(_runner_thread, "active", False) else _openblas()
    if control is None:
        log.debug("on a runner thread, or numpy's OpenBLAS thread control not found; the thread count is left as is")
        yield
        return
    get, set_ = control
    old = get()
    set_(max(1, min(n, old)))
    log.debug("OpenBLAS threads %d -> %d", old, get())
    try:
        yield
    finally:
        set_(old)


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _mark_runner_thread():
    _runner_thread.active = True


def run_tasks(fn, tasks, jobs: int) -> list:
    """``[fn(*task) for task in tasks]``, on up to ``jobs`` threads that share the CPUs' BLAS threads.

    One task, one job, or a call from a task already on a runner thread runs
    serially on the calling thread.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(tasks))
    if workers <= 1 or getattr(_runner_thread, "active", False):
        return [fn(*task) for task in tasks]
    with (
        blas_threads(max(1, _cpu_count() // workers)),
        ThreadPoolExecutor(max_workers=workers, initializer=_mark_runner_thread) as pool,
    ):
        return list(pool.map(lambda task: fn(*task), tasks))


def helper_open() -> bool:
    """Whether the calling thread has a ``split_thread`` helper open."""
    return getattr(_runner_thread, "helper", None) is not None


@contextmanager
def split_thread():
    """Open one helper thread for the ``both`` calls of the calling thread; close it on exit.

    Nothing opens on a runner thread (the helper included), where a helper is
    already open, or on fewer than 2 CPUs: there ``both`` runs serially. The
    helper is a runner thread, so ``blas_threads`` and ``run_tasks`` on it
    keep the count and run serially, as on any worker.
    """
    if getattr(_runner_thread, "active", False) or helper_open() or _cpu_count() < 2:
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
