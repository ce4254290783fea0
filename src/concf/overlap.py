"""The second core: one worker thread per process that the training step and
evaluation hand work to.

Work goes to the worker only when it is large enough (``OVERLAP_MIN_WORK``
multiply-adds), the process may run on at least two CPUs, and the caller is
not the worker itself: code that runs on the worker always runs whole, so no
job there waits on its own thread. ``start_for`` makes that decision and
returns a ``start(fn, *args)`` whose result is a future, or None to run on
the calling thread. ``in_halves`` runs one half of some work on the calling
thread and the other where such a ``start`` puts it.

One rule covers failure: when a half or a step fails, ``settle`` cancels
each of its jobs that has not started and waits for each that is running,
and then the first error is raised, so nothing is left queued or running.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# Work hands a half to the worker only when it is at least this many
# multiply-adds: adj.nnz * d for a propagation product, and users * items * d
# for an evaluation's ranking. On scaled ML-1M-shaped graphs the step's worker
# first paid off between 3.1M (no gain) and 8.3M (1.2x) on two free cores,
# and cost 1-9% at every size when the second core was busy. The planted
# criterion-7 job's propagation is 0.63M and its valid ranking 3.8M; ML-1M's
# are 82M and 1.4G.
OVERLAP_MIN_WORK = 1 << 24

# one single-thread pool per process: a forked child cannot use its parent's
_WORKERS: dict[int, ThreadPoolExecutor] = {}
# set on the worker thread by the first job it runs
_ON_WORKER = threading.local()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


class Deferred:
    """A job that runs on the calling thread when its result is asked for."""

    def __init__(self, fn, *args) -> None:
        self._call = functools.partial(fn, *args)

    def result(self):
        return self._call()

    def cancel(self) -> bool:
        return True


def _this_cpu() -> int | None:
    """The CPU the calling thread is running on, where Linux's procfs says."""
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            # field 39, counted after the parenthesized command name
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _kept_to(cpus: set[int], err: dict[str, str], fn, *args):
    """``fn(*args)`` on the worker under NumPy error handling ``err``, on a
    thread allowed only ``cpus`` when that set is not empty."""
    _ON_WORKER.active = True
    if cpus:
        with contextlib.suppress(OSError):  # the process's CPUs changed meanwhile
            os.sched_setaffinity(0, cpus)
    with np.errstate(**err):
        return fn(*args)


def _start(worker: ThreadPoolExecutor, fn, *args):
    """``fn(*args)`` as a future on ``worker``.

    The worker is kept off the calling thread's CPU: Linux would at times
    wake it there and leave both threads sharing one CPU for a whole job
    while another stood idle. It runs the job under the calling thread's
    NumPy error handling, which is per thread.
    """
    cpus = os.sched_getaffinity(0) - {_this_cpu()} if hasattr(os, "sched_setaffinity") else set()
    return worker.submit(_kept_to, cpus, np.geterr(), fn, *args)


def start_for(work: int):
    """The ``start(fn, *args)`` that runs ``fn(*args)`` on the worker and
    returns its future, for ``work`` multiply-adds; None when they run on the
    calling thread: below ``OVERLAP_MIN_WORK``, with one usable CPU, or when
    the calling thread is the worker."""
    if work < OVERLAP_MIN_WORK or _usable_cpus() < 2 or getattr(_ON_WORKER, "active", False):
        return None
    pid = os.getpid()
    # a pool starts its thread at the first submit, so losing this race starts none
    worker = _WORKERS.get(pid) or _WORKERS.setdefault(
        pid, ThreadPoolExecutor(max_workers=1, thread_name_prefix="concf-step"))
    return functools.partial(_start, worker)


def settle(*jobs) -> None:
    """Cancel each of ``jobs``, given in the order they started (None is
    skipped), that has not started, the newest first, and wait for each
    that has, leaving their errors unread."""
    wait([job for job in reversed(jobs) if job is not None and not job.cancel()])


def in_halves(start, fn, here: tuple | None, there: tuple) -> None:
    """Run ``fn(*here)`` on the calling thread and ``fn(*there)`` where
    ``start`` (from ``start_for``) puts it, or after ``here`` when it is
    None, and return once both have ended. A ``here`` of None, a half with
    no rows or chunks, makes no call. A failed ``here`` settles ``there``
    before its error is raised; otherwise ``there``'s error is raised."""
    job = (start or Deferred)(fn, *there)
    try:
        if here is not None:
            fn(*here)
    except BaseException:
        settle(job)
        raise
    job.result()
