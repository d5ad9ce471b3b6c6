"""Independent jobs fanned out over the CPUs this process may use.

:func:`fan_out` is the one thread pool of the package: ``build_table``
hands it table cells, ``run_sweep`` the evidence runs of its drops.  The
caller's thread produces the jobs, and may do its own work between two of
them; one helper thread per further CPU takes them from a queue, and the
caller takes what is still queued once it has produced every job.  numpy
releases the interpreter lock while it draws and sums, so the threads
overlap there.
"""

from __future__ import annotations

import os
import queue
import threading
from collections.abc import Callable, Iterable

__all__ = ["fan_out"]


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fan_out(run: Callable[..., None], jobs: Iterable[tuple], most: int | None = None) -> int:
    """Call ``run(*args)`` for every ``args`` that ``jobs`` yields; returns
    the number of threads used, the caller's included.

    That is one thread per available CPU, and at most ``most``.  With one
    thread none is started and each job runs as soon as it is produced.
    The first error in a job or in producing one, or an interrupt of the
    caller, stops every thread at its next job; every helper is joined
    before the error is raised here.
    """
    cpus = _available_cpus()
    threads = max(1, cpus if most is None else min(cpus, most))
    if threads == 1:
        for args in jobs:
            run(*args)
        return 1
    pending, errors, stop = queue.SimpleQueue(), [], threading.Event()

    def take(block: bool) -> None:
        while not stop.is_set():
            try:
                args = pending.get(block)
            except queue.Empty:
                return
            if args is None or stop.is_set():  # None: no job will follow
                return
            try:
                run(*args)
            except BaseException as exc:  # re-raised below once every thread has stopped
                errors.append(exc)
                stop.set()

    helpers: list[threading.Thread] = []

    def join() -> None:
        for _ in helpers:
            pending.put(None)
        for helper in helpers:
            helper.join()

    try:
        for _ in range(threads - 1):
            helper = threading.Thread(target=take, args=(True,))
            helper.start()
            helpers.append(helper)
        for args in jobs:
            if stop.is_set():
                break
            pending.put(args)
        take(False)  # the caller's share: whatever is still queued
        join()
    except BaseException:  # producing a job failed, or an interrupt
        stop.set()
        join()
        raise
    if errors:
        raise errors[0]
    return threads
