"""Worker threads for batch work that runs in numpy kernels.

``worker_count()`` is the thread budget: the CPUs this process may use, at
most 4.  ``parallel_map`` spreads independent items over that many threads.
Threads pay only where the work releases the GIL: ``solvers.gauss_newton_batch``
runs its seed blocks through ``parallel_map``, while per-point Python loops
such as branch tracing stay in one thread.  ``perfbench/run.py`` records
``worker_count()`` with every run.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count() -> int:
    """The CPUs this process may use, at most 4."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(4, cpus or 1)


def parallel_map(fn, items):
    """[fn(x) for x in items] on at most min(worker_count(), len(items)) threads.

    Results come back in item order, and an exception raised by fn reaches
    the caller.  One item, or a budget of one thread, runs inline.
    """
    items = list(items)
    n = min(worker_count(), len(items))
    if n <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
