"""Worker-count record for the benchmark's environment report.

pegfinder runs in one thread; nothing in the package reads this.  It stays
only because ``perfbench/run.py`` records ``worker_count()`` with every run,
until a benchmark-only change drops that import.
"""

from __future__ import annotations

import os


def worker_count() -> int:
    env = os.environ.get("PEGFINDER_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(4, os.cpu_count() or 1)
