"""Print each benchmark operation's memory, to name the op that sets a
workload's peak.

    python3 tools/op_memory.py branch-trace

Builds the workload's operations at seed 0 with perfbench/workloads.py
(read only, as tools/output_hashes.py does) and runs each once, in order,
under tracemalloc.  One line per op gives

* peak_mb: the most traced memory the op held above what was held before
  it (its transient peak, its result included),
* retained_mb: the traced memory still held after it, its result alive,
  above what was held before it,
* maxrss_mb: the process's ru_maxrss after it; tracemalloc's own
  bookkeeping counts in it, so it reads above a benchmark run's figure.

Every output is checked as the benchmark checks it; a failed op is named
on its line and the exit status is 1.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as perfbench/run.py
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

MB = 1e6


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workload", choices=("square-count", "branch-trace"))
    args = ap.parse_args(argv)
    workdir = tempfile.mkdtemp(prefix="op-memory-")
    failed = 0
    try:
        ops = workloads.build(args.workload, 0, str(ROOT), workdir)
        print(f"{'peak_mb':>9} {'retained_mb':>11} {'maxrss_mb':>9}  op")
        tracemalloc.start()
        for op in ops:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                result, error = op.run(), None
            except Exception as err:  # a failed call is reported, the pass goes on
                result, error = None, err
            current, peak = tracemalloc.get_traced_memory()
            if error is None:
                try:
                    op.check(result)
                except Exception as err:
                    error = err
            maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            note = "" if error is None else f"  FAILED: {type(error).__name__}: {error}"
            print(f"{(peak - before) / MB:9.2f} {(current - before) / MB:11.2f} {maxrss:9.1f}  {op.label}{note}",
                  flush=True)
            failed += error is not None
            del result
    finally:
        tracemalloc.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
