"""Print the lines of each pegfinder module that no benchmark op, demo or
README command runs.

    python3 tools/line_coverage.py

Under one line tracer (``sys.settrace``, and ``threading.settrace`` for
the pool threads), this process imports pegfinder and runs

* every operation of both benchmark workloads at seed 0, built with
  perfbench/workloads.py (read only, as tools/output_hashes.py does),
* each demo script, from a scratch copy of demos/, so demos/out is not
  written,
* each ``pegfinder ...`` line of the README, through ``pegfinder.cli.main``
  in a scratch directory that holds the field spec the ``--field2`` line
  reads.

Then it prints one line per module of src/pegfinder: the statement lines
(the lines of its compiled code objects) that none of these executed, as
ranges.  Tests are not run: a line only the tests reach is listed.  A
failed operation is named on standard error and the exit status is 1.
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import shlex
import shutil
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pegfinder"

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as perfbench/run.py
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

executed = defaultdict(set)  # file name -> line numbers run
_prefix = str(PACKAGE) + os.sep


def _lines(frame, event, arg):
    if event == "line":
        executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _lines


def _calls(frame, event, arg):
    """Trace only frames of pegfinder's own modules, line by line."""
    if frame.f_code.co_filename.startswith(_prefix):
        executed[frame.f_code.co_filename].add(frame.f_code.co_firstlineno)
        return _lines
    return None


def statement_lines(path):
    """The line numbers of every code object compiled from the file."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts at line 0
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(numbers):
    out, start, prev = [], None, None
    for n in sorted(numbers):
        if start is not None and n == prev + 1:
            prev = n
            continue
        if start is not None:
            out.append(f"{start}-{prev}" if prev > start else str(start))
        start = prev = n
    if start is not None:
        out.append(f"{start}-{prev}" if prev > start else str(start))
    return ", ".join(out)


def run_everything(workdir):
    """Every benchmark op at seed 0, the demos and the README lines; returns
    the number of failures."""
    import workloads

    from pegfinder import cli

    failed = 0
    for name in ("square-count", "branch-trace"):
        for op in workloads.build(name, 0, str(ROOT), workdir):
            _, error = workloads.attempt(op)
            if error is not None:
                print(f"{name} {op.label}: FAILED: {type(error).__name__}: {error}", file=sys.stderr)
                failed += 1
    demos = Path(workdir) / "demos"
    shutil.copytree(ROOT / "demos", demos, ignore=shutil.ignore_patterns("out"))
    (Path(workdir) / "field2.json").write_text('{"kind": "field-sin-mod"}')
    readme = [shlex.split(line)[1:] for line in (ROOT / "README.md").read_text().splitlines()
              if line.startswith("pegfinder ")]
    home = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for demo in sorted(demos.glob("0*.py")):
                runpy.run_path(str(demo), run_name="__main__")
            for line in readme:
                if cli.main(line) != 0:
                    print(f"pegfinder {' '.join(line)}: FAILED", file=sys.stderr)
                    failed += 1
    finally:
        os.chdir(home)
    return failed


def main():
    workdir = tempfile.mkdtemp(prefix="line-coverage-")
    sys.settrace(_calls)
    threading.settrace(_calls)
    try:
        failed = run_everything(workdir)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        shutil.rmtree(workdir, ignore_errors=True)
    for path in sorted(PACKAGE.glob("*.py")):
        lines = statement_lines(path)
        missed = lines - executed[str(path)]
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)} lines not run: {ranges(missed) or 'none'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
