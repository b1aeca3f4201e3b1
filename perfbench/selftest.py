"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Builds operations with deliberately wrong references (an orbit count off
by 2, a golden document or SVG with one character changed, an impossible
winding sum, a stricter schema), an operation whose call raises and one
whose check cannot read its output, and runs them through the benchmark's
own pass loop.  Each must come back as a failed operation, and the run must
go on; the unaltered controls must pass.  Exits 0 when every case behaves
so.  Takes about 10 seconds.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run


def main():
    run.load_package()
    import pegfinder as pf
    import workloads as w

    root = str(run.ROOT)
    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        settings = pf.TraceSettings()
        ellipse = pf.corpus("ellipse", a=2, b=1)
        c2 = pf.corpus("fourier-random", degree=4, amp=0.3, seed=1)
        with open(f"{root}/docs/result_document.schema.json") as fh:
            schema = json.load(fh)
        runner = w.Cli(workdir, schema)
        strict = w.Cli(workdir, {**schema, "required": ["no_such_key"]})
        argv, golden_json, golden_svg = w.GOLDEN[0]
        with open(f"{root}/tests/golden/{golden_json}") as fh:
            doc = fh.read()
        with open(f"{root}/tests/golden/{golden_svg}") as fh:
            svg = fh.read()
        digit = next(i for i in range(doc.index('"base"'), len(doc)) if doc[i].isdigit())
        bad_doc = doc[:digit] + str((int(doc[digit]) + 1) % 10) + doc[digit + 1:]
        bad_svg = svg.replace("<svg", "<svG", 1)

        cases = [  # (what, op, must fail)
            ("orbit count off by 2", w.square_count_op("c2", c2, orbits=3), True),
            ("orbit count right", w.square_count_op("c2", c2, orbits=1), False),
            ("golden JSON, one digit changed", runner.op(list(argv), w._agrees, bad_doc, svg), True),
            ("golden SVG, one letter changed", runner.op(list(argv), w._agrees, doc, bad_svg), True),
            ("golden documents unchanged", runner.op(list(argv), w._agrees, doc, svg), False),
            ("winding sum 3 expected", w.winding_op("ellipse", ellipse, 3, settings, winding=(3,)), True),
            ("winding sum +-1 expected", w.winding_op("ellipse", ellipse, 3, settings), False),
            ("document against a stricter schema", strict.op(list(argv), w._agrees), True),
            ("call raises (round sphere)",
             w.octahedra_op(pf.corpus("scaled-sphere", lz=1.0), settings), True),
            ("check cannot read its output",
             runner.op(list(argv), lambda d: d["result"]["no_such_key"]), True),
        ]
        failures = []
        run.run_pass([op for _, op, _ in cases], 0, None, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = True
    for i, (what, _, must_fail) in enumerate(cases):
        reports = [f for f in failures if f.startswith(f"pass 0 op {i} ")]
        right = bool(reports) == must_fail
        ok &= right
        print(f"{'ok ' if right else 'BAD'} {what}: {reports[0] if reports else 'passed'}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
